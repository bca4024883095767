"""Haar-random state sampling and the exact moment oracle.

The ``t``-th moment of a Haar-random state over dimension ``N`` equals the
uniform mixture of all type states of size ``t``, i.e. the normalized
projector onto the symmetric subspace. That exact, enumeration-based oracle is
the default everywhere an expectation over the Haar measure is needed;
Monte-Carlo sampling exists only as a cross-check.

Sampling gives trial ``k`` of seed ``s`` the Philox-4x64-10 stream keyed by
``(s, k)``. Philox is counter-based, so ``HaarSampler`` computes the key
stream of every trial of a chunk at once with ``uint64`` array arithmetic and
turns each trial's words into complex normals by one closed-form transform
(Box and Muller, Ann. Math. Statist. 1958). ``haar_statevector`` and
``sample_haar`` instead draw numpy's normals from a given generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .qla import DensityOperator, PureState
from .typestates import enumerate_types, type_state


_KEY_MASK = (1 << 64) - 1
# Trials per chunk at two qubits. The chunk scales inversely with the
# dimension, so a chunk's key stream is 8 * _CHUNK_TRIALS words (128 KiB) at
# every n, and its uint64 temporaries stay small next to the sampled rows.
_CHUNK_TRIALS = 1 << 11

# Philox-4x64 multipliers and Weyl key increments (Salmon et al., SC 2011).
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _philox_key(seed: int, stream: int) -> np.ndarray:
    """The Philox key of stream ``(seed, stream)``, each taken modulo 2^64."""
    return np.array([seed & _KEY_MASK, stream & _KEY_MASK], dtype=np.uint64)


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    """The Philox stream keyed by ``(seed, stream)``, each taken modulo 2^64."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, stream)))


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``m * x``, from 32-bit halves."""
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_hi, hi_lo = m_lo * x_hi, m_hi * x_lo
    carry = ((m_lo * x_lo) >> _SHIFT32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    hi = m_hi * x_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + (carry >> _SHIFT32)
    return hi, m * x


def _philox_keystream(seed: int, streams: np.ndarray, words: int) -> np.ndarray:
    """First ``words`` outputs of each stream ``(seed, s)`` for ``s`` in ``streams``.

    Row ``i`` equals ``np.random.Philox(key=_philox_key(seed, streams[i]))
    .random_raw(words)``: a fresh generator encrypts counters 1, 2, ... (the
    other three counter words 0) and hands out each block's four words in
    order. ``streams`` is ``uint64`` and ``words`` a multiple of 4.
    """
    blocks = words // 4
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (len(streams), blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    k1 = streams[:, None]
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) & _KEY_MASK)
        bump = np.uint64((r * _PHILOX_W[1]) & _KEY_MASK)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ (k1 + bump), lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(len(streams), words)


def _complex_normals(raw: np.ndarray) -> np.ndarray:
    """Complex normals from pairs of Philox words, by the Box-Muller transform.

    Row ``i`` of ``raw`` holds ``2 * dim`` words. Each word ``w`` becomes the
    exact double ``u = ((w >> 11) + 1) / 2^53`` in (0, 1], and amplitude ``j``
    is ``sqrt(-log u[j]) * exp(2 pi i u[dim + j])``: modulus squared
    exponential, phase uniform, so a standard complex Gaussian up to a scale
    that normalisation removes.
    """
    dim = raw.shape[1] // 2
    u = ((raw >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
    return np.sqrt(-np.log(u[:, :dim])) * np.exp(2j * np.pi * u[:, dim:])


def _check_qubits(n: int, budgets: Budgets, what: str) -> None:
    """At least one qubit, and 2^n within the dense budget, before any allocation."""
    if n < 1:
        raise ValueError("need at least one qubit")
    budgets.check_dense_dim(1 << n, what)


@dataclass(frozen=True)
class HaarSampler:
    """Counter-based seeded sampler with one Philox stream per trial.

    Trial ``k`` reads the first ``2^(n+1)`` words of the stream keyed by
    ``(rng_seed, k)``, the stream ``generator(k)`` starts. Word ``j`` and
    word ``2^n + j`` give amplitude ``j`` by the Box-Muller transform
    (``_complex_normals``), and the row is then normalised. Trial ``k`` is a
    pure function of ``(rng_seed, k)``, the index taken modulo 2^64: it is
    bitwise the same whatever batch, start, order or chunk it is drawn in.
    The rows are Haar-distributed but are not ``haar_statevector`` of
    ``generator(k)``, which draws numpy's normals from the same words.
    ``n_qubits`` is checked against the default dense budget up front.
    """

    n_qubits: int
    rng_seed: int

    def __post_init__(self):
        _check_qubits(self.n_qubits, DEFAULT_BUDGETS, f"HaarSampler(n_qubits={self.n_qubits})")

    def generator(self, trial: int) -> np.random.Generator:
        return rng_for(self.rng_seed, trial)

    def statevector(self, trial: int) -> np.ndarray:
        return self.statevectors(1, trial)[0]

    def sample(self, trial: int) -> PureState:
        return PureState.from_dense(self.statevector(trial), (self.n_qubits,))

    def statevectors(self, count: int, start_trial: int = 0) -> np.ndarray:
        """Stack of ``count`` sampled state vectors for trials ``start_trial, ...``.

        Each chunk computes the key streams of its trials at once, turns them
        into complex normals and divides every row by its norm. Every step
        acts on each row alone, so chunking does not change any row.
        """
        if count < 0:
            raise ValueError(f"statevectors: count must be >= 0, got {count}")
        dim = 1 << self.n_qubits
        out = np.empty((count, dim), dtype=complex)
        per_chunk = max(1, 4 * _CHUNK_TRIALS // dim)
        for lo in range(0, count, per_chunk):
            first = np.uint64((start_trial + lo) & _KEY_MASK)
            trials = np.arange(min(per_chunk, count - lo), dtype=np.uint64) + first
            block = _complex_normals(_philox_keystream(self.rng_seed, trials, 2 * dim))
            out[lo : lo + len(trials)] = block / np.linalg.norm(block, axis=1, keepdims=True)
        return out


def haar_statevector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized vector of 2^n i.i.d. standard complex Gaussians."""
    dim = 1 << n
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def sample_haar(n: int, rng: np.random.Generator, budgets: Budgets = DEFAULT_BUDGETS) -> PureState:
    """One Haar-random n-qubit pure state."""
    _check_qubits(n, budgets, f"sample_haar(n={n})")
    return PureState.from_dense(haar_statevector(n, rng), (n,))


def exact_moment(N: int, t: int, budgets: Budgets = DEFAULT_BUDGETS) -> DensityOperator:
    """E[|theta><theta|^(x)t] over Haar theta, as the uniform type-state mixture.

    Ensemble form with one member per multiset of size ``t`` over the
    ``N``-letter alphabet; there are C(N + t - 1, t) of them, all with equal
    probability.
    """
    count = math.comb(N + t - 1, t)
    budgets.check_type_count(count, f"exact_moment(N={N}, t={t})")
    members = [(1.0 / count, type_state(T)) for T in enumerate_types(N, t, budgets)]
    return DensityOperator.from_ensemble(members)


def sampled_moment_distance(vecs: np.ndarray, t: int, exact: np.ndarray) -> float:
    """Trace distance between the empirical t-th moment of the rows of ``vecs`` and ``exact``.

    The empirical moment is the mean of |v><v|^(x)t over the sampled rows,
    built from their t-fold tensor powers and symmetrised before the
    eigen-solve.
    """
    samples = len(vecs)
    power = vecs
    for _ in range(t - 1):
        power = np.einsum("bi,bj->bij", power, vecs).reshape(samples, -1)
    sampled = power.T @ power.conj() / samples
    vals = np.linalg.eigvalsh(0.5 * (sampled + sampled.conj().T) - exact)
    return 0.5 * float(np.abs(vals).sum())


def symmetric_projector(N: int, t: int, budgets: Budgets = DEFAULT_BUDGETS) -> np.ndarray:
    """Projector onto the symmetric subspace of (C^N)^(x)t, built from permutations.

    Independent of the type-state route: averages the N^t-dimensional
    permutation matrices over the symmetric group.
    """
    import itertools

    dim = N**t
    budgets.check_dense_dim(dim, f"symmetric_projector(N={N}, t={t})")
    proj = np.zeros((dim, dim))
    radix = [N**i for i in reversed(range(t))]
    indices = np.arange(dim)
    digits = [(indices // radix[i]) % N for i in range(t)]
    for perm in itertools.permutations(range(t)):
        target = sum(digits[perm[i]] * radix[i] for i in range(t))
        proj[target, indices] += 1.0
    return proj / math.factorial(t)
