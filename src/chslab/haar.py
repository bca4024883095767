"""Haar-random state sampling and the exact moment oracle.

The ``t``-th moment of a Haar-random state over dimension ``N`` equals the
uniform mixture of all type states of size ``t``, i.e. the normalized
projector onto the symmetric subspace. That exact, enumeration-based oracle is
the default everywhere an expectation over the Haar measure is needed;
Monte-Carlo sampling exists only as a cross-check.

Sampling tiles one Philox-4x64-10 stream, the one ``rng_for(s)`` draws, by
trial: trial ``k`` of an ``n``-qubit sampler reads its ``2^(n+1)`` words from
word ``k * 2^(n+1)`` on. Philox is counter-based (Salmon et al., SC 2011), so
``HaarSampler`` jumps to a chunk's first trial, lets numpy's C generator draw
the chunk's uniforms, and turns each trial's words into amplitudes by one
closed-form transform (Box and Muller, Ann. Math. Statist. 1958).
``haar_statevector`` and ``sample_haar`` instead draw numpy's normals from a
given generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets, _as_index
from .qla import DensityOperator, PureState
from .typestates import enumerate_types, type_state


_KEY_MASK = (1 << 64) - 1
# Trials per chunk at two qubits. The chunk scales inversely with the
# dimension, so a chunk's uniforms are 8 * _CHUNK_TRIALS doubles (128 KiB) at
# every n, and its temporaries stay small next to the sampled rows.
_CHUNK_TRIALS = 1 << 11


def rng_for(seed: int) -> np.random.Generator:
    """The Philox stream keyed by ``(seed mod 2^64, 0)``."""
    key = np.array([_as_index(seed, "seed") & _KEY_MASK, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _box_muller(u: np.ndarray, out: np.ndarray) -> None:
    """Write the normalised Box-Muller rows of the uniforms ``u`` into ``out``.

    Row ``i`` of ``u`` holds ``2 * dim`` doubles in (0, 1]. Amplitude ``j`` is
    ``sqrt(-log u[j]) * exp(2 pi i u[dim + j])`` (modulus squared exponential,
    phase uniform, so a standard complex Gaussian up to scale) divided by the
    row's norm, the square root of the sum of the ``-log u[j]``.
    """
    dim = out.shape[1]
    logs = np.log(u[:, :dim])
    scale = np.sqrt(logs / logs.sum(axis=1, keepdims=True))
    angle = u[:, dim:] * (2 * np.pi)
    np.multiply(scale, np.cos(angle), out=out.real)
    np.multiply(scale, np.sin(angle), out=out.imag)


def _check_qubits(n: int, budgets: Budgets, what: str) -> None:
    """At least one qubit, and 2^n within the dense budget, before any allocation."""
    if n < 1:
        raise ValueError("need at least one qubit")
    budgets.check_dense_dim(1 << n, what)


@dataclass(frozen=True)
class HaarSampler:
    """Counter-based seeded sampler that tiles one Philox stream by trial.

    Trial ``k`` reads words ``k * 2^(n+1)`` to ``(k + 1) * 2^(n+1) - 1`` of
    ``rng_for(rng_seed)``'s raw stream, the words ``generator(k)`` starts
    with. Each word ``w`` is the uniform ``((w >> 11) + 1) / 2^53`` in
    (0, 1], and uniforms ``j`` and ``2^n + j`` give amplitude ``j`` of the
    normalised row by the Box-Muller transform (``_box_muller``). Trial ``k``
    is a pure function of ``(rng_seed, k)``, the index taken modulo 2^64: it
    is bitwise the same whatever batch, start, order or chunk it is drawn in.
    The rows are Haar-distributed but are not ``haar_statevector`` of
    ``generator(k)``, which draws numpy's normals from the same words.
    ``n_qubits`` and ``rng_seed`` must be integers (not bools); ``n_qubits``
    is checked against the default dense budget up front.
    """

    n_qubits: int
    rng_seed: int

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _as_index(self.n_qubits, "n_qubits"))
        object.__setattr__(self, "rng_seed", _as_index(self.rng_seed, "rng_seed"))
        _check_qubits(self.n_qubits, DEFAULT_BUDGETS, f"HaarSampler(n_qubits={self.n_qubits})")

    def generator(self, trial: int) -> np.random.Generator:
        """``rng_for(rng_seed)`` advanced to trial ``trial``'s first word."""
        rng = rng_for(self.rng_seed)
        # advance counts Philox blocks of four words; a trial reads 2^(n-1)
        rng.bit_generator.advance((_as_index(trial, "trial") & _KEY_MASK) << (self.n_qubits - 1))
        return rng

    def statevector(self, trial: int) -> np.ndarray:
        return self.statevectors(1, trial)[0]

    def sample(self, trial: int) -> PureState:
        return PureState.from_dense(self.statevector(trial), (self.n_qubits,))

    def statevectors(self, count: int, start_trial: int = 0) -> np.ndarray:
        """Stack of ``count`` sampled state vectors for trials ``start_trial, ...``.

        Each chunk draws its trials' words as one block of uniforms from the
        generator of its first trial, and a chunk ends where the trial index
        wraps to 0. The transform acts on each row alone, so chunking does
        not change any row.
        """
        count = _as_index(count, "count")
        start_trial = _as_index(start_trial, "start_trial")
        if count < 0:
            raise ValueError(f"statevectors: count must be >= 0, got {count}")
        dim = 1 << self.n_qubits
        out = np.empty((count, dim), dtype=complex)
        per_chunk = max(1, 4 * _CHUNK_TRIALS // dim)
        lo = 0
        while lo < count:
            first = (start_trial + lo) & _KEY_MASK
            take = min(per_chunk, count - lo, _KEY_MASK + 1 - first)
            u = self.generator(first).random((take, 2 * dim))
            u += 2.0**-53  # (w >> 11) / 2^53 in [0, 1) becomes ((w >> 11) + 1) / 2^53
            _box_muller(u, out[lo : lo + take])
            lo += take
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
