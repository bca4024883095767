"""Haar-random state sampling and the exact moment oracle.

The ``t``-th moment of a Haar-random state over dimension ``N`` equals the
uniform mixture of all type states of size ``t``, i.e. the normalized
projector onto the symmetric subspace. That exact, enumeration-based oracle is
the default everywhere an expectation over the Haar measure is needed;
Monte-Carlo sampling exists only as a cross-check.

Sampling tiles one Philox-4x64-10 stream, the one ``rng_for(s)`` draws, by
trial: trial ``k`` of an ``n``-qubit sampler reads its ``2^(n+1)`` words from
word ``k * 2^(n+1)`` on. Philox is counter-based (Salmon et al., SC 2011), so
``HaarSampler`` jumps once to a batch's first trial, lets numpy's C generator
draw the uniforms chunk by chunk from there, and turns each trial's words into
amplitudes by one closed-form transform (Box and Muller, Ann. Math. Statist.
1958) whose phase comes from a table of 2^12 + 1 turns and a short Taylor
series, with no per-element trigonometric call. ``haar_statevector`` and
``sample_haar`` instead draw numpy's normals from a given generator.

``sampled_moment_distance`` compares a sample's t-th moment with the exact one
in the ``C(N+t-1, t)``-dim type basis of the symmetric subspace, which holds
both, instead of in all ``N^t`` dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets, _as_index
from .states import DensityOperator, PureState, _amplitude, enumerate_types, type_state


_KEY_MASK = (1 << 64) - 1
# Trials per chunk at two qubits. The chunk scales inversely with the
# dimension, so a chunk's uniforms are 8 * _CHUNK_TRIALS doubles (128 KiB) at
# every n, and its temporaries stay small next to the sampled rows.
_CHUNK_TRIALS = 1 << 11


def rng_for(seed: int) -> np.random.Generator:
    """The Philox stream keyed by ``(seed mod 2^64, 0)``."""
    key = np.array([_as_index(seed, "seed") & _KEY_MASK, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# The turn table's step h = 2 pi / 2^12 and the Taylor coefficients of
# cos(h r) and sin(h r) in r.
_TURN_BITS = 12
_STEP = 2 * np.pi / (1 << _TURN_BITS)
_COS_2, _COS_4 = -(_STEP**2) / 2, _STEP**4 / 24
_SIN_1, _SIN_3, _SIN_5 = _STEP, -(_STEP**3) / 6, _STEP**5 / 120


def _turn_table() -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of ``k h`` for k = 0, ..., 2^12, so entry 2^12 is the whole turn.

    Built once per ``statevectors`` call rather than at import, so a process
    that never samples never computes it.
    """
    turns = np.arange((1 << _TURN_BITS) + 1) * _STEP
    return np.cos(turns), np.sin(turns)


def _box_muller(u: np.ndarray, out: np.ndarray, table: tuple[np.ndarray, np.ndarray]) -> None:
    """Write the normalised Box-Muller rows of the uniforms ``u`` into ``out``.

    Row ``i`` of ``u`` holds ``2 * dim`` doubles in (0, 1]. Amplitude ``j`` is
    ``sqrt(-log u[j]) * exp(2 pi i u[dim + j])`` (modulus squared exponential,
    phase uniform, so a standard complex Gaussian up to scale) divided by the
    row's norm, the square root of the sum of the ``-log u[j]``.

    The phase is ``table`` (``_turn_table()``) at ``k = floor(2^12 u)``
    rotated by ``h r``, with ``r = 2^12 u - k`` in [0, 1) and ``h = 2 pi / 2^12``;
    the cosine and sine of ``h r`` are their Taylor polynomials through
    ``(h r)^5``, which ``h r < 2 pi / 2^12`` truncates below 1e-19. A row's
    sum is a pairwise tree over its columns (the dimension is a power of two).
    Every step is elementwise real arithmetic, so a row does not depend on the
    rows drawn with it.
    """
    dim = out.shape[1]
    scale = np.log(u[:, :dim])
    total = scale
    while total.shape[1] > 1:
        total = total[:, 0::2] + total[:, 1::2]
    scale /= total
    np.sqrt(scale, out=scale)
    r = u[:, dim:] * float(1 << _TURN_BITS)
    turns = np.floor(r)
    r -= turns
    k = turns.astype(np.intp)
    r2 = np.multiply(r, r, out=turns)
    cos = r2 * _COS_4
    cos += _COS_2
    cos *= r2
    cos += 1.0
    cos *= scale
    sin = r2 * _SIN_5
    sin += _SIN_3
    sin *= r2
    sin += _SIN_1
    sin *= r
    sin *= scale
    table_cos, table_sin = table[0][k], table[1][k]
    np.subtract(np.multiply(table_cos, cos, out=r), np.multiply(table_sin, sin, out=r2), out=out.real)
    np.add(np.multiply(table_cos, sin, out=r), np.multiply(table_sin, cos, out=r2), out=out.imag)


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
    normalised row by the Box-Muller transform (``_box_muller``), whose phase
    ``exp(2 pi i u)`` is a turn-table entry times a Taylor polynomial, good
    to 1e-15. Trial ``k`` is a pure function of
    ``(rng_seed, k)``, the index taken modulo 2^64: it is bitwise the same
    whatever batch, start, order or chunk it is drawn in.
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

        One generator, ``generator(start_trial)``, draws every chunk's words
        as one block of uniforms, continuing its stream from chunk to chunk;
        it is re-keyed to trial 0 where the trial index wraps at 2^64. The
        transform acts on each row alone, so chunking does not change any row.
        """
        count = _as_index(count, "count")
        start_trial = _as_index(start_trial, "start_trial")
        if count < 0:
            raise ValueError(f"statevectors: count must be >= 0, got {count}")
        dim = 1 << self.n_qubits
        out = np.empty((count, dim), dtype=complex)
        per_chunk = max(1, 4 * _CHUNK_TRIALS // dim)
        rng = self.generator(start_trial)
        table = _turn_table()
        lo = 0
        while lo < count:
            first = (start_trial + lo) & _KEY_MASK
            if first == 0 and lo:
                rng = self.generator(0)
            take = min(per_chunk, count - lo, _KEY_MASK + 1 - first)
            u = rng.random((take, 2 * dim))
            u += 2.0**-53  # (w >> 11) / 2^53 in [0, 1) becomes ((w >> 11) + 1) / 2^53
            _box_muller(u, out[lo : lo + take], table)
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


def sampled_moment_distance(
    vecs: np.ndarray, t: int, budgets: Budgets = DEFAULT_BUDGETS
) -> float:
    """Trace distance between the empirical t-th moment of the rows of ``vecs`` and the exact one.

    Every ``v^(x)t`` lies in the symmetric subspace, and so does the exact
    moment, so both are written in its orthonormal basis of type states
    ``|T>``, one per multiset of size ``t`` over the ``N`` letters:
    ``<T|v^(x)t> = sqrt(t! / prod m_i!) prod_i v_i^(m_i)`` for the
    multiplicities ``m_i`` of ``T``. The exact moment is ``Pi_sym / dim``,
    which in that basis is ``I / C(N+t-1, t)``.
    """
    samples, N = vecs.shape
    types = [T.elements for T in enumerate_types(N, t, budgets)]
    budgets.check_dense_dim(len(types), f"sampled_moment_distance(N={N}, t={t})")
    overlap = np.array([_amplitude(T) for T in types])  # <o|T> for each ordering o of T
    letters = np.array(types, dtype=np.intp)
    amps = vecs[:, letters[:, 0]]
    for position in range(1, t):
        amps *= vecs[:, letters[:, position]]
    amps /= overlap  # the 1/overlap^2 orderings of T, each with overlap <o|T>
    sampled = amps.T @ amps.conj() / samples
    exact = np.eye(len(types)) / len(types)
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
