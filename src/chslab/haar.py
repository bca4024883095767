"""Haar-random state sampling and the exact moment oracle.

The ``t``-th moment of a Haar-random state over dimension ``N`` equals the
uniform mixture of all type states of size ``t``, i.e. the normalized
projector onto the symmetric subspace. That exact, enumeration-based oracle is
the default everywhere an expectation over the Haar measure is needed;
Monte-Carlo sampling exists only as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .qla import DensityOperator, PureState
from .typestates import enumerate_types, type_state


_KEY_MASK = (1 << 64) - 1
_CHUNK_TRIALS = 1024


def _philox_key(seed: int, stream: int) -> np.ndarray:
    """The Philox key of stream ``(seed, stream)``, each taken modulo 2^64."""
    return np.array([seed & _KEY_MASK, stream & _KEY_MASK], dtype=np.uint64)


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    """The Philox stream keyed by ``(seed, stream)``, each taken modulo 2^64."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, stream)))


def _check_qubits(n: int, budgets: Budgets, what: str) -> None:
    """At least one qubit, and 2^n within the dense budget, before any allocation."""
    if n < 1:
        raise ValueError("need at least one qubit")
    budgets.check_dense_dim(1 << n, what)


@dataclass(frozen=True)
class HaarSampler:
    """Counter-based seeded sampler with one Philox stream per trial.

    Trial ``k`` draws from the stream keyed by ``(rng_seed, k)``, which is the
    stream ``rng_for(rng_seed, k)`` starts: its first ``2^n`` normals are the
    real parts and the next ``2^n`` the imaginary parts, exactly as in
    ``haar_statevector``. A batch builds one bit generator and re-keys it per
    trial by resetting its state (counter 0, the trial's key, empty buffer),
    so every trial is bitwise the same whatever batch, order or chunk it is
    drawn in. ``n_qubits`` is checked against the default dense budget up
    front.
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

        Normals are drawn chunk by chunk into one buffer, and each chunk is
        normalised at once with the row norm ``np.linalg.norm`` computes
        (``sqrt(re . re + im . im)``, each a BLAS dot), so the rows match
        ``haar_statevector`` bit for bit.
        """
        dim = 1 << self.n_qubits
        out = np.empty((count, dim), dtype=complex)
        rng = self.generator(start_trial)
        bit_gen = rng.bit_generator
        state = bit_gen.state
        normals = np.empty((min(count, _CHUNK_TRIALS), 2, dim))
        for lo in range(0, count, _CHUNK_TRIALS):
            chunk = normals[: min(_CHUNK_TRIALS, count - lo)]
            for i, row in enumerate(chunk):
                state["state"]["key"] = _philox_key(self.rng_seed, start_trial + lo + i)
                bit_gen.state = state
                rng.standard_normal(out=row.reshape(-1))
            block = out[lo : lo + len(chunk)]
            block.real, block.imag = chunk[:, 0], chunk[:, 1]
            re, im = block.real[:, None], block.imag[:, None]
            squares = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
            block /= np.sqrt(squares[:, 0])
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
