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


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    """The Philox stream keyed by ``(seed, stream)``, each taken modulo 2^64."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class HaarSampler:
    """Counter-based seeded sampler with one substream per trial.

    Each trial owns the Philox stream keyed by ``(rng_seed, trial)``, so
    parallel Monte-Carlo runs are bitwise reproducible regardless of how the
    trials are scheduled.
    """

    n_qubits: int
    rng_seed: int

    def generator(self, trial: int) -> np.random.Generator:
        return rng_for(self.rng_seed, trial)

    def statevector(self, trial: int) -> np.ndarray:
        return haar_statevector(self.n_qubits, self.generator(trial))

    def sample(self, trial: int) -> PureState:
        return PureState.from_dense(self.statevector(trial), (self.n_qubits,))

    def statevectors(self, count: int, start_trial: int = 0) -> np.ndarray:
        """Stack of ``count`` sampled state vectors, one substream each."""
        dim = 1 << self.n_qubits
        out = np.empty((count, dim), dtype=complex)
        for i in range(count):
            out[i] = self.statevector(start_trial + i)
        return out


def haar_statevector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized vector of 2^n i.i.d. standard complex Gaussians."""
    dim = 1 << n
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def sample_haar(n: int, rng: np.random.Generator, budgets: Budgets = DEFAULT_BUDGETS) -> PureState:
    """One Haar-random n-qubit pure state."""
    if n < 1:
        raise ValueError("need at least one qubit")
    budgets.check_dense_dim(1 << n, f"sample_haar(n={n})")
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
