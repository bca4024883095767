"""Dense reference states that no report builds, for the tests' independent routes.

``phase_ensemble_state`` builds one PGM ensemble member ``rho_x = D_x M D_x``
densely from the exact moment, the reference ``pgm.pgm_report`` is compared
with where ``d^(m+1)`` fits the dense budget. ``random_density`` draws a
Wishart-style density operator for property checks of ``qla``.
"""

import math

import numpy as np

from chslab.budgets import DEFAULT_BUDGETS, Budgets
from chslab.haar import exact_moment
from chslab.pgm import PgmParams
from chslab.qla import DensityOperator
from chslab.typestates import phase_sign


def phase_signs(x: int, d: int) -> np.ndarray:
    """Diagonal of the phase pattern x on one d-dimensional copy."""
    return np.array([phase_sign(x, j) for j in range(d)], dtype=float)


def phase_ensemble_state(
    x: int, params: PgmParams, budgets: Budgets = DEFAULT_BUDGETS
) -> DensityOperator:
    """Exact (m+1)-copy moment with phase pattern x on the first copy."""
    if not 0 <= x < params.d:
        raise ValueError(f"label {x} does not fit in {params.n} bits")
    budgets.check_dense_dim(params.d ** params.copies, "phase_ensemble_state")
    moment = exact_moment(params.d, params.copies, budgets).to_dense(budgets)
    diag = np.kron(phase_signs(x, params.d), np.ones(params.d**params.m))
    return DensityOperator.from_dense(moment * np.outer(diag, diag), (params.n,) * params.copies)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityOperator:
    """Wishart-style random density operator of rank ``rank`` (full by default)."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    width = int(math.log2(dim))
    if 1 << width != dim:
        raise ValueError("dimension must be a power of two")
    return DensityOperator.from_dense(mat, (width,))
