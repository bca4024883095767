"""Pretty good measurement for the phase-twirled copies of a Haar state.

The ensemble member for label ``x`` is the exact (m+1)-copy Haar moment with
the phase pattern ``x`` applied to the first copy (the prefix is the whole
register here). Their unnormalized sum ``sigma`` is block diagonal over the
first register's computational basis, with the blocks indexed by the
remaining m-copy types; that structure gives the pseudo-inverse square root
cheaply and pins its largest eigenvalue to a closed form.

``pgm_report`` is the entry point: one report with the overlap quantity, its
(m+1)/d cap, the inverse-root norm and the PGM success probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .haar import exact_moment
from .qla import DensityOperator, _support_eigh
from .reporting import ExperimentReport
from .tolerances import ATOL_CHAIN, ATOL_CROSS_PATH, ATOL_STRUCTURAL, REL_RANK_CUTOFF
from .typestates import TypeVector, phase_sign, type_state


@dataclass(frozen=True)
class PgmParams:
    """n qubits per copy (d = 2^n) and m extra copies (m + 1 total)."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 0:
            raise ValueError("need n >= 1 and m >= 0")

    @property
    def d(self) -> int:
        return 1 << self.n

    @property
    def copies(self) -> int:
        return self.m + 1


def _phase_diagonal(x: int, params: PgmParams) -> np.ndarray:
    """Diagonal of the phase pattern x on one copy, identity on the other m."""
    d = params.d
    signs = np.array([phase_sign(x, j) for j in range(d)], dtype=float)
    return np.kron(signs, np.ones(d**params.m))


def _phase_state(moment: np.ndarray, x: int, params: PgmParams) -> DensityOperator:
    """The dense (m+1)-copy moment with phase pattern x applied to the first copy."""
    diag = _phase_diagonal(x, params)
    conjugated = moment * np.outer(diag, diag)
    return DensityOperator.from_dense(conjugated, (params.n,) * params.copies)


def phase_ensemble_state(
    x: int, params: PgmParams, budgets: Budgets = DEFAULT_BUDGETS
) -> DensityOperator:
    """Exact (m+1)-copy moment with phase pattern x on the first copy."""
    if not 0 <= x < params.d:
        raise ValueError(f"label {x} does not fit in {params.n} bits")
    budgets.check_dense_dim(params.d ** params.copies, "phase_ensemble_state")
    moment = exact_moment(params.d, params.copies, budgets).to_dense(budgets)
    return _phase_state(moment, x, params)


def sigma_unnormalized(params: PgmParams, budgets: Budgets = DEFAULT_BUDGETS) -> np.ndarray:
    """sum_x rho_x, assembled block by block over the first register's basis.

    Projecting the first copy of an (m+1)-type state onto |j> leaves the
    m-copy type state of the remainder, weighted by the multiplicity of j, so

        sigma = (d / C(d+m, m+1)) * sum_j sum_{m-types s}
                ((s_j + 1) / (m+1)) |j><j| (x) |s><s|.
    """
    d, m, n = params.d, params.m, params.n
    dim = d ** params.copies
    budgets.check_dense_dim(dim, "sigma_unnormalized")
    count = math.comb(d + m, m + 1)
    block_dim = d**m
    sigma = np.zeros((dim, dim), dtype=complex)
    rest_states = []
    if m:
        for combo in combinations_with_replacement(range(d), m):
            vec = type_state(TypeVector(combo, n, n)).dense(budgets)
            rest_states.append((combo, np.outer(vec, vec.conjugate())))
    for j in range(d):
        block = np.zeros((block_dim, block_dim), dtype=complex)
        if m:
            for combo, proj in rest_states:
                multiplicity = combo.count(j)
                block += ((multiplicity + 1) / (m + 1)) * proj
        else:
            block = np.ones((1, 1), dtype=complex)
        lo, hi = j * block_dim, (j + 1) * block_dim
        sigma[lo:hi, lo:hi] = (d / count) * block
    return sigma


def _trace_of_product(a: np.ndarray, b: np.ndarray) -> float:
    """Re Tr(a @ b) without forming the product."""
    return float(np.real(np.einsum("ij,ji->", a, b)))


def pgm_report(params: PgmParams, budgets: Budgets = DEFAULT_BUDGETS) -> ExperimentReport:
    """The overlap Q = E_x Tr(rho_x S rho_x S), S = sigma^(-1/2), and the PGM success.

    Q is tested against its (m+1)/d cap, and the largest eigenvalue of S is
    pinned to the closed form sqrt(C(d+m, m+1) (m+1) / d), which is the
    submultiplicativity ingredient that yields the cap.

    The POVM elements are S rho_x S, completed on the null space of sigma with
    weight I/d so they sum to the identity; the null completion contributes
    nothing to any reported trace because every rho_x is supported inside
    sigma. The source bound for arbitrary measurements is stated as an equality
    with an unspecified constant, which is untestable as written; it is treated
    as an upper bound with the fitted constant reported.

    The moment, sigma and each rho_x are built once; one eigendecomposition of
    sigma gives S, the support projector and the norm of S (from the kept
    eigenvalues), and one Q feeds every quantity, bound and flag that
    mentions it.
    """
    d, m = params.d, params.m
    dim = d ** params.copies
    sigma = sigma_unnormalized(params, budgets)
    vals, vecs = _support_eigh(sigma, REL_RANK_CUTOFF)
    inv_root = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    null_completion = (np.eye(dim) - vecs @ vecs.conj().T) / d
    moment = exact_moment(d, params.copies, budgets).to_dense(budgets)
    povm_sum = np.zeros((dim, dim), dtype=complex)
    overlap = success = 0.0
    for x in range(d):
        rho_x = _phase_state(moment, x, params).dense
        sandwich = inv_root @ rho_x @ inv_root
        overlap += _trace_of_product(rho_x, sandwich)
        element = sandwich + null_completion
        povm_sum += element
        success += _trace_of_product(element, rho_x)
    completeness_error = float(np.abs(povm_sum - np.eye(dim)).max())
    if completeness_error > 1e-8:
        raise RuntimeError(
            f"POVM completeness violated by {completeness_error}; "
            "null-space completion is broken"
        )
    q_mean = overlap / d
    guess = success / d
    norm_measured = float(1.0 / np.sqrt(vals.min()))
    norm_formula = math.sqrt(math.comb(d + m, m + 1) * (m + 1) / d)
    rate = math.sqrt(m / d + m**7 / d**3) if m else 0.0
    quantities = {
        "q_mean": q_mean,
        "inv_sqrt_norm_measured": norm_measured,
        "guess_probability": guess,
        "completeness_error": completeness_error,
        "fitted_constant": (guess / rate) if rate else float("nan"),
    }
    bounds = {
        "q_bound": (m + 1) / d,
        "inv_sqrt_norm_formula": norm_formula,
        "random_guess": 1.0 / d,
        "sqrt_q": math.sqrt(q_mean),
        "indistinguishability_rate": rate,
    }
    flags = {
        "q_le_bound": q_mean <= (m + 1) / d + ATOL_CHAIN,
        "inv_sqrt_norm_matches_formula": abs(norm_measured - norm_formula) <= ATOL_CROSS_PATH,
        "guess_ge_random": guess >= 1.0 / d - ATOL_CHAIN,
        "guess_le_sqrt_q": guess <= math.sqrt(q_mean) + ATOL_CHAIN,
        "povm_complete": completeness_error <= ATOL_STRUCTURAL,
    }
    return ExperimentReport(
        experiment="pgm",
        params={"n": params.n, "m": m},
        quantities=quantities,
        bounds=bounds,
        flags=flags,
        notes=[
            "the arbitrary-POVM bound is displayed as an equality with an "
            "unspecified constant; tested here as an upper bound with the "
            "fitted constant recorded"
        ],
    )
