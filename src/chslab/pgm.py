"""Pretty good measurement for the phase-twirled copies of a Haar state.

The ensemble member for label ``x`` is the exact (m+1)-copy Haar moment ``M``
with the phase pattern ``x`` applied to the first copy (the prefix is the
whole register here): ``rho_x = D_x M D_x`` for a +-1 diagonal ``D_x``. Their
unnormalized sum ``sigma`` is read off the moment: averaging the phases over
x kills every entry of ``M`` between different first-register values, so
``sigma`` is ``d`` times the diagonal blocks ``M_ii`` of ``M``'s grid of
blocks over the first register, and its inverse root has a closed-form
largest eigenvalue. Every ``D_x`` commutes with ``sigma``, so one sandwich
``S M S`` of the moment, with ``S = sigma^(-1/2)``, gives every label's POVM
element ``D_x (S M S) D_x``. Everything is real, and ``sigma`` is solved as
its d blocks of size d^m in one batched eigendecomposition, never built as
one dense (m+1)-copy matrix.

``pgm_report`` is the entry point: one report with the overlap quantity, its
(m+1)/d cap, the inverse-root norm and the PGM success probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .haar import exact_moment
from .qla import DensityOperator, _inv_sqrt_weights, _on_support, _support_eigh
from .reporting import ExperimentReport
from .tolerances import ATOL_CHAIN, ATOL_CROSS_PATH, ATOL_STRUCTURAL, REL_RANK_CUTOFF
from .typestates import phase_sign


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


def _phase_signs(x: int, d: int) -> np.ndarray:
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
    diag = np.kron(_phase_signs(x, params.d), np.ones(params.d**params.m))
    return DensityOperator.from_dense(moment * np.outer(diag, diag), (params.n,) * params.copies)


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

    Every D_x commutes with sigma, hence with S and the null completion, so
    S rho_x S = D_x A D_x for the one sandwich A = S M S: each label has
    overlap Tr(M A) and success Tr(M A) + Tr(null_completion M), and the POVM
    elements sum to A o (signs^T signs) + (I - P), with o the entrywise
    product over M's d x d grid of blocks M_ij over the first register and
    row x of signs the phase pattern x on that register. The moment is built
    and validated once; sigma is never built. Since
    sum_x (-1)^(x . (i xor j)) = d [i == j], sigma = sum_x D_x M D_x keeps
    only the diagonal blocks of that grid, times d: its blocks are d M_ii.
    One batched eigendecomposition of those d real blocks of size d^m gives
    S, the support projector P and the norm of S block by block, with one
    cutoff relative to the largest eigenvalue over all blocks, and
    A_ij = S_i M_ij S_j is one batched product. One Q feeds every check that
    mentions it.
    """
    d, m = params.d, params.m
    block_dim = d**m
    budgets.check_dense_dim(d**params.copies, "pgm_report")
    moment = exact_moment(d, params.copies, budgets).as_dense_operator(budgets).dense
    # M_ij: the first register is the leading digit of the flat index
    moment_blocks = moment.reshape(d, block_dim, d, block_dim).swapaxes(1, 2)
    diagonal = np.arange(d)
    moment_diagonal = moment_blocks[diagonal, diagonal]
    vals, vecs, kept = _support_eigh(d * moment_diagonal, REL_RANK_CUTOFF)
    inv_root = _on_support(vecs, _inv_sqrt_weights(vals, kept))
    null_projector = np.eye(block_dim) - _on_support(vecs, kept.astype(float))
    sandwich = inv_root[:, None] @ moment_blocks @ inv_root[None, :]
    signs = np.stack([_phase_signs(x, d) for x in range(d)])
    residual = sandwich * (signs.T @ signs)[:, :, None, None]
    residual[diagonal, diagonal] += null_projector - np.eye(block_dim)
    completeness_error = float(np.abs(residual).max())
    if completeness_error > 1e-8:
        raise RuntimeError(
            f"POVM completeness violated by {completeness_error}; "
            "null-space completion is broken"
        )
    q_mean = float(np.einsum("ijab,jiba->", moment_blocks, sandwich))
    null_overlap = float(np.einsum("iab,iba->", null_projector, moment_diagonal))
    guess = q_mean + null_overlap / d
    norm_measured = float(1.0 / np.sqrt(vals[kept].min()))
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
