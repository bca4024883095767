"""Pretty good measurement for the phase-twirled copies of a Haar state.

The ensemble member for label ``x`` is the exact (m+1)-copy Haar moment ``M``
with the phase pattern ``x`` applied to the first copy (the prefix is the
whole register here): ``rho_x = D_x M D_x`` for a +-1 diagonal ``D_x``. Their
unnormalized sum ``sigma`` is block diagonal over the first register's
computational basis, with the blocks indexed by the remaining m-copy types,
and its inverse root has a closed-form largest eigenvalue. Every ``D_x``
commutes with ``sigma``, so one sandwich ``S M S`` of the moment, with
``S = sigma^(-1/2)``, gives every label's POVM element ``D_x (S M S) D_x``.
Everything is real, and ``sigma`` is solved as its d diagonal blocks of size
d^m in one batched eigendecomposition, never as one dense (m+1)-copy matrix.

``pgm_report`` is the entry point: one report with the overlap quantity, its
(m+1)/d cap, the inverse-root norm and the PGM success probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .haar import exact_moment
from .qla import (
    DensityOperator,
    _diagonal_blocks,
    _inv_sqrt_weights,
    _on_support,
    _support_eigh,
)
from .reporting import ExperimentReport
from .tolerances import ATOL_CHAIN, ATOL_CROSS_PATH, ATOL_STRUCTURAL, REL_RANK_CUTOFF
from .typestates import enumerate_types, phase_sign, type_state


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


def phase_ensemble_state(
    x: int, params: PgmParams, budgets: Budgets = DEFAULT_BUDGETS
) -> DensityOperator:
    """Exact (m+1)-copy moment with phase pattern x on the first copy."""
    if not 0 <= x < params.d:
        raise ValueError(f"label {x} does not fit in {params.n} bits")
    budgets.check_dense_dim(params.d ** params.copies, "phase_ensemble_state")
    moment = exact_moment(params.d, params.copies, budgets).to_dense(budgets)
    diag = _phase_diagonal(x, params)
    return DensityOperator.from_dense(moment * np.outer(diag, diag), (params.n,) * params.copies)


def sigma_unnormalized(params: PgmParams, budgets: Budgets = DEFAULT_BUDGETS) -> np.ndarray:
    """sum_x rho_x, assembled block by block over the first register's basis.

    Projecting the first copy of an (m+1)-type state onto |j> leaves the
    m-copy type state of the remainder, weighted by the multiplicity of j, so

        sigma = (d / C(d+m, m+1)) * sum_j sum_{m-types s}
                ((s_j + 1) / (m+1)) |j><j| (x) |s><s|.
    """
    d, m = params.d, params.m
    dim = d ** params.copies
    budgets.check_dense_dim(dim, "sigma_unnormalized")
    count = math.comb(d + m, m + 1)
    block_dim = d**m
    sigma = np.zeros((dim, dim))
    rest_states = []
    if m:
        for T in enumerate_types(d, m, budgets):
            vec = type_state(T).dense(budgets).real  # type-state amplitudes are real
            rest_states.append((T.elements, np.outer(vec, vec)))
    for j in range(d):
        block = np.zeros((block_dim, block_dim))
        if m:
            for combo, proj in rest_states:
                multiplicity = combo.count(j)
                block += ((multiplicity + 1) / (m + 1)) * proj
        else:
            block = np.ones((1, 1))
        lo, hi = j * block_dim, (j + 1) * block_dim
        sigma[lo:hi, lo:hi] = (d / count) * block
    return sigma


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
    product and row x of signs the diagonal of D_x. The moment is built and
    validated once. sigma is block diagonal over the first register's basis,
    so one batched eigendecomposition of its d real blocks of size d^m gives S,
    the support projector P and the norm of S block by block, with one cutoff
    relative to the largest eigenvalue over all blocks; the moment is cut into
    the matching d x d grid of blocks M_ij, and A_ij = S_i M_ij S_j is one
    batched product. One Q feeds every check that mentions it.
    """
    d, m = params.d, params.m
    block_dim = d**m
    sigma = sigma_unnormalized(params, budgets)
    order, sigma_blocks = _diagonal_blocks(sigma, np.arange(sigma.shape[0]) // block_dim)
    vals, vecs, kept = _support_eigh(sigma_blocks, REL_RANK_CUTOFF)
    inv_root = _on_support(vecs, _inv_sqrt_weights(vals, kept))
    null_projector = np.eye(block_dim) - _on_support(vecs, kept.astype(float))
    moment = DensityOperator.from_dense(
        exact_moment(d, params.copies, budgets).to_dense(budgets), (params.n,) * params.copies
    ).dense.real  # type-state amplitudes are real
    moment_blocks = moment[order[:, None, :, None], order[None, :, None, :]]
    sandwich = inv_root[:, None] @ moment_blocks @ inv_root[None, :]
    # row x of signs is the diagonal of D_x, cut into sigma's blocks
    signs = np.stack([_phase_diagonal(x, params) for x in range(d)])[:, order]
    residual = sandwich * np.tensordot(signs, signs, axes=(0, 0)).swapaxes(1, 2)
    diagonal = np.arange(d)
    residual[diagonal, diagonal] += null_projector - np.eye(block_dim)
    completeness_error = float(np.abs(residual).max())
    if completeness_error > 1e-8:
        raise RuntimeError(
            f"POVM completeness violated by {completeness_error}; "
            "null-space completion is broken"
        )
    q_mean = float(np.einsum("ijab,jiba->", moment_blocks, sandwich))
    null_overlap = float(np.einsum("iab,iba->", null_projector, moment_blocks[diagonal, diagonal]))
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
