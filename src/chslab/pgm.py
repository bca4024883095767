"""Pretty good measurement for the phase-twirled copies of a Haar state.

The ensemble member for label ``x`` is the exact (m+1)-copy Haar moment ``M``
with the phase pattern ``x`` applied to the first copy (the prefix is the
whole register here): ``rho_x = D_x M D_x`` for a +-1 diagonal ``D_x``, and
``sigma = sum_x rho_x``. ``M`` is the uniform mixture of the C = C(d+m, m+1)
type states, so it is block diagonal over sectors, the multisets of the m+1
register values. Take a sector with r distinct letters of multiplicities
``mu_1, ..., mu_r`` (its shape, a partition of m+1) and, for each letter a,
the unit vector ``g_a`` over the orderings that start with a. ``D_x`` scales
``g_a`` by ``(-1)^(x . a)``, and ``M``'s block is ``|T><T| / C`` with
``|T> = sum_a sqrt(mu_a / (m+1)) g_a``, so on the r-dim span of the ``g_a``:

- the moment is ``M_ab = sqrt(mu_a mu_b) / ((m+1) C)``;
- ``sum_x (-1)^(x . (a xor b)) = d [a == b]``, so sigma is ``d diag(M)``,
  with one eigenvalue ``d mu_a / ((m+1) C) >= d / ((m+1) C)`` per letter,
  positive on the whole span, and is zero on the rest of the sector;
- ``S = sigma^(-1/2)`` commutes with every ``D_x``, so one sandwich
  ``A = S M S`` (it comes out as ``J / d``) gives every label's POVM element
  ``D_x A D_x``, and every label the overlap ``Tr(M A)``.

A sector's block depends only on its shape, and a shape with ``r <= d``
parts stands for ``(d)_r / |Aut mu| > 0`` sectors, so every quantity is a
sum over the partitions of m+1 into at most d parts, the only ones walked.
The type-enumeration budget counts them as they are walked, so a refusal
stops one past the budget. Everything is real and no d-dimensional
object is built. ``phase_ensemble_state`` builds one ``rho_x`` densely, the
independent reference where ``d^(m+1)`` fits the dense budget.

``pgm_report`` is the entry point: one report with the overlap quantity, its
(m+1)/d cap, the inverse-root norm and the PGM success probability.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .haar import exact_moment
from .qla import DensityOperator
from .reporting import ExperimentReport
from .sectors import MAX_NORMALISER, _partitions
from .tolerances import ATOL_CHAIN, ATOL_CROSS_PATH, ATOL_STRUCTURAL
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


def _label_sums(r: int, n: int) -> np.ndarray:
    """``sum_x (-1)^(x . (a xor b))`` over the n-bit labels x, for letters a, b < r.

    Each of the n bits contributes a factor ``1 + (-1)^bit``; letters below r
    leave every bit from ``(r - 1).bit_length()`` on zero, a factor 2 each.
    """
    width = (r - 1).bit_length()
    letters = np.arange(r)
    bits = ((letters[:, None] ^ letters[None, :])[:, :, None] >> np.arange(width)) & 1
    return np.prod(2.0 - 2.0 * bits, axis=2) * 2.0 ** (n - width)


def pgm_report(params: PgmParams, budgets: Budgets = DEFAULT_BUDGETS) -> ExperimentReport:
    """The overlap Q = E_x Tr(rho_x S rho_x S), S = sigma^(-1/2), and the PGM success.

    Q is tested against its (m+1)/d cap, and the largest eigenvalue of S is
    pinned to the closed form sqrt(C(d+m, m+1) (m+1) / d), which is the
    submultiplicativity ingredient that yields the cap.

    The POVM elements are S rho_x S. On each shape's span sigma is positive,
    its entries d mu_a / ((m+1) C) at least d / ((m+1) C), so S is defined on
    the whole span and the elements sum to the identity there; off the spans
    sigma and every rho_x vanish, so the I/d that completes the POVM there
    adds nothing, and the success probability is Q itself. So
    ``guess_probability`` is ``q_mean``, and the ``guess_le_sqrt_q`` flag
    (Q <= sqrt(Q), true for every Q in [0, 1]) holds by construction: it
    stays in the report's schema but checks nothing. The source bound
    for arbitrary measurements is stated as an equality with an unspecified
    constant, which is untestable as written; it is treated as an upper bound
    with the fitted constant reported.

    Everything is read off the multiplicity shapes mu, the partitions of m+1
    into r <= d parts, one r-dim block per shape (see the module docstring).
    A shape stands for (d)_r / |Aut mu| sectors, out of C = C(d+m, m+1), and
    every sector of a shape has the same block. In units of 1/C the moment
    block is ``sqrt(mu_a mu_b) / (m+1)`` and sigma is d times its diagonal, so
    C drops out of A = S M S and of the completeness residual, and enters Q
    and the norm of S only as the weight of each shape. Only those shapes, each
    with (d)_r > 0 sectors, are walked, up to one past the type-enumeration
    budget, whose check counts them; a C beyond the float range is refused.
    """
    n, m, copies = params.n, params.m, params.copies
    max_parts = min(copies, 1 << min(n, copies.bit_length()))  # min(m+1, d), 2^n never formed
    by_parts: dict[int, list[tuple[int, ...]]] = {}
    enumerated = 0
    for enumerated, shape in enumerate(_partitions(copies, max_parts), 1):
        if enumerated > budgets.max_type_count:
            break
        by_parts.setdefault(len(shape), []).append(shape)
    budgets.check_type_count(
        enumerated,
        f"pgm_report: the partitions of m+1={copies} into at most {max_parts} parts "
        "(enumerated up to one past the budget)",
    )
    # C(2^n+m, m+1) >= 2^n, so a larger n is refused before 2^n is formed
    normaliser = math.comb(params.d + m, copies) if n < MAX_NORMALISER.bit_length() else None
    if normaliser is None or normaliser > MAX_NORMALISER:
        raise ValueError(
            f"n={n} is too large for m={m}: the moment's normaliser C(2^n+m, m+1) "
            "is beyond the float range"
        )
    d = params.d
    q_mean = completeness_error = 0.0
    smallest = math.inf
    for r, shapes in by_parts.items():
        tuples = math.perm(d, r)  # r distinct letters, in order
        weight = np.array([
            tuples // math.prod(math.factorial(c) for c in Counter(shape).values()) / normaliser
            for shape in shapes
        ])
        mu = np.array(shapes, dtype=float)
        moment = np.sqrt(mu[:, :, None] * mu[:, None, :]) / copies
        sigma = float(d) * np.diagonal(moment, axis1=1, axis2=2)
        smallest = min(smallest, float(sigma.min()))
        inv_root = 1.0 / np.sqrt(sigma)
        sandwich = inv_root[:, :, None] * moment * inv_root[:, None, :]
        q_mean += float(weight @ np.einsum("kab,kba->k", moment, sandwich))
        residual = sandwich * _label_sums(r, n)
        residual[:, np.arange(r), np.arange(r)] -= 1.0
        completeness_error = max(completeness_error, float(np.abs(residual).max()))
    if completeness_error > 1e-8:
        raise RuntimeError(
            f"POVM completeness violated by {completeness_error}; "
            "the elements D_x S M S D_x do not sum to the identity on the shapes' spans"
        )
    norm_measured = math.sqrt(normaliser / smallest)
    norm_formula = math.sqrt(normaliser * copies / d)
    # 1e-8 absolute, but no finer than the float spacing of a norm that grows like sqrt(C)
    norm_tolerance = max(ATOL_CROSS_PATH, 8 * sys.float_info.epsilon * norm_formula)
    rate = math.sqrt(m / d + m**7 / d**3) if m else 0.0
    quantities = {
        "q_mean": q_mean,
        "inv_sqrt_norm_measured": norm_measured,
        "guess_probability": q_mean,
        "completeness_error": completeness_error,
        "fitted_constant": (q_mean / rate) if rate else float("nan"),
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
        "inv_sqrt_norm_matches_formula": abs(norm_measured - norm_formula) <= norm_tolerance,
        "guess_ge_random": q_mean >= 1.0 / d - ATOL_CHAIN,
        "guess_le_sqrt_q": q_mean <= math.sqrt(q_mean) + ATOL_CHAIN,
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
