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
  ``A = S M S`` gives every label's POVM element ``D_x A D_x``, and every
  label the overlap ``Tr(M A)``. Its entries are
  ``sqrt(mu_a mu_b) / sqrt(d mu_a d mu_b) = 1 / d``: ``A = J / d``, the
  all-ones matrix over d, and ``Tr(M A) = (sum_a sqrt(mu_a))^2 / (d (m+1) C)``;
- the elements sum to ``sum_x D_x (J / d) D_x = I`` on the span, by the
  label sum above, and S's largest eigenvalue is ``sigma``'s smallest entry
  to the power -1/2.

A sector's block depends only on its shape, and a shape with ``r <= d``
parts stands for ``(d)_r / |Aut mu| > 0`` sectors, so every quantity is one
number per shape, summed over the partitions of m+1 into at most d parts,
the only ones walked. The type-enumeration budget is checked on their exact
count, capped one past the budget, before any is walked, and the walk's
exact sector counts must sum to C. Nothing the size of d is built, and
nothing is kept per shape.
The tests build each ``rho_x`` densely, the independent reference where
``d^(m+1)`` fits the dense budget.

``pgm_report`` is the entry point: one report with the overlap quantity, its
(m+1)/d cap, the inverse-root norm and the PGM success probability.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .reporting import ExperimentReport
from .sectors import MAX_NORMALISER, _partitions
from .tolerances import ATOL_CHAIN, ATOL_CROSS_PATH, ATOL_STRUCTURAL


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


def _normaliser(n: int, m: int) -> int | None:
    """The moment's normaliser C(2^n + m, m + 1), or None beyond ``MAX_NORMALISER``.

    Never forms a larger int: C(N, i) grows with i up to N / 2 and is at least
    2^i there, so the product over i stops within about 1022 steps.
    """
    if n >= MAX_NORMALISER.bit_length():  # C(2^n+m, m+1) >= 2^n
        return None
    N = (1 << n) + m
    count = 1
    for i in range(min(m + 1, N - m - 1)):
        count = count * (N - i) // (i + 1)
        if count > MAX_NORMALISER:
            return None
    return count


def _shape_count(size: int, max_parts: int, cap: int) -> int:
    """The partitions of ``size`` into at most ``max_parts`` parts, counted exactly up to ``cap``.

    At most two parts there are ``size // 2 + 1`` of them, and at most three
    ``round((size + 3)^2 / 12)``, a floor for any larger ``max_parts``; so
    past that floor the count is ``cap`` with nothing built, and otherwise
    ``size`` is below ``sqrt(12 cap)``. Then, by conjugation, they are the
    partitions into parts of at most ``max_parts``: ``ways[s]`` counts the
    partitions of s into the part sizes taken so far, and taking part size j
    adds ``ways[s - j]`` to ``ways[s]`` for s ascending, a running sum down
    each column of ``ways`` laid out j to a row. Every count is capped at
    ``cap``, so each is exact below it (floats while ``cap <= 2^53``, Python
    ints beyond), and the count stops once ``size``'s reaches the cap.
    """
    if max_parts <= 2:
        return min(cap, size // 2 + 1 if max_parts == 2 else 1)
    if ((size + 3) ** 2 + 6) // 12 >= cap:
        return cap
    dtype = float if cap <= 2**53 else object
    ways = np.zeros(size + 1, dtype=dtype)
    ways[0] = 1
    for part in range(1, max_parts + 1):
        rows = -(-(size + 1) // part)
        laid = np.zeros(rows * part, dtype=dtype)
        laid[: size + 1] = ways
        ways = np.minimum(np.cumsum(laid.reshape(rows, part), axis=0).reshape(-1)[: size + 1], cap)
        if ways[size] >= cap:
            break
    return int(ways[size])


def pgm_report(params: PgmParams, budgets: Budgets = DEFAULT_BUDGETS) -> ExperimentReport:
    """The overlap Q = E_x Tr(rho_x S rho_x S), S = sigma^(-1/2), and the PGM success.

    Q is tested against its (m+1)/d cap, and the largest eigenvalue of S is
    pinned to the closed form sqrt(C(d+m, m+1) (m+1) / d), which is the
    submultiplicativity ingredient that yields the cap.

    Everything is read off the multiplicity shapes mu, the partitions of m+1
    into r <= d parts, one number per shape (see the module docstring). A
    shape stands for (d)_r / |Aut mu| sectors out of C = C(d+m, m+1),
    ``|Aut mu|`` the product over its parts of each part's position in its
    run of equal parts. On each sector A = S M S is J / d, so Tr(M A) is the
    sum of the moment block's entries over d, and the shape adds
    ``(d)_r / |Aut mu| (sum_a sqrt(mu_a))^2 / (d (m+1) C)`` to Q. Sigma's
    smallest entry is ``d mu_min / ((m+1) C)``, mu_min the smallest part of
    any shape, and its inverse root is the norm of S.

    The POVM elements are D_x A D_x. Entry (a, b) of their sum on a span is
    ``sum_x (-1)^(x . (a xor b)) / d = [a == b]``, so they sum to the
    identity there by construction; off the spans sigma and every rho_x
    vanish, so the I/d that completes the POVM there adds nothing, and the
    success probability is Q itself. So ``completeness_error`` is 0,
    ``guess_probability`` is ``q_mean``, and the ``povm_complete`` and
    ``guess_le_sqrt_q`` flags (Q <= sqrt(Q), true for every Q in [0, 1])
    hold by construction: they stay in the report's schema but check
    nothing. The source bound for arbitrary measurements is stated as an
    equality with an unspecified constant, which is untestable as written;
    it is treated as an upper bound with the fitted constant reported.

    Only the shapes with (d)_r > 0 sectors are walked, once, after the
    type-enumeration budget has admitted their count (``_shape_count``,
    exact up to one past the budget) and C is within the float range. The
    walk holds nothing per shape; its exact sector counts must sum to C, or
    a RuntimeError says that it missed or repeated a shape.
    """
    n, m, copies = params.n, params.m, params.copies
    max_parts = min(copies, 1 << min(n, copies.bit_length()))  # min(m+1, d), 2^n never formed
    normaliser = _normaliser(n, m)
    budgets.check_type_count(
        _shape_count(copies, max_parts, budgets.max_type_count + 1),
        f"pgm_report: the partitions of m+1={copies} into at most {max_parts} parts "
        "(enumerated up to one past the budget)",
    )
    if normaliser is None:
        raise ValueError(
            f"n={n} is too large for m={m}: the moment's normaliser C(2^n+m, m+1) "
            "is beyond the float range"
        )
    d, sectors, q_sum, low = params.d, 0, 0.0, copies
    for shape in _partitions(copies, max_parts):
        aut, run, previous = 1, 0, 0
        for part in shape:
            run = run + 1 if part == previous else 1
            aut *= run
            previous = part
        count = math.perm(d, len(shape)) // aut
        sectors += count
        q_sum += count / normaliser * sum(map(math.sqrt, shape)) ** 2
        low = min(low, shape[-1])
    if sectors != normaliser:
        raise RuntimeError(
            f"the walked shapes stand for {sectors} sectors, not C(2^n+m, m+1) = {normaliser}"
        )
    q_mean, completeness_error = q_sum / (d * copies), 0.0
    smallest = float(d) * (low / copies)  # sigma's smallest entry, in units of 1/C
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
