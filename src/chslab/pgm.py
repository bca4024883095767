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
The type-enumeration budget is checked on their exact count, capped one
past the budget, before any is walked. Everything is real and no d-dimensional
object is built. The tests build each ``rho_x`` densely, the independent
reference where ``d^(m+1)`` fits the dense budget.

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


def _label_sums(r: int, n: int) -> np.ndarray:
    """``sum_x (-1)^(x . (a xor b))`` over the n-bit labels x, for letters a, b < r.

    Each of the n bits contributes a factor ``1 + (-1)^bit``; letters below r
    leave every bit from ``(r - 1).bit_length()`` on zero, a factor 2 each.
    """
    width = (r - 1).bit_length()
    letters = np.arange(r)
    bits = ((letters[:, None] ^ letters[None, :])[:, :, None] >> np.arange(width)) & 1
    return np.prod(2.0 - 2.0 * bits, axis=2) * 2.0 ** (n - width)


# Words (8 bytes) of walked shapes held before they are folded into the report's
# sums, a shape of r parts taking r + 7 with its tuple header and list slot; and
# entries of each (shapes, r, r) array of one fold.
_PENDING = 1 << 21
_BATCH = 1 << 18


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


def _shape_terms(
    shapes: list[tuple[int, ...]], n: int, normaliser: int
) -> tuple[float, float, float]:
    """Q's terms, the smallest sigma entry and the completeness residual of shapes of r parts.

    In units of 1/C, C the ``normaliser`` (see ``pgm_report``). A shape's
    weight is its ``(d)_r / |Aut mu|`` sectors over C, ``|Aut mu|`` the product
    over its parts of each part's position in its run of equal parts.
    """
    r, copies, d = len(shapes[0]), sum(shapes[0]), 1 << n
    parts = np.array(shapes)  # exact: int64, or Python ints beyond its range
    first = np.ones(parts.shape, dtype=bool)
    first[:, 1:] = parts[:, 1:] != parts[:, :-1]
    index = np.arange(r)
    runs = index + 1 - np.maximum.accumulate(np.where(first, index, 0), axis=1)
    auts = np.prod(runs, axis=1, dtype=float).tolist()  # exact below 2^53
    for i in np.flatnonzero(np.array(auts) >= 2.0**53).tolist():
        auts[i] = math.prod(runs[i].tolist())
    tuples = math.perm(d, r)  # r distinct letters, in order
    exact = {aut: tuples // int(aut) / normaliser for aut in set(auts)}
    weight = np.array([exact[aut] for aut in auts])
    mu = parts.astype(float)
    moment = mu[:, :, None] * mu[:, None, :]
    np.sqrt(moment, out=moment)
    moment /= copies
    sigma = float(d) * np.diagonal(moment, axis1=1, axis2=2)
    inv_root = 1.0 / np.sqrt(sigma)
    sandwich = inv_root[:, :, None] * moment
    sandwich *= inv_root[:, None, :]
    q = float(weight @ np.einsum("kab,kba->k", moment, sandwich))
    del moment
    residual = sandwich
    residual *= _label_sums(r, n)
    residual[:, index, index] -= 1.0
    np.abs(residual, out=residual)
    return q, float(sigma.min()), float(residual.max())


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
    with (d)_r > 0 sectors, are walked, once the type-enumeration budget has
    admitted their count (``_shape_count``, exact up to one past the budget)
    and C is within the float range.
    The walk folds its shapes into each part count's sums as it goes, so
    what it holds does not grow with the budget.
    """
    n, m, copies = params.n, params.m, params.copies
    max_parts = min(copies, 1 << min(n, copies.bit_length()))  # min(m+1, d), 2^n never formed
    normaliser = _normaliser(n, m)
    # Per part count, in the order the walk meets it: the shapes not yet folded
    # and Q's terms so far. Once _PENDING words are held, every count is folded.
    pending: dict[int, list[tuple[int, ...]]] = {}
    q_terms: dict[int, float] = {}
    smallest, completeness_error, held = math.inf, 0.0, 0

    def fold() -> None:
        nonlocal smallest, completeness_error, held
        for r, shapes in pending.items():
            step = max(1, _BATCH // (r * r))
            for i in range(0, len(shapes), step):
                q, low, residual = _shape_terms(shapes[i : i + step], n, normaliser)
                q_terms[r] += q
                smallest = min(smallest, low)
                completeness_error = max(completeness_error, residual)
            shapes.clear()
        held = 0

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
    for shape in _partitions(copies, max_parts):
        r = len(shape)
        if r not in pending:
            pending[r], q_terms[r] = [], 0.0
        pending[r].append(shape)
        held += r + 7
        if held >= _PENDING:
            fold()
    fold()
    if completeness_error > 1e-8:
        raise RuntimeError(
            f"POVM completeness violated by {completeness_error}; "
            "the elements D_x S M S D_x do not sum to the identity on the shapes' spans"
        )
    q_mean, d = sum(q_terms.values()), params.d
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
