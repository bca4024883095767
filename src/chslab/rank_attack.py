"""The rank-projector attack: the paper's matching lower bound, counted on key classes.

The attack measures the projector Pi onto the support of the real state
rho0, so it accepts rho0 with probability 1. The ideal state rho1 = M_ell (x)
M_t is ``Pi_sym^ell (x) Pi_sym^t`` over its rank (Harrow, arXiv:1308.6595).
Each key phase ``Z_k^(x)ell (x) I`` of rho0 maps ``Sym^(ell+t)`` into
``Sym^ell (x) Sym^t``, so rho0's support lies inside rho1's and
``Tr(Pi rho1) = rank(rho0) / rank(rho1)`` exactly. Both ranks are counts of
the key classes of the one-key chain's ends, built by ``prsg._sector_chain``
on the space of ``prsg.relation_classes``, the one name through which every
report gets it: nothing is solved.
"""

from __future__ import annotations

import math
import sys

from . import prsg
from .budgets import DEFAULT_BUDGETS, Budgets
from .reporting import ExperimentReport
from .tolerances import ATOL_CHAIN


def impossibility_attack(
    params: prsg.PrsParams, budgets: Budgets = DEFAULT_BUDGETS
) -> ExperimentReport:
    """Distinguish the generator by projecting onto the real state's support.

    rho0 holds the t common copies first and the ell generated copies last.
    Pi accepts rho0 with its kept trace, 1, and rho1 with ``rank(rho0) /
    rank(rho1)``, one correctly rounded ratio of ints, so
    ``tr_pi_rho1_le_rank_ratio`` holds with equality when rank(rho1) matches
    its formula. Swapping the register groups, one unitary on both, makes
    them the one-key chain's ends xi_0 and xi_1. On a sector xi_0 weighs every
    ordering alike, masked to equal prefix XORs of the generated copies, and
    xi_1 by the multiset of the generated copies, its key: each is a positive
    weight on each of its key classes, and each rank their count. Pi keeps
    xi_0 whole, so ``tr_pi_rho0`` is its weights summed over every sector,
    over its normaliser. The advantage ``1 - Tr(Pi rho1)`` is ``(rank(rho1) -
    rank(rho0)) / rank(rho1)``, one correctly rounded ratio of ints.
    """
    lam, n, ell, t = params.lam, params.n, params.ell, params.t
    size = ell + t
    space = prsg.relation_classes(n, lam, size, budgets)
    rank0_formula = 2**lam * math.comb(2**n + size - 1, size)
    rank1_formula = math.comb(2**n + ell - 1, ell) * math.comb(2**n + t - 1, t)
    if max(rank0_formula, rank1_formula) > sys.float_info.max:
        raise ValueError(f"n={n} is too large: the rank formulas exceed the float range")
    xi0, xi1 = (prsg._sector_chain(j, params, space) for j in (0, 1))
    rank0, rank1 = (space.total(rows=xi.classes()[0]) for xi in (xi0, xi1))
    kept = space.total(xi0.weights, space.entry_rows)
    tr_rho1 = rank0 / rank1
    quantities = {
        "tr_pi_rho0": kept / xi0.normaliser,
        "tr_pi_rho1": tr_rho1,
        "advantage": (rank1 - rank0) / rank1,
        "rank_rho0_measured": rank0,
        "rank_rho1_measured": rank1,
    }
    bounds = {
        "rank_rho0_formula": float(rank0_formula),
        "rank_rho1_formula": float(rank1_formula),
        "rank_ratio": rank0 / rank1_formula,
    }
    flags = {
        "tr_pi_rho0_is_one": abs(quantities["tr_pi_rho0"] - 1.0) <= ATOL_CHAIN,
        "tr_pi_rho1_le_rank_ratio": tr_rho1 <= rank0 / rank1_formula + ATOL_CHAIN,
        "rank_rho0_le_formula": rank0 <= rank0_formula,
        "rank_rho1_matches_formula": rank1 == rank1_formula,
    }
    return ExperimentReport(
        experiment="impossibility",
        params={"lam": lam, "n": n, "ell": ell, "t": t},
        quantities=quantities,
        bounds=bounds,
        flags=flags,
        notes=[
            "register order: common copies first, then generated copies",
            "advantage is the computed 1 - Tr(Pi rho1); the source display of the "
            "closed-form advantage reads 1-2^lam where context requires 1-2^(-lam), "
            "treated as a typo",
        ],
    )
