"""The rank-projector attack: the paper's matching lower bound, on sector blocks.

The attack measures the projector Pi onto the support of the real state
rho0, so it accepts rho0 with probability 1. The ideal state rho1 = M_ell (x)
M_t is ``Pi_sym^ell (x) Pi_sym^t`` over its rank (Harrow, arXiv:1308.6595).
Each key phase ``Z_k^(x)ell (x) I`` of rho0 maps ``Sym^(ell+t)`` into
``Sym^ell (x) Sym^t``, so rho0's support lies inside rho1's and
``Tr(Pi rho1) = rank(rho0) / rank(rho1)`` exactly: ``sector_support`` reads
the ranks off each state's blocks with ``eigvalsh`` alone. Both states are
the one-key chain's ends, built by ``prsg`` on the space of
``prsg.relation_classes``, the one name through which every report gets it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import prsg
from .budgets import DEFAULT_BUDGETS, Budgets
from .reporting import ExperimentReport
from .sectors import SectorMixture
from .tolerances import ATOL_CHAIN, REL_RANK_CUTOFF


def sector_support(x: SectorMixture) -> tuple[int, float]:
    """The rank of ``x`` as an exact Python int, and the trace it keeps there.

    Eigenvalues count when strictly above ``REL_RANK_CUTOFF`` times the largest
    over all blocks, as for the whole operator. Each group's blocks are one
    ``eigvalsh``, and a shared group (row stride 0) is solved once.
    """
    vals = [
        np.linalg.eigvalsh(y) if y.strides[0] else np.linalg.eigvalsh(y[:1]).repeat(len(y), 0)
        for y in x.blocks
    ]
    top = max(float(w.max()) for w in vals)
    rank, kept_trace = 0, 0.0
    for group, w, weights in zip(x.space.groups, vals, x.weights()):
        kept = w > REL_RANK_CUTOFF * top
        rank += group.total(kept.sum(axis=1).tolist())
        kept_trace += float(weights @ np.where(kept, w, 0.0).sum(axis=1))
    return rank, kept_trace


def impossibility_attack(
    params: prsg.PrsParams, budgets: Budgets = DEFAULT_BUDGETS
) -> ExperimentReport:
    """Distinguish the generator by projecting onto the real state's support.

    rho0 holds the t common copies first and the ell generated copies last;
    the attack measures the support projector of rho0. Acceptance of rho0 is
    its kept trace, 1, and acceptance of rho1 is ``rank(rho0) / rank(rho1)``
    with both ranks measured, one correctly rounded ratio of ints. So
    ``tr_pi_rho1_le_rank_ratio`` holds with equality whenever the measured
    rank(rho1) matches its formula.

    rho0 and rho1 are hybrids 1 and 8 with the register groups swapped: one
    unitary on both, which keeps the ranks and carries Pi along, so the sector
    blocks of hybrids 1 and 8, the one-key chain's ends xi_0 and xi_1
    (generated copies first), give the same numbers.
    """
    lam, n, ell, t = params.lam, params.n, params.ell, params.t
    space = prsg.relation_classes(n, lam, ell + t, budgets)
    rank0_formula = 2**lam * math.comb(2**n + ell + t - 1, ell + t)
    rank1_formula = math.comb(2**n + ell - 1, ell) * math.comb(2**n + t - 1, t)
    if max(rank0_formula, rank1_formula) > sys.float_info.max:
        raise ValueError(f"n={n} is too large: the rank formulas exceed the float range")
    rank0, tr_rho0 = sector_support(prsg._sector_chain(0, params, space))
    rank1 = sector_support(prsg._sector_chain(1, params, space))[0]
    tr_rho1 = rank0 / rank1
    quantities = {
        "tr_pi_rho0": tr_rho0,
        "tr_pi_rho1": tr_rho1,
        "advantage": 1.0 - tr_rho1,
        "rank_rho0_measured": rank0,
        "rank_rho1_measured": rank1,
    }
    bounds = {
        "rank_rho0_formula": float(rank0_formula),
        "rank_rho1_formula": float(rank1_formula),
        "rank_ratio": rank0 / rank1_formula,
    }
    flags = {
        "tr_pi_rho0_is_one": abs(tr_rho0 - 1.0) <= ATOL_CHAIN,
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
