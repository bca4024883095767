"""The rank-projector attack: the paper's matching lower bound, on sector blocks.

The attack measures the projector Pi onto the support of the real state
rho0. It accepts rho0 with probability 1 and the ideal state rho1 with
probability at most rank(rho0) / rank(rho1), because rho1 is maximally mixed
on its support. Both states are the one-key chain's ends, built by ``prsg``
on relation classes of sectors, and ``sector_support_overlap`` reads the
ranks and both acceptances off their blocks, one batched ``eigh`` per shape
group. The mixtures' space comes from ``prsg.relation_classes``, the one name
through which every report gets its space.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import prsg
from .budgets import DEFAULT_BUDGETS, Budgets
from .reporting import ExperimentReport
from .sectors import SectorMixture, _check_same_space
from .tolerances import ATOL_CHAIN, REL_RANK_CUTOFF


def sector_support_overlap(a: SectorMixture, b: SectorMixture) -> tuple[int, int, float, float]:
    """Ranks of ``a`` and ``b``, then ``Tr(Pi a)`` and ``Tr(Pi b)`` for Pi onto a's support.

    Eigenvalues count when strictly above ``REL_RANK_CUTOFF`` times the largest
    over all blocks, as for the whole operator. Pi keeps the eigenvectors V of
    a's blocks (one batched ``eigh`` per shape group); Tr(Pi b) sums
    Tr(V^T B V) over the rows. b's spectrum is solved once for a shared group.
    Ranks are exact Python ints.
    """
    _check_same_space(a.space, b.space)
    eigs = [np.linalg.eigh(x) for x in a.blocks]
    vals_b = [
        np.linalg.eigvalsh(y) if y.strides[0] else np.linalg.eigvalsh(y[:1]).repeat(len(y), 0)
        for y in b.blocks
    ]
    top_a = max(float(w.max()) for w, _ in eigs)
    top_b = max(float(w.max()) for w in vals_b)
    rank_a = rank_b = 0
    tr_a = tr_b = 0.0
    rows = zip(a.space.groups, eigs, vals_b, b.blocks, a.weights(), b.weights())
    for group, (w, v), w_b, y, weights_a, weights_b in rows:
        kept = w > REL_RANK_CUTOFF * top_a
        rank_a += group.total(kept.sum(axis=1).tolist())
        rank_b += group.total((w_b > REL_RANK_CUTOFF * top_b).sum(axis=1).tolist())
        tr_a += float(weights_a @ np.where(kept, w, 0.0).sum(axis=1))
        overlaps = np.einsum("pij,pij->pj", v, y @ v)
        tr_b += float(weights_b @ np.where(kept, overlaps, 0.0).sum(axis=1))
    return rank_a, rank_b, tr_a, tr_b


def impossibility_attack(
    params: prsg.PrsParams, budgets: Budgets = DEFAULT_BUDGETS
) -> ExperimentReport:
    """Distinguish the generator by projecting onto the real state's support.

    rho0 holds the t common copies first and the ell generated copies last;
    the attack measures the support projector of rho0. Acceptance of rho0 is
    exactly 1, and acceptance of rho1 is at most rank(rho0)/rank(rho1) because
    rho1 is maximally mixed on its support.

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
    rank0, rank1, tr_rho0, tr_rho1 = sector_support_overlap(
        prsg._sector_chain(0, params, space), prsg._sector_chain(1, params, space)
    )
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
