"""The single-key hybrid chain H1 -> ... -> H8 and its report, ``prsg-td``.

Hybrids 2 to 7 are each one call of ``sectors.product_mixture`` on the
relation classes of ``ell + t`` registers; hybrids 1 and 8 are the one-key
chain's ends xi_0 and xi_1, built by ``prsg._sector_chain``. Hybrids 2 and 3
average over the ell-fold lam-prefix collision-free types only, the rows
``_conditioned_sectors`` admits. ``single_key_report`` hands the chain to
``sectors.trace_distances`` as a generator of pairs, so it builds each state
when it is needed and holds at most two.

Only ``prsg-td`` (and its alias ``hybrid-scan``) runs this chain, so the
runner loads this module for those alone: a ``multikey-td``, ``impossibility``
or ``commit-hiding`` process never compiles it. Every report gets its space
from ``prsg.relation_classes``, the one name the tests patch.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import prsg
from .budgets import DEFAULT_BUDGETS, Budgets
from .prsg import PrsParams, _chain_pairs, _sector_chain
from .reporting import ExperimentReport
from .sectors import SectorMixture, SectorSpace, product_mixture, trace_distances
from .tolerances import ATOL_CHAIN, ATOL_IDENTITY


def _hybrid_size(index: int, p: PrsParams, cf_count: int) -> int:
    """How many equally likely choices hybrid ``index`` averages over.

    Hybrids 2 and 3 average over the ``cf_count`` prefix collision-free types;
    the others over all types, collision-free types, or pairs of them.
    """
    N, ell, t, size = 1 << p.n, p.ell, p.t, p.ell + p.t
    return {
        1: math.comb(N + size - 1, size),
        2: cf_count,
        3: cf_count,
        4: math.comb(N + size - 1, size),
        5: math.comb(N, size),
        6: math.comb(N, size) * math.comb(size, ell),
        7: math.comb(N, ell) * math.comb(N, t),
        8: math.comb(N + ell - 1, ell) * math.comb(N + t - 1, t),
    }[index]


def _empty_hybrid(index: int, p: PrsParams) -> ValueError:
    """The error for a hybrid with nothing to average over, the same on every route."""
    if index in (2, 3):
        condition = f"{p.ell}-fold {p.lam}-prefix collision-free"
    else:
        condition = f"collision-free {p.n}-bit"
    return ValueError(
        f"empty conditioned set: no {condition} types of size {p.ell + p.t} exist"
    )


def _conditioned_sectors(space: SectorSpace, p: PrsParams, budgets: Budgets) -> list[np.ndarray]:
    """Per shape group, which rows are ell-fold lam-prefix collision-free.

    The vectorized form of ``is_l_fold_prefix_cf`` over every row at once.
    """
    subsets = np.array(list(itertools.combinations(range(space.size), p.ell)), dtype=np.int64)
    budgets.check_subset_pairs(
        len(subsets) * len(subsets), f"is_l_fold_prefix_cf(t={space.size}, ell={p.ell})"
    )
    masks = []
    for group in space.groups:
        prefixes = group.elements() >> space.shift
        folds = np.sort(np.bitwise_xor.reduce(prefixes[:, subsets], axis=-1), axis=1)
        masks.append(np.all(folds[:, 1:] != folds[:, :-1], axis=1))
    return masks


def _cf_count(space: SectorSpace, cf: list[np.ndarray]) -> int:
    """How many sectors are ell-fold lam-prefix collision-free, exactly."""
    return sum(group.total(mask.tolist()) for group, mask in zip(space.groups, cf))


def _sector_hybrid(
    index: int,
    p: PrsParams,
    space: SectorSpace,
    cf: list[np.ndarray] | None = None,
    cf_count: int = 0,
) -> SectorMixture:
    """Hybrid ``index`` of 2..7 in sector form; hybrids 2 and 3 need ``cf`` and ``cf_count``.

    One row of ``product_mixture`` arguments per hybrid, over the ranges of
    all registers, of the ``ell`` generated copies and of the ``t`` common
    copies. Hybrids 2 and 3 admit the collision-free rows ``cf``, which stand
    for ``cf_count = _cf_count(space, cf)`` sectors. Hybrids 1 and 8 are the
    one-key chain's ends, ``_sector_chain(0 | 1)``.
    """
    whole, first, rest = (0, space.size), (0, p.ell), (p.ell, space.size)
    normaliser = _hybrid_size(index, p, cf_count)
    if normaliser == 0:
        raise _empty_hybrid(index, p)
    # index: (type factors, folded keys, sorted keys, ranges of distinct letters)
    factors, folds, sorts, distinct = {
        2: ((whole,), (first,), (), ()),
        3: ((whole,), (), (first,), ()),
        4: ((whole,), (), (first,), ()),
        5: ((whole,), (), (first,), (whole,)),
        6: ((first, rest), (), (first,), (whole,)),
        7: ((first, rest), (), (first,), (first, rest)),
    }[index]
    admitted = cf if index in (2, 3) else None
    return product_mixture(space, normaliser, factors, folds, sorts, distinct, admitted)


_CONSECUTIVE = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]


def single_key_report(params: PrsParams, budgets: Budgets = DEFAULT_BUDGETS) -> ExperimentReport:
    """Exact distance between the real and ideal experiments plus the hybrid chain.

    The real state is hybrid 1 (keyed phases on a uniform type) and the ideal
    state is hybrid 8 (two independent types), the one-key chain's ends xi_0
    and xi_1; the report carries every consecutive-hybrid distance and the
    claimed decay rates for the steps that are not exact equalities. When no
    prefix collision-free type exists the conditioned hybrids 2 and 3 are
    undefined and the chain fields are left out, with a note; so are they
    when fewer than ell + t strings exist, which empties hybrids 5 to 7.
    """
    lam, n, ell, t = params.lam, params.n, params.ell, params.t
    quantities: dict[str, float] = {}
    flags: dict[str, bool] = {}
    notes: list[str] = []

    space = prsg.relation_classes(n, lam, ell + t, budgets)
    cf = _conditioned_sectors(space, params, budgets)
    cf_count = _cf_count(space, cf)
    empty = [i for i in range(2, 8) if _hybrid_size(i, params, cf_count) == 0]
    chain = (_sector_hybrid(j, params, space, cf, cf_count) for j in range(2, 8) if not empty)
    pairs = _chain_pairs(_sector_chain(0, params, space), chain, _sector_chain(1, params, space))
    quantities["td_real_ideal"], *steps = trace_distances(pairs)
    # keep the quantity schema stable: without a chain its fields exist but are empty
    for (i, j), step in zip(_CONSECUTIVE, steps or [None] * len(_CONSECUTIVE)):
        quantities[f"td_h{i}_h{j}"] = step
    if empty:
        notes.append(
            f"hybrid chain unavailable: {_empty_hybrid(empty[0], params)}; "
            "only the direct real/ideal distance is reported"
        )
        quantities["sum_consecutive"] = None
    else:
        step_sum = sum(steps)
        quantities["sum_consecutive"] = step_sum
        flags["td_le_sum_of_steps"] = quantities["td_real_ideal"] <= step_sum + ATOL_CHAIN
        flags["h2_h3_equivalent"] = quantities["td_h2_h3"] < ATOL_IDENTITY
        flags["h5_h6_equivalent"] = quantities["td_h5_h6"] < ATOL_IDENTITY

    rate = (t + ell) ** (2 * ell) / 2**lam
    bounds = {
        "rate_h1_h2": rate,
        "rate_h3_h4": rate,
        "rate_h4_h5": (t + ell) ** 2 / 2**n,
        "rate_h6_h7": t * ell / 2**n,
        "rate_h7_h8": (t**2 + ell**2) / 2**n,
        "rate_total": rate,
    }
    notes.append("register order: generated copies first, then common copies")
    return ExperimentReport(
        experiment="prsg-td",
        params={"lam": lam, "n": n, "ell": ell, "t": t},
        quantities=quantities,
        bounds=bounds,
        flags=flags,
        notes=notes,
    )
