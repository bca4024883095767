"""Phase-keyed state generator: its exact hybrid chain and multi-key chain.

The generator applies a key-indexed Z-phase pattern to the first ``lam`` bits
of the shared state. The real experiment hands out ``ell`` generated copies
next to ``t`` untouched copies of the shared state; the ideal experiment hands
out ``ell`` copies of an independent state instead. Both sides reduce to exact
finite mixtures of (phased) type states, so every distance in the eight-step
hybrid chain between them is computed exactly, with no sampling.

Both reports build those mixtures block by block over relation classes of
sectors (``sectors.relation_classes``), so the cost does not grow with ``n``.
Each hybrid and each multi-key chain state is one call of
``sectors.product_mixture``: which register ranges hold one type state, which
ranges are keyed (their prefixes folded) or independent (their multisets
sorted), which orderings or rows are admitted, and the exact member count.
Hybrids 1 and 8 are built as the one-key chain's ends xi_0 and xi_1. A report
hands its chain to ``sectors.trace_distances`` as a generator of pairs, so it
builds each state when it is needed and holds at most two.

The rank-projector attack on the same chain ends is in ``rank_attack``, and
the PureState-ensemble form of the hybrids, the tests' reference route, in
``ensembles``; neither is loaded by a chain report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .reporting import ExperimentReport
from .sectors import (
    SectorMixture,
    SectorSpace,
    product_mixture,
    relation_classes,
    sector_trace_distance,
    trace_distances,
)
from .tolerances import ATOL_CHAIN, ATOL_IDENTITY


@dataclass(frozen=True)
class PrsParams:
    """Key bits, state qubits, adversary copies, common copies, and key count."""

    lam: int
    n: int
    ell: int
    t: int
    p: int = 1

    def __post_init__(self):
        if self.lam < 1:
            raise ValueError("need at least one key bit")
        if self.n < self.lam:
            raise ValueError(f"state qubits n={self.n} must be at least lam={self.lam}")
        if self.ell < 1 or self.t < 0 or self.p < 1:
            raise ValueError("need ell >= 1, t >= 0, p >= 1")


def __getattr__(name: str):
    # perfbench's traced replays call prsg.hybrid_state(prsg.HybridSpec(...)); these two
    # names resolve from ``ensembles`` on first use until ROADMAP item 5 retires the replays.
    if name in ("hybrid_state", "HybridSpec"):
        from . import ensembles

        return getattr(ensembles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Exact hybrid mixtures
# ---------------------------------------------------------------------------


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


def _sector_chain(j: int, p: PrsParams, space: SectorSpace) -> SectorMixture:
    """Multi-key chain state xi_j in sector form; with one key, xi_0, xi_1 are hybrids 1, 8.

    The key count is read off the space: ell-register key groups, then t
    common copies. The first j groups hold independent ell-copy moments
    (sorted keys), the others are keyed (folded keys), and the remaining
    registers, the keyed groups and the common copies, hold one type state.
    """
    N, ell, size = space.N, p.ell, space.size
    groups = tuple((g * ell, (g + 1) * ell) for g in range((size - p.t) // ell))
    rest = size - j * ell
    normaliser = math.comb(N + ell - 1, ell) ** j * math.comb(N + rest - 1, rest)
    factors = groups[:j] + ((j * ell, size),)
    return product_mixture(space, normaliser, factors, folds=groups[j:], sorts=groups[:j])


# ---------------------------------------------------------------------------
# Trace-distance reports
# ---------------------------------------------------------------------------

_CONSECUTIVE = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]


def _chain_pairs(first: SectorMixture, middle, last: SectorMixture):
    """The chain's ends ``(first, last)``, then, if ``middle`` has a state, its links.

    The links join ``first``, the states of ``middle`` (built as they are
    read) and ``last``; no state is held past its last pair.
    """
    yield first, last
    linked = False
    for state in middle:
        yield first, state
        first, linked = state, True
    if linked:
        yield first, last


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

    space = relation_classes(n, lam, ell + t, budgets)
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


def multi_key_report(params: PrsParams, budgets: Budgets = DEFAULT_BUDGETS) -> ExperimentReport:
    """Chain between the p-key real state and fully independent ideal state.

    Builds every intermediate state exactly and checks that each link is no
    larger than the single-key distance with the remaining shared copies
    counted into the common-copy budget, which is the monotonicity step of the
    chain argument. Here the real state is called rho and the ideal state
    sigma, one fixed convention for the whole artifact.
    """
    lam, n, ell, t, p = params.lam, params.n, params.ell, params.t, params.p
    space = relation_classes(n, lam, p * ell + t, budgets)
    chain = (_sector_chain(j, params, space) for j in range(1, p))
    pairs = _chain_pairs(_sector_chain(0, params, space), chain, _sector_chain(p, params, space))
    td_total, *links = trace_distances(pairs)
    quantities: dict[str, float] = {}
    flags: dict[str, bool] = {}
    step_sum = 0.0
    all_links_ok = True
    for j, td_j in enumerate(links or [td_total]):  # one key: the chain's one link is its ends
        # the single-key chain xi_0 -> xi_1 on the (p - j) ell + t registers left
        single_params = replace(params, t=(p - j - 1) * ell + t)
        single_space = space if j == 0 else relation_classes(n, lam, (p - j) * ell + t, budgets)
        single = sector_trace_distance(
            _sector_chain(0, single_params, single_space),
            _sector_chain(1, single_params, single_space),
        )
        quantities[f"td_xi{j}_xi{j + 1}"] = td_j
        quantities[f"single_key_td_j{j}"] = single
        all_links_ok &= td_j <= single + ATOL_CHAIN
        step_sum += td_j
    quantities["td_real_ideal"] = td_total
    quantities["sum_links"] = step_sum
    flags["links_le_single_key"] = bool(all_links_ok)
    flags["td_le_sum_of_links"] = td_total <= step_sum + ATOL_CHAIN
    return ExperimentReport(
        experiment="multikey-td",
        params={"lam": lam, "n": n, "ell": ell, "t": t, "p": p},
        quantities=quantities,
        bounds={"rate_total": p * (p * ell + t) ** (2 * ell) / 2**lam},
        flags=flags,
        notes=[
            "convention: rho is the real (keyed) state and sigma the ideal one",
            "register order: p generated groups first, then common copies",
        ],
    )
