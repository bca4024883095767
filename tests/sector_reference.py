"""Every sector on its own: the reference that the relation classes are checked against.

``partitions`` is the recursive shape walk and ``pairwise_trace_distance``
the one-pair, one-``eigvalsh``-per-group distance: the references that
``sectors._partitions`` and ``sectors.trace_distances`` must match exactly.

``sector_space`` has the signature of ``sectors.relation_classes`` and builds
the same ``SectorSpace``, but with one row per sector, its real ``n``-bit
letters and count 1. Patching it in for ``prsg.relation_classes`` runs every
report on the full sector enumeration.

``hybrid_mixture`` builds any of the eight hybrids in sector form with the
builders of ``hybrids`` and ``prsg``, the form that ``ensembles.hybrid_state``
is checked against one hybrid at a time. ``multikey_mixture`` builds the multi-key chain
state xi_j in sector form the same way, and ``multikey_xi`` builds it as a
PureState ensemble, the reference that the sector form is checked against.
Both get their space from ``prsg.relation_classes``, so a test that patches
it reaches them.
"""

import itertools
import math

import numpy as np

from chslab import hybrids, prsg
from chslab.budgets import DEFAULT_BUDGETS, Budgets
from chslab.ensembles import HybridSpec
from chslab.haar import exact_moment
from chslab.prsg import PrsParams
from chslab.qla import DensityOperator, tensor
from chslab.sectors import SectorMixture, SectorSpace, ShapeGroup, _partitions, shape_orderings
from chslab.typestates import distinct_orderings, enumerate_types, keyed_members


def partitions(size: int, max_parts: int, largest: int | None = None):
    """Non-increasing tuples of at most ``max_parts`` positive integers summing to ``size``."""
    if size == 0:
        yield ()
        return
    for head in range(min(size, largest or size), -(-size // max_parts) - 1, -1):
        for tail in partitions(size - head, max_parts - 1, head):
            yield (head,) + tail


def pairwise_trace_distance(a: SectorMixture, b: SectorMixture) -> float:
    """Half the trace norm of ``a - b``, one ``eigvalsh`` per group of this pair alone.

    Each row's difference is ``((K_a - K_b) - delta K_b) / Z_a`` for kernels
    ``K``, normalisers ``Z`` and ``delta = (Z_a - Z_b) / Z_b``, its norm
    weighted by the row's count over ``Z_a``.
    """
    delta = (a.normaliser - b.normaliser) / b.normaliser
    total = 0.0
    for group, x, y in zip(a.space.groups, a.blocks, b.blocks):
        if x.strides[0] or y.strides[0]:
            norms = np.abs(np.linalg.eigvalsh((x - y) - delta * y)).sum(axis=1)
        else:  # both one shared block (row stride 0): solve it once, a copy per row
            diff = (x[:1] - y[:1]) - delta * y[:1]
            norms = np.abs(np.linalg.eigvalsh(diff)).sum(axis=1).repeat(len(x))
        total += float(np.array([count / a.normaliser for count in group.counts]) @ norms)
    return 0.5 * total


def _shape_group(N: int, shape: tuple[int, ...]) -> ShapeGroup:
    r = len(shape)
    combos = np.array(list(itertools.combinations(range(N), r)), dtype=np.int64).reshape(-1, r)
    # Each distinct assignment of the multiplicities to the r ascending values
    # of a combination is one sector; reorder its values into letter order.
    letters = np.concatenate(
        [
            combos[:, sorted(range(r), key=lambda i: (-assignment[i], i))]
            for assignment in distinct_orderings(shape)
        ]
    )
    return ShapeGroup(shape, letters, shape_orderings(shape), (1,) * len(letters))


def sector_space(n: int, lam: int, size: int, budgets: Budgets = DEFAULT_BUDGETS) -> SectorSpace:
    """One row per multiset of ``size`` values of ``n`` bits, each with count 1."""
    N = 1 << n
    budgets.check_type_count(math.comb(N + size - 1, size), f"type enumeration (size {size})")
    groups = tuple(_shape_group(N, shape) for shape in _partitions(size, N))
    return SectorSpace(N, size, n - lam, groups, {})


def hybrid_mixture(spec: HybridSpec, budgets: Budgets = DEFAULT_BUDGETS) -> SectorMixture:
    """Sector form of ``hybrid_state(spec)``: the same operator, block by block."""
    p = spec.params
    space = prsg.relation_classes(p.n, p.lam, p.ell + p.t, budgets)
    if spec.index in (1, 8):
        return prsg._sector_chain(int(spec.index == 8), p, space)
    cf = hybrids._conditioned_sectors(space, p, budgets) if spec.index in (2, 3) else None
    cf_count = hybrids._cf_count(space, cf) if cf else 0
    return hybrids._sector_hybrid(spec.index, p, space, cf, cf_count)


def multikey_mixture(j: int, params: PrsParams, budgets: Budgets = DEFAULT_BUDGETS):
    """Chain state xi_j on the space ``prsg.relation_classes`` builds (tests patch it)."""
    space = prsg.relation_classes(params.n, params.lam, params.p * params.ell + params.t, budgets)
    return prsg._sector_chain(j, params, space)


def multikey_xi(j: int, params: PrsParams, budgets: Budgets = DEFAULT_BUDGETS) -> DensityOperator:
    """Ensemble form of chain state xi_j: the first j key slots hold independent states."""
    lam, n, ell, t, p = params.lam, params.n, params.ell, params.t, params.p
    N = 1 << n
    keyed_groups = p - j
    keyed_size = keyed_groups * ell + t
    parts: list[DensityOperator] = [exact_moment(N, ell, budgets) for _ in range(j)]
    if keyed_size:
        groups = tuple(tuple(range(g * ell, (g + 1) * ell)) for g in range(keyed_groups))
        types = [T.elements for T in enumerate_types(N, keyed_size, budgets)]
        if groups:
            members = keyed_members(n, lam, groups, types, 1.0 / len(types))
            keyed = DensityOperator((n,) * keyed_size, ensemble=tuple(members))
        else:
            keyed = exact_moment(N, keyed_size, budgets)
        parts.append(keyed)
    state = parts[0]
    for part in parts[1:]:
        state = tensor(state, part)
    return state
