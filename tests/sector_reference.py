"""Every sector on its own: the reference that the relation classes are checked against.

``sector_space`` has the signature of ``sectors.relation_classes`` and builds
the same ``SectorSpace``, but with one row per sector, its real ``n``-bit
letters and count 1. Patching it in for ``prsg.relation_classes`` runs every
report on the full sector enumeration.
"""

import itertools
import math

import numpy as np

from chslab.budgets import DEFAULT_BUDGETS, Budgets
from chslab.sectors import SectorSpace, ShapeGroup, _partitions, shape_orderings
from chslab.typestates import distinct_orderings


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
    groups = tuple(_shape_group(N, shape) for shape in _partitions(size) if len(shape) <= N)
    return SectorSpace(N, size, n - lam, groups)
