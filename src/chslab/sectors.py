"""Mixtures stored as one real block per sector of register values.

When every register has the same width, a type state lives on the orderings
of one multiset of register values, its *sector*. A mixture of such states
(and of tensor products of them) is block diagonal over sectors, and its block
on a sector S is a matrix in the basis of S's distinct orderings.

The mixtures built from this module have, on every sector, the form
``weight(o) * [key(o) == key(o')]`` over orderings ``o, o'``: a builder only
says, per ordering, which key it carries and which weight. The blocks of all
sectors that share one multiplicity shape (``(2, 1)`` for ``{a, a, b}``) are
stored as one ``(count, d, d)`` array, zero for the sectors a mixture does not
touch, so a trace distance is one batched ``eigvalsh`` per shape.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .typestates import distinct_orderings


def _partitions(size: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of positive integers summing to ``size``."""
    if size == 0:
        yield ()
        return
    for head in range(min(size, largest or size), 0, -1):
        for tail in _partitions(size - head, head):
            yield (head,) + tail


@dataclass(frozen=True, eq=False)
class ShapeGroup:
    """Every sector with one multiplicity shape, in a fixed enumeration order.

    ``letters[c]`` holds sector c's distinct values, the most repeated first
    and equal multiplicities by value, so letter ``i`` occurs ``shape[i]``
    times. ``orderings[o]`` holds, position by position, the letter that
    ordering ``o`` puts there; it is the same for every sector of the shape.
    """

    shape: tuple[int, ...]
    letters: np.ndarray  # (count, len(shape))
    orderings: np.ndarray  # (dim, sum(shape))

    @property
    def count(self) -> int:
        return self.letters.shape[0]

    @property
    def dim(self) -> int:
        return self.orderings.shape[0]

    def values(self) -> np.ndarray:
        """(count, dim, size) register values of every ordering of every sector."""
        return self.letters[:, self.orderings]

    def elements(self) -> np.ndarray:
        """(count, size) each sector's multiset, one entry per copy."""
        return self.letters[:, np.repeat(np.arange(len(self.shape)), self.shape)]


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
    pattern = tuple(np.repeat(np.arange(r), shape).tolist())
    orderings = np.array(distinct_orderings(pattern), dtype=np.int64)
    return ShapeGroup(shape, letters, orderings)


class SectorSpace:
    """Every sector of ``size`` registers over an ``N``-letter alphabet, by shape.

    There is one sector per multiset, C(N + size - 1, size) in all, which is
    checked against the type-enumeration budget before anything is built.
    """

    def __init__(self, N: int, size: int, budgets: Budgets = DEFAULT_BUDGETS):
        budgets.check_type_count(math.comb(N + size - 1, size), f"type enumeration (size {size})")
        self.N = N
        self.size = size
        self.groups = tuple(
            _shape_group(N, shape) for shape in _partitions(size) if len(shape) <= N
        )


@dataclass(frozen=True, eq=False)
class SectorMixture:
    """A mixture given by its blocks, one ``(count, d, d)`` array per shape group."""

    space: SectorSpace
    blocks: tuple[np.ndarray, ...]

    def trace(self) -> float:
        return float(sum(np.trace(block, axis1=1, axis2=2).sum() for block in self.blocks))


Describe = Callable[[ShapeGroup], tuple[np.ndarray, np.ndarray]]


def indicator_mixture(space: SectorSpace, describe: Describe) -> SectorMixture:
    """Blocks ``weight(o) * [key(o) == key(o')]`` on every sector.

    ``describe(group)`` returns the keys, ``(count, dim, k)`` integers compared
    column by column, and the weights, broadcastable to ``(count, dim)``. The
    weight must be equal on orderings with equal keys, so every block is
    symmetric.
    """
    blocks = []
    for group in space.groups:
        keys, weight = describe(group)
        same = np.all(keys[:, :, None, :] == keys[:, None, :, :], axis=-1)
        blocks.append(same * np.broadcast_to(weight, keys.shape[:2])[:, :, None])
    return SectorMixture(space, tuple(blocks))


def sector_trace_distance(a: SectorMixture, b: SectorMixture) -> float:
    """Half the trace norm of ``a - b``, summed block by block."""
    if (a.space.N, a.space.size) != (b.space.N, b.space.size):
        raise ValueError(
            f"sector spaces differ: N={a.space.N}, size={a.space.size} "
            f"vs N={b.space.N}, size={b.space.size}"
        )
    total = 0.0
    for x, y in zip(a.blocks, b.blocks):
        total += float(np.abs(np.linalg.eigvalsh(x - y)).sum())
    return 0.5 * total


def arrangements(values: np.ndarray) -> np.ndarray:
    """Distinct orderings of each multiset along the last axis, ``m! / prod(mult!)``.

    Position k counts how many positions up to k hold its value; the product
    of those counts is ``prod(mult!)`` whatever the order of the entries.
    """
    m = values.shape[-1]
    same = values[..., :, None] == values[..., None, :]
    return math.factorial(m) // np.tril(same).sum(axis=-1).prod(axis=-1)
