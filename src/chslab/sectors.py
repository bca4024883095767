"""Mixtures stored as one real block per distinct sector block.

When every register has the same width, a type state lives on the orderings
of one multiset of register values, its *sector*. A mixture of such states
(and of tensor products of them) is block diagonal over sectors, and its block
on a sector S is a matrix in the basis of S's distinct orderings.

The mixtures built from this module have, on every sector, the form
``weight(o) * [key(o) == key(o')]`` over orderings ``o, o'``: a builder only
says, per ordering, which key it carries and which weight. Sectors that share
one multiplicity shape (``(2, 1)`` for ``{a, a, b}``) form a group, and within
a group the block depends only on which orderings hold equal keys and on the
weights, so most sectors repeat a few blocks. Each group stores its distinct
blocks as one ``(u, d, d)`` array and, per sector, the index of its block. A
trace distance is one batched ``eigvalsh`` over the distinct pairs of blocks
and a support projection one batched ``eigh`` over the distinct blocks, each
weighted by how many sectors carry it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .tolerances import REL_RANK_CUTOFF
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
    """A mixture by shape group: its distinct blocks and the block of each sector.

    ``blocks[g]`` is ``(u, d, d)`` and ``index[g]`` is ``(count,)``: sector c of
    group g has block ``blocks[g][index[g][c]]``.
    """

    space: SectorSpace
    blocks: tuple[np.ndarray, ...]
    index: tuple[np.ndarray, ...]

    def trace(self) -> float:
        return float(
            sum(
                np.bincount(index, minlength=len(block)) @ np.trace(block, axis1=1, axis2=2)
                for block, index in zip(self.blocks, self.index)
            )
        )


Describe = Callable[[ShapeGroup], tuple[np.ndarray, np.ndarray]]


def _weighted_rank(counts: np.ndarray, kept: np.ndarray) -> int:
    """Kept eigenvalues per block times the block's sector count, in Python ints."""
    return sum(c * k for c, k in zip(counts.tolist(), kept.sum(axis=1).tolist()))


def _pack(keys: np.ndarray) -> np.ndarray:
    """(count, dim) int64 codes, equal exactly where the ``(count, dim, k)`` key rows are.

    Columns are packed as digits. When the next digit would overflow int64, the
    codes packed so far and the column are first replaced by their ranks; those
    are below ``count * dim``, so their product fits for any array that fits in
    memory.
    """
    code, span = np.zeros(keys.shape[:2], dtype=np.int64), 1
    for col in keys.transpose(2, 0, 1):
        base = int(col.max()) + 1
        if span * base > np.iinfo(np.int64).max:
            code, col = (
                np.unique(x, return_inverse=True)[1].reshape(x.shape) for x in (code, col)
            )
            span, base = int(code.max()) + 1, int(col.max()) + 1
        code, span = code * base + col, span * base
    return code


def _first_holders(keys: np.ndarray) -> np.ndarray:
    """(count, dim) for every ordering, the first ordering of its sector with an equal key."""
    code = _pack(keys)
    count, dim = code.shape
    sector = np.arange(count)[:, None]
    # A stable sort of each sector's codes puts equal keys in runs, ordering by ordering.
    order = np.argsort(code, axis=1, kind="stable")
    ranked = code[sector, order]
    starts = np.ones((count, dim), dtype=bool)
    starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    run_start = np.maximum.accumulate(np.where(starts, np.arange(dim), 0), axis=1)
    first = np.empty_like(order)
    first[sector, order] = order[sector, run_start]
    return first


def _row_hash(rows: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each int64 row: its entries times fixed odd multipliers, summed.

    The multiplier of column i is splitmix64(i + 1) made odd.
    """
    with np.errstate(over="ignore"):
        z = np.arange(1, rows.shape[1] + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        multipliers = (z ^ (z >> np.uint64(31))) | np.uint64(1)
        return (rows.view(np.uint64) * multipliers).sum(axis=1, dtype=np.uint64)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, index)``: the first row of each class of equal rows, and each row's class.

    The hash only orders the rows; rows join a class when they equal its
    previous row bit for bit, so unequal rows never share a class (a hash
    collision could at worst split one). Classes are numbered by first row.
    """
    order = np.argsort(_row_hash(rows), kind="stable")
    ranked = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    first = order[starts]
    renumber = np.empty(len(first), dtype=np.int64)
    renumber[np.argsort(first)] = np.arange(len(first))
    index = np.empty(len(rows), dtype=np.int64)
    index[order] = renumber[np.cumsum(starts) - 1]
    return np.sort(first), index


def indicator_mixture(space: SectorSpace, describe: Describe) -> SectorMixture:
    """Blocks ``weight(o) * [key(o) == key(o')]`` on every sector.

    ``describe(group)`` returns the keys, ``(count, dim, k)`` non-negative
    integers compared row by row, and the weights, broadcastable to
    ``(count, dim)``. The weight must be equal on orderings with equal keys, so
    every block is symmetric. Two sectors share a block when, ordering by
    ordering, the first ordering with an equal key and the weight's bits agree.
    """
    blocks, indices = [], []
    for group in space.groups:
        keys, weight = describe(group)
        first = _first_holders(keys)
        weight = np.ascontiguousarray(np.broadcast_to(weight, first.shape), dtype=np.float64)
        reps, index = _distinct_rows(np.concatenate([first, weight.view(np.int64)], axis=1))
        first, weight = first[reps], weight[reps]
        blocks.append((first[:, :, None] == first[:, None, :]) * weight[:, :, None])
        indices.append(index)
    return SectorMixture(space, tuple(blocks), tuple(indices))


def _check_same_space(a: SectorMixture, b: SectorMixture) -> None:
    spaces = [(m.space.N, m.space.size) for m in (a, b)]
    if spaces[0] != spaces[1]:
        raise ValueError(f"sector spaces differ: (N, size) = {spaces[0]} vs {spaces[1]}")


def _pairs(
    index_a: np.ndarray, index_b: np.ndarray, size_b: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``(index_a, index_b)`` pairs over a group's sectors, with their counts."""
    pairs, counts = np.unique(index_a * size_b + index_b, return_counts=True)
    return pairs // size_b, pairs % size_b, counts


def sector_trace_distance(a: SectorMixture, b: SectorMixture) -> float:
    """Half the trace norm of ``a - b``, summed over the distinct pairs of blocks."""
    _check_same_space(a, b)
    total = 0.0
    for x, y, ia, ib in zip(a.blocks, b.blocks, a.index, b.index):
        pa, pb, counts = _pairs(ia, ib, len(y))
        total += float(counts @ np.abs(np.linalg.eigvalsh(x[pa] - y[pb])).sum(axis=1))
    return 0.5 * total


def sector_support_overlap(a: SectorMixture, b: SectorMixture) -> tuple[int, int, float, float]:
    """Ranks of ``a`` and ``b``, then ``Tr(Pi a)`` and ``Tr(Pi b)`` for Pi onto a's support.

    Eigenvalues count when strictly above ``REL_RANK_CUTOFF`` times the largest
    over all blocks, as for the whole operator. Pi keeps the eigenvectors V of
    a's blocks (one batched ``eigh`` per shape group's distinct blocks); Tr(Pi b)
    sums Tr(V^T B V) over the distinct pairs of blocks. Each block counts once
    per sector that carries it.
    """
    _check_same_space(a, b)
    eigs = [np.linalg.eigh(x) for x in a.blocks]
    vals_b = [np.linalg.eigvalsh(y) for y in b.blocks]
    top_a = max(float(w.max()) for w, _ in eigs)
    top_b = max(float(w.max()) for w in vals_b)
    rank_a = rank_b = 0
    tr_a = tr_b = 0.0
    for (w, v), w_b, y, ia, ib in zip(eigs, vals_b, b.blocks, a.index, b.index):
        kept = w > REL_RANK_CUTOFF * top_a
        counts_a = np.bincount(ia, minlength=len(w))
        counts_b = np.bincount(ib, minlength=len(w_b))
        rank_a += _weighted_rank(counts_a, kept)
        rank_b += _weighted_rank(counts_b, w_b > REL_RANK_CUTOFF * top_b)
        tr_a += float(counts_a @ np.where(kept, w, 0.0).sum(axis=1))
        pa, pb, counts = _pairs(ia, ib, len(y))
        overlaps = np.einsum("pij,pij->pj", v[pa], y[pb] @ v[pa])
        tr_b += float(counts @ np.where(kept[pa], overlaps, 0.0).sum(axis=1))
    return rank_a, rank_b, tr_a, tr_b


def arrangements(values: np.ndarray) -> np.ndarray:
    """Distinct orderings of each multiset along the last axis, ``m! / prod(mult!)``.

    Position k counts how many positions up to k hold its value; the product
    of those counts is ``prod(mult!)`` whatever the order of the entries.
    """
    m = values.shape[-1]
    same = values[..., :, None] == values[..., None, :]
    return math.factorial(m) // np.tril(same).sum(axis=-1).prod(axis=-1)
