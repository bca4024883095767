"""Mixtures stored as one real block per relation class of sectors.

When every register has the same width, a type state lives on the orderings
of one multiset of register values, its *sector*. Every state of the security
proof is a key-averaged mixture of products of type states, so it is block
diagonal over sectors, and ``product_mixture`` writes its block on a sector in
the basis of the sector's distinct orderings; its docstring states the one
block convention.

Sectors that share one multiplicity shape (``(2, 1)`` for ``{a, a, b}``) form
a group. The keys are prefix XORs and sorted multisets, so within a group a
sector's block depends only on the GF(2)-linear relations among its letters'
``lam``-bit prefixes, and the weights only on the shape. Even-weight
relations are the relations among the differences ``x_i - x_1``, a subspace
``V`` of ``GF(2)^(r-1)`` for ``r`` letters, and ``V`` also says which letters
share a prefix. ``relation_classes`` therefore enumerates, per shape, the
subspaces ``V`` in reduced row echelon form, merges those that differ by a
swap of letters of equal multiplicity (their blocks are conjugate), and gives
each class one representative row over a reduced width, weighted by the exact
number of sectors it stands for. The cost depends on ``lam`` and the shape,
not on ``n``, and a space never has more rows than sectors.

A trace distance is one batched ``eigvalsh`` per group and a support
projection one batched ``eigh``, each row weighted by its count; a group
whose rows share one block is solved once. Every sector on its own, each
with count 1, is the same structure; the tests build it as the independent
reference.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .tolerances import REL_RANK_CUTOFF
from .typestates import distinct_orderings

# The largest normaliser whose reciprocal is a normal float: 2**1022.
MAX_NORMALISER = int(1 / sys.float_info.min)


def _partitions(size: int, max_parts: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of at most ``max_parts`` positive integers summing to ``size``.

    Each has sectors over ``max_parts`` letters; heads from ``ceil(size / max_parts)`` up yield one.
    """
    if size == 0:
        yield ()
        return
    for head in range(min(size, largest or size), -(-size // max_parts) - 1, -1):
        for tail in _partitions(size - head, max_parts - 1, head):
            yield (head,) + tail


def shape_orderings(shape: tuple[int, ...]) -> np.ndarray:
    """(dim, sum(shape)) the letter each distinct ordering puts at each position."""
    pattern = tuple(np.repeat(np.arange(len(shape)), shape).tolist())
    return np.array(distinct_orderings(pattern), dtype=np.int64)


@dataclass(frozen=True, eq=False)
class ShapeGroup:
    """Rows of sectors with one multiplicity shape, each standing for many sectors.

    ``letters[c]`` holds row c's representative distinct values, letter ``i``
    occurring ``shape[i]`` times. ``orderings[o]`` holds, position by position,
    the letter that ordering ``o`` puts there; it is the same for every row.
    Row c stands for ``counts[c]`` sectors, an exact Python int.
    """

    shape: tuple[int, ...]
    letters: np.ndarray  # (rows, len(shape))
    orderings: np.ndarray  # (dim, sum(shape))
    counts: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.orderings.shape[0]

    def elements(self) -> np.ndarray:
        """(rows, size) each row's multiset, one entry per copy."""
        return self.letters[:, np.repeat(np.arange(len(self.shape)), self.shape)]

    def weights(self) -> np.ndarray:
        """(rows,) sectors per row, each a correctly rounded float."""
        return np.array([float(count) for count in self.counts])

    def total(self, per_row) -> int:
        """The exact sum over sectors of an integer given per row (a rank, a mask)."""
        return sum(c * k for c, k in zip(self.counts, per_row))


@dataclass(frozen=True, eq=False)
class SectorSpace:
    """Every sector of ``size`` registers over ``N`` letters, by shape group.

    A letter's ``lam``-bit prefix is ``letter >> shift``.
    """

    N: int
    size: int
    shift: int
    groups: tuple[ShapeGroup, ...]


def subspaces(m: int, max_dim: int) -> Iterator[tuple[int, ...]]:
    """Every subspace of GF(2)^m of dimension at most ``max_dim``, once each.

    Each is given by the m columns of its reduced row echelon basis, column j
    as the integer whose bit i is row i's entry. A pivot column is a unit
    vector; any other column is free in the rows whose pivot lies left of it.
    """
    for k in range(min(m, max_dim) + 1):
        for pivots in itertools.combinations(range(m), k):
            yield from itertools.product(
                *(
                    (1 << pivots.index(j),) if j in pivots else range(1 << bisect(pivots, j))
                    for j in range(m)
                )
            )


def _canonical(prefixes: tuple[int, ...]) -> tuple[int, ...]:
    """The ``subspaces`` form of the difference relations among ``prefixes``.

    Translates the first prefix to 0 and row-reduces the rest: row i of the
    matrix holds bit i of every other prefix, column j at bit ``m - 1 - j``.
    """
    m = len(prefixes) - 1
    columns = [x ^ prefixes[0] for x in prefixes[1:]]
    basis: dict[int, int] = {}  # pivot bit -> row
    for i in range(max(columns, default=0).bit_length()):
        row = sum(((c >> i) & 1) << (m - 1 - j) for j, c in enumerate(columns))
        for lead in sorted(basis, reverse=True):
            if (row >> lead) & 1:
                row ^= basis[lead]
        if row:
            basis[row.bit_length() - 1] = row
    for lead in sorted(basis):
        for other in basis:
            if other != lead and (basis[other] >> lead) & 1:
                basis[other] ^= basis[lead]
    rows = [basis[lead] for lead in sorted(basis, reverse=True)]
    return tuple(
        sum(((row >> (m - 1 - j)) & 1) << i for i, row in enumerate(rows)) for j in range(m)
    )


def _class_group(
    n: int, lam: int, shape: tuple[int, ...], shift: int, budgets: Budgets
) -> ShapeGroup:
    """The relation classes of one shape of at most ``2^n`` parts.

    The shape is checked against the dense budget: each of its rows becomes a
    dense block with one row and column per distinct ordering.

    For the difference relations V, letter 1 has prefix 0 and letter i + 1 the
    i-th column of V's annihilator basis, so the prefixes span k dimensions.
    The ordered letter tuples with relations V number
    ``2^lam * prod_{i<k} (2^lam - 2^i)`` (the injective maps of the difference
    span into GF(2)^lam) times ``prod_b (2^(n-lam))_{|b|}`` (distinct suffixes
    within each prefix class b), 0 exactly when no sector has relations V; over
    all V they sum to the ``(2^n)_r > 0`` tuples of r <= 2^n distinct letters,
    so the shape has a class. Swapping two letters of equal multiplicity gives
    the same sectors, with conjugate blocks, so one class is an orbit of such
    swaps on the V that occur: its first V is the representative row (letters
    sharing a prefix take suffixes 0, 1, ...), and its tuples divided by the
    automorphism count ``|Aut(shape)|`` are its sectors, exactly.
    """
    ordered = {}
    for columns in subspaces(len(shape) - 1, lam):
        prefixes = (0,) + columns
        count = math.prod((1 << lam) - (1 << i) for i in range(max(prefixes).bit_length()))
        count *= math.prod(math.perm(1 << (n - lam), b) for b in Counter(prefixes).values())
        if count:
            ordered[columns] = count << lam
    dim = math.factorial(sum(shape)) // math.prod(math.factorial(m) for m in shape)
    budgets.check_dense_dim(dim, f"sector blocks of shape {shape}")
    swaps = [i for i in range(len(shape) - 1) if shape[i] == shape[i + 1]]
    aut = math.prod(math.factorial(m) for m in Counter(shape).values())
    rows, counts, seen = [], [], set()
    for columns in ordered:
        if columns in seen:
            continue
        orbit, todo = {columns}, [columns]
        while todo:
            prefixes = (0,) + todo.pop()
            for i in swaps:
                swapped = list(prefixes)
                swapped[i], swapped[i + 1] = prefixes[i + 1], prefixes[i]
                image = _canonical(tuple(swapped))
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        seen |= orbit
        suffixes = Counter()
        letters = []
        for x in (0,) + columns:
            letters.append((x << shift) | suffixes[x])
            suffixes[x] += 1
        rows.append(letters)
        counts.append(sum(ordered[v] for v in orbit) // aut)
    letters = np.array(rows, dtype=np.int64)
    return ShapeGroup(shape, letters, shape_orderings(shape), tuple(counts))


def relation_classes(
    n: int, lam: int, size: int, budgets: Budgets = DEFAULT_BUDGETS
) -> SectorSpace:
    """Every sector of ``size`` registers of ``n`` bits, by relation class of ``lam``-bit prefixes.

    The C(2^n + size - 1, size) sectors are checked against the
    type-enumeration budget, as if each were built, and every shape's block
    dimension against the dense budget before any block is built. Letters are
    at most ``lam + bit_length(size - 1)`` bits wide whatever ``n``.

    A mixture built on these sectors divides by a member count times a block
    dimension, at most ``N (N + 1) ... (N + size - 1)``. When that exceeds
    ``MAX_NORMALISER`` the weights would be subnormal and the class counts
    beyond the float range, so ``n`` is refused with a ``ValueError``.
    """
    N = 1 << n
    budgets.check_type_count(math.comb(N + size - 1, size), f"type enumeration (size {size})")
    if math.perm(N + size - 1, size) > MAX_NORMALISER:
        raise ValueError(
            f"n={n} is too large for {size} registers: "
            "the mixture weights would fall below the normal float range"
        )
    shift = (size - 1).bit_length()
    groups = tuple(_class_group(n, lam, shape, shift, budgets) for shape in _partitions(size, N))
    return SectorSpace(N, size, shift, groups)


@dataclass(frozen=True, eq=False)
class SectorMixture:
    """A mixture by shape group: ``blocks[g][c]`` is row c's ``(d, d)`` block."""

    space: SectorSpace
    blocks: tuple[np.ndarray, ...]

    def trace(self) -> float:
        return float(
            sum(
                group.weights() @ np.trace(block, axis1=1, axis2=2)
                for group, block in zip(self.space.groups, self.blocks)
            )
        )


def product_mixture(
    space: SectorSpace,
    normaliser: int,
    factors: tuple[tuple[int, int], ...],
    folds: tuple[tuple[int, int], ...] = (),
    sorts: tuple[tuple[int, int], ...] = (),
    distinct: tuple[tuple[int, int], ...] = (),
    admitted: list[np.ndarray] | None = None,
) -> SectorMixture:
    """A mixture of products of type states, as blocks ``w(o) * [key(o) == key(o')]``.

    Over orderings ``o, o'`` of every row, with register ranges ``(a, b)``
    for ``[a, b)``. The ``factors`` are consecutive ranges covering every
    register, each holding one type state, so
    ``w(o) = 1 / (normaliser * prod_f arrangements(o[f]))``, correctly rounded
    from the exact Python int ``normaliser``. The key is the XOR of the
    ``lam``-bit prefixes (``letter >> space.shift``) over each range of
    ``folds``, which is what averaging a keyed phase over all keys leaves,
    and the sorted multiset over each range of ``sorts``. Orderings with a
    repeated letter in a range of ``distinct``, and rows outside ``admitted``
    (per group, a ``(rows,)`` mask; None admits every row), weigh 0.

    A row's letters are distinct, so the weights and the multiset keys follow
    from the shape's orderings alone (over all registers, the arrangements
    are the block dimension); only the folds read the letters. A group whose
    rows all have one block stores it as one read-only view (row stride 0),
    which the spectral helpers solve once.
    """
    blocks = []
    for g, group in enumerate(space.groups):
        order, shape = group.orderings, (len(group.counts), group.dim, group.dim)
        arranged = {
            (a, b): group.dim if b - a == space.size else arrangements(order[:, a:b])
            for a, b in {*factors, *distinct}
        }
        weight = reciprocals(normaliser, math.prod(arranged[f] for f in factors))
        for a, b in distinct:
            weight = weight * (arranged[a, b] == math.factorial(b - a))
        block = np.reshape(weight, (-1, 1))  # row o of a block weighs w(o)
        for a, b in sorts:
            key = np.sort(order[:, a:b], axis=1)
            block = (key[:, None] == key[None, :]).all(axis=-1) * block
        for a, b in folds:
            key = np.bitwise_xor.reduce(group.letters[:, order[:, a:b]] >> space.shift, axis=-1)
            block = (key[:, :, None] == key[:, None, :]) * block
        if admitted is not None:
            block = admitted[g][:, None, None] * block
        blocks.append(block if block.shape == shape else np.broadcast_to(block, shape))
    return SectorMixture(space, tuple(blocks))


def _check_same_space(a: SectorMixture, b: SectorMixture) -> None:
    x, y = a.space, b.space
    if x is y:
        return
    same = (x.N, x.size, x.shift, len(x.groups)) == (y.N, y.size, y.shift, len(y.groups))
    if not same or not all(
        g.counts == h.counts and np.array_equal(g.letters, h.letters)
        for g, h in zip(x.groups, y.groups)
    ):
        raise ValueError(f"sector spaces differ: (N, size) = {(x.N, x.size)} vs {(y.N, y.size)}")


def sector_trace_distance(a: SectorMixture, b: SectorMixture) -> float:
    """Half the trace norm of ``a - b``, summed over the rows' blocks, each shared one once."""
    _check_same_space(a, b)
    total = 0.0
    for group, x, y in zip(a.space.groups, a.blocks, b.blocks):
        if x.strides[0] or y.strides[0]:
            norms = np.abs(np.linalg.eigvalsh(x - y)).sum(axis=1)
        else:  # both one shared block (row stride 0): solve it once, a copy per row
            norms = np.abs(np.linalg.eigvalsh(x[:1] - y[:1])).sum(axis=1).repeat(len(x))
        total += float(group.weights() @ norms)
    return 0.5 * total


def sector_support_overlap(a: SectorMixture, b: SectorMixture) -> tuple[int, int, float, float]:
    """Ranks of ``a`` and ``b``, then ``Tr(Pi a)`` and ``Tr(Pi b)`` for Pi onto a's support.

    Eigenvalues count when strictly above ``REL_RANK_CUTOFF`` times the largest
    over all blocks, as for the whole operator. Pi keeps the eigenvectors V of
    a's blocks (one batched ``eigh`` per shape group); Tr(Pi b) sums
    Tr(V^T B V) over the rows. b's spectrum is solved once for a shared group.
    Ranks are exact Python ints.
    """
    _check_same_space(a, b)
    eigs = [np.linalg.eigh(x) for x in a.blocks]
    vals_b = [
        np.linalg.eigvalsh(y) if y.strides[0] else np.linalg.eigvalsh(y[:1]).repeat(len(y), 0)
        for y in b.blocks
    ]
    top_a = max(float(w.max()) for w, _ in eigs)
    top_b = max(float(w.max()) for w in vals_b)
    rank_a = rank_b = 0
    tr_a = tr_b = 0.0
    for group, (w, v), w_b, y in zip(a.space.groups, eigs, vals_b, b.blocks):
        kept = w > REL_RANK_CUTOFF * top_a
        rank_a += group.total(kept.sum(axis=1).tolist())
        rank_b += group.total((w_b > REL_RANK_CUTOFF * top_b).sum(axis=1).tolist())
        weights = group.weights()
        tr_a += float(weights @ np.where(kept, w, 0.0).sum(axis=1))
        overlaps = np.einsum("pij,pij->pj", v, y @ v)
        tr_b += float(weights @ np.where(kept, overlaps, 0.0).sum(axis=1))
    return rank_a, rank_b, tr_a, tr_b


def arrangements(values: np.ndarray) -> np.ndarray:
    """Distinct orderings of each multiset along the last axis, ``m! / prod(mult!)``.

    Position k counts how many positions up to k hold its value; the product
    of those counts is ``prod(mult!)`` whatever the order of the entries.
    """
    m = values.shape[-1]
    same = values[..., :, None] == values[..., None, :]
    return math.factorial(m) // np.tril(same).sum(axis=-1).prod(axis=-1)


def reciprocals(n: int, denominators):
    """``1 / (n * d)`` for a Python int ``n`` and an int or 1-D integer array of ``d``.

    Each value is correctly rounded from the exact integer product, so no
    size of ``n`` overflows.
    """
    if isinstance(denominators, int):
        return 1 / (n * denominators)
    flat = denominators.tolist()
    exact = {d: 1 / (n * d) for d in set(flat)}
    return np.array([exact[d] for d in flat])
