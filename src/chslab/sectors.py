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
``lam``-bit prefixes, and its orderings' weights only on the shape. Even-weight
relations are the relations among the differences ``x_i - x_1``, a subspace
``V`` of ``GF(2)^(r-1)`` for ``r`` letters, and ``V`` also says which letters
share a prefix. ``relation_classes`` therefore enumerates, per shape, the
subspaces ``V`` in reduced row echelon form, merges those that differ by a
swap of letters of equal multiplicity (their blocks are conjugate), and gives
each class one representative row over a reduced width, weighted by the exact
number of sectors it stands for. The cost depends on ``lam`` and the shape,
not on ``n``, and a space never has more rows than sectors.

A mixture is an exact integer normaliser over integer kernels that depend on
neither ``n`` nor ``lam``: ``Pi_sym`` of each type factor in the basis of
orderings (Harrow, arXiv:1308.6595), masked by the keys. ``trace_distances``
stacks a report's difference blocks by group, formed from the kernels before
any rounding, one per row or one for a group whose rows share a block; once
the stacks hold ``_STACK`` entries, each group's stack is one ``eigvalsh``.
The arrays that depend only on the space (multiplicities, key masks) are built
once per space, in ``SectorSpace.tables``. Every sector on its own, each with
count 1, is the same structure; the tests build it as the independent
reference. ``key_classes`` counts a kernel's rank-one pieces with no block.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect
from collections import Counter
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .states import distinct_orderings

# The largest normaliser whose reciprocal is a normal float: 2**1022.
MAX_NORMALISER = int(1 / sys.float_info.min)
Ranges = tuple[tuple[int, int], ...]  # register ranges (a, b) for [a, b)
# Difference-block entries gathered from pairs before each group's stack is solved.
_STACK = 1 << 15


def _partitions(size: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of at most ``max_parts`` positive integers summing to ``size``.

    In reverse lexicographic order; each has sectors over ``max_parts``
    letters. Each step lowers by one the last part ``p`` whose rest (the parts
    after it, plus the one taken from it) fits in the parts left at no more
    than ``p - 1`` each, then refills the rest greedily: ``p - 1`` as often as
    it fits, then the remainder.
    """
    parts = [size] if size else []
    while True:
        yield tuple(parts)
        rest = 1
        while parts and rest > (parts[-1] - 1) * (max_parts - len(parts)):
            rest += parts.pop()
        if not parts:
            return
        low = parts.pop() - 1
        parts += [low] * (rest // low + 1) + [rest % low] * (rest % low > 0)


def shape_orderings(shape: tuple[int, ...]) -> np.ndarray:
    """(dim, sum(shape)) the letter each distinct ordering puts at each position."""
    pattern = tuple(np.repeat(np.arange(len(shape)), shape).tolist())
    return np.array(distinct_orderings(pattern), dtype=np.int64)


class ShapeGroup(NamedTuple):
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

    def total(self, values=None, rows=None) -> int:
        """The exact sum over sectors of an int per row, or per entry of ``rows`` (1 if none)."""
        if rows is not None:  # small ints, exact in float64
            values = np.bincount(rows, values, len(self.counts)).astype(np.int64).tolist()
        return sum(c * k for c, k in zip(self.counts, values))


class SectorSpace(NamedTuple):
    """Every sector of ``size`` registers over ``N`` letters, by shape group.

    A letter's ``lam``-bit prefix is ``letter >> shift``. ``tables`` starts
    empty and holds the arrays ``_table`` builds once for the space.
    """

    N: int
    size: int
    shift: int
    groups: tuple[ShapeGroup, ...]
    tables: dict


def _keys(space: SectorSpace, g: int, kind: str, a: int, b: int) -> np.ndarray:
    """Each ordering's key over the registers ``[a, b)`` of group ``g``, along the last axis.

    ``sorted``: (dim, b - a) its sorted letters; ``folded``: (rows, dim, 1) the
    XOR of its letters' ``lam``-bit prefixes, ``letter >> space.shift``.
    """
    values = space.groups[g].orderings[:, a:b]
    if kind == "sorted":
        return np.sort(values, axis=1)
    letters = np.take(space.groups[g].letters, values, axis=1) >> space.shift
    return np.bitwise_xor.reduce(letters, axis=-1, keepdims=True)


def _table(space: SectorSpace, g: int, kind: str, a: int = 0, b: int = 0):
    """One array that depends only on group ``g`` of ``space``, built once per space.

    Over the registers ``[a, b)``: ``repeats``, each ordering's product of multiplicity
    factorials there, as floats; ``sorted`` and ``folded``, whether two orderings share
    their ``_keys`` there, (dim, dim) and (rows, dim, dim) with each row's block contiguous.
    """
    key = (g, kind, a, b)
    if key not in space.tables:
        if kind == "repeats":
            values = space.groups[g].orderings[:, a:b]
            space.tables[key] = (math.factorial(b - a) // arrangements(values)).astype(float)
        else:  # each ordering's key there, compared along its last axis
            values = _keys(space, g, kind, a, b)
            space.tables[key] = (values[..., :, None, :] == values[..., None, :, :]).all(axis=-1)
    return space.tables[key]


def key_classes(space: SectorSpace, folds: Ranges = (), sorts: Ranges = ()) -> list:
    """Per group, ``(rows, sizes)``: the row and size of each class of orderings sharing every key.

    The keys are ``product_mixture``'s; a row's classes are consecutive. A block that
    weighs a class's orderings alike holds it as one rank-one piece.
    """
    classes, ranges = [], [("sorted", r) for r in sorts] + [("folded", r) for r in folds]
    for g, group in enumerate(space.groups):
        shape = (len(group.counts), group.dim)
        columns = [np.arange(shape[0])[:, None, None]]  # each ordering's row, then its keys
        columns += [_keys(space, g, kind, *r) for kind, r in ranges]
        table = np.concatenate([np.broadcast_to(c, shape + c.shape[-1:]) for c in columns], -1)
        unique, sizes = np.unique(table.reshape(-1, table.shape[-1]), axis=0, return_counts=True)
        classes.append((unique[:, 0], sizes))
    return classes


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

    Every mixture the reports build here (xi_j, hybrids 2 to 7, the multi-key
    links' one-key pairs) has a normaliser of at most ``N (N + 1) ... (N +
    size - 1)`` and weighs a row by its count, at least 1, over it. Past
    ``MAX_NORMALISER`` a weight could be subnormal, so ``n`` is refused.
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
    return SectorSpace(N, size, shift, groups, {})


class SectorMixture(NamedTuple):
    """A mixture by shape group: row c's ``(d, d)`` block is ``blocks[g][c] / normaliser``.

    The kernels' integer entries, at most ``s!`` on ``s`` registers, are exact
    in float64 while ``s <= 18``, past any block that fits in memory: at
    ``s = 19`` two letters already have C(19, 9) = 92,378 orderings.
    """

    space: SectorSpace
    blocks: tuple[np.ndarray, ...]
    normaliser: int

    def weights(self) -> list[np.ndarray]:
        """Per group, each row's sectors over the normaliser, one correctly rounded ratio."""
        return [np.array([c / self.normaliser for c in g.counts]) for g in self.space.groups]

    def trace(self) -> float:
        traces = (np.trace(block, axis1=1, axis2=2) for block in self.blocks)
        return float(sum(w @ tr for w, tr in zip(self.weights(), traces)))


def product_mixture(
    space: SectorSpace,
    normaliser: int,
    factors: Ranges,
    folds: Ranges = (),
    sorts: Ranges = (),
    distinct: Ranges = (),
    admitted: list[np.ndarray] | None = None,
) -> SectorMixture:
    """A mixture of products of type states, as kernels ``w(o) * [key(o) == key(o')]``.

    Over orderings ``o, o'`` of every row, with register ranges ``(a, b)``
    for ``[a, b)``. The ``factors`` are consecutive ranges covering every
    register, each holding one type state, so the integer ``w(o)`` is the
    product of the multiplicity factorials in each factor, ``(b - a)! /
    arrangements(o[f])``, and the mixture's normaliser is ``normaliser *
    prod_f (b - a)!``. The key is ``_keys``'s prefix XOR over each range of
    ``folds``, which is what averaging a keyed phase over all keys leaves,
    and the sorted multiset over each range of ``sorts``. Orderings with a
    repeated letter in a range of ``distinct``, and rows outside ``admitted``
    (per group, a ``(rows,)`` mask; None admits every row), weigh 0.

    A row's letters are distinct, so ``w`` and the multiset keys follow from
    the shape's orderings alone. Each is a ``_table`` of the space, built on
    its first use. The blocks are read-only; a group whose rows all have one
    block stores it once, as a view with row stride 0, solved once.
    """
    blocks = []
    for g, group in enumerate(space.groups):
        repeats = {r: _table(space, g, "repeats", *r) for r in {*factors, *distinct}}
        weight = math.prod([repeats[f] for f in factors] + [repeats[r] == 1 for r in distinct])
        same = True  # whether two orderings share every key, in an admitted row
        for kind, ranges in (("sorted", sorts), ("folded", folds)):
            for r in ranges:
                same = same & _table(space, g, kind, *r)
        if admitted is not None:
            same = same & admitted[g][:, None, None]
        block = same * np.reshape(weight, (-1, 1))  # row o of a block weighs w(o)
        block.flags.writeable = False
        if block.ndim == 2:  # every row's block: one read-only view with row stride 0
            shape = (len(group.counts), group.dim, group.dim)
            block = np.ndarray(shape, block.dtype, block, 0, (0, *block.strides))
        blocks.append(block)
    scale = math.prod(math.factorial(b - a) for a, b in factors)
    return SectorMixture(space, tuple(blocks), normaliser * scale)


def _check_same_space(x: SectorSpace, y: SectorSpace) -> None:
    if x is not y and not (
        x[:3] == y[:3]
        and len(x.groups) == len(y.groups)
        and all(
            g.counts == h.counts and np.array_equal(g.letters, h.letters)
            for g, h in zip(x.groups, y.groups)
        )
    ):
        raise ValueError(f"sector spaces differ: (N, size) = {x[:2]} vs {y[:2]}")


def _difference(x: np.ndarray, y: np.ndarray, delta: float) -> np.ndarray:
    """``(x - y) - delta * y``, exact up to the product; one row for a shared group."""
    if not (x.strides[0] or y.strides[0]):  # both one shared block (row stride 0)
        x, y = x[:1], y[:1]
    diff = x - y
    step = max(1, _STACK // diff.shape[-1] ** 2)  # the product in slices of _STACK entries
    for i in range(0, len(diff) if delta else 0, step):
        diff[i : i + step] -= delta * y[i : i + step]
    return diff


def trace_distances(pairs: Iterable[tuple[SectorMixture, SectorMixture]]) -> list[float]:
    """Half the trace norm of ``a - b`` for each pair ``(a, b)`` of mixtures on one space.

    Each difference block is ``(K_a - K_b) - delta K_b`` on kernels ``K``, with
    ``delta = (Z_a - Z_b) / Z_b`` rounded once from the normalisers ``Z``. The
    pairs are read one at a time and none is kept: each leaves its difference
    blocks, one per row of each group or one for a group where both mixtures
    share a block (row stride 0). Once they hold ``_STACK`` entries, each
    group's blocks are solved by one ``eigvalsh``, and each pair's norms are
    weighted by ``a``'s rows and summed group by group, in order, so a
    distance does not depend on the pairs solved with it.
    """
    space, batch, distances = None, [], []

    def solve() -> None:
        norms = [  # a stack of one array is solved without a copy
            np.abs(np.linalg.eigvalsh(s[0] if len(s) == 1 else np.concatenate(s))).sum(axis=1)
            for s in zip(*(diffs for _, diffs in batch))
        ]
        for weights, diffs in batch:
            total = 0.0
            for g, (w, d) in enumerate(zip(weights, diffs)):  # a shared block counts per row
                total += float(w @ norms[g][: len(d)].repeat(len(w) // len(d)))
                norms[g] = norms[g][len(d) :]
            distances.append(0.5 * total)
        batch.clear()

    for a, b in pairs:
        space = space or a.space
        for mixture in (a, b):
            _check_same_space(space, mixture.space)
        delta = (a.normaliser - b.normaliser) / b.normaliser
        batch.append((a.weights(), [_difference(x, y, delta) for x, y in zip(a.blocks, b.blocks)]))
        del a, b, mixture  # so the iterable can free this pair while it builds the next
        if sum(d.size for _, diffs in batch for d in diffs) >= _STACK:
            solve()
    solve()
    return distances


def sector_trace_distance(a: SectorMixture, b: SectorMixture) -> float:
    """Half the trace norm of ``a - b``: ``trace_distances`` of the one pair."""
    return trace_distances([(a, b)])[0]


def arrangements(values: np.ndarray) -> np.ndarray:
    """Distinct orderings of each multiset along the last axis, ``m! / prod(mult!)``.

    Position k counts how many positions up to k hold its value; the product
    of those counts is ``prod(mult!)`` whatever the order of the entries.
    """
    m = values.shape[-1]
    same = values[..., :, None] == values[..., None, :]
    same &= np.arange(m)[:, None] >= np.arange(m)  # the positions up to k
    return math.factorial(m) // same.sum(axis=-1).prod(axis=-1)

