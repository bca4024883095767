"""Mixtures stored as integer class weights on the relation classes of sectors.

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

A mixture is an exact integer normaliser over kernels that depend on neither
``n`` nor ``lam``: ``Pi_sym`` of each type factor in the basis of orderings
(Harrow, arXiv:1308.6595), masked by the keys, so each row's kernel is
``sum_k w_k 1_k 1_k^T`` over its key classes k. A mixture is stored on the
space's entries, one per ordering of each row: the entry's class label and
its integer weight. A row's rank is its count of classes of positive weight
(``SectorMixture.classes``). ``sector_trace_distance`` forms a pair on the
common refinement of its two partitions, one matrix per row of the size of
its class count, and solves them with one ``eigvalsh``. Every sector on its
own, each with count 1, is the same structure; the tests build it, and the
dense kernels, as the independent references.
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


class SectorSpace(NamedTuple):
    """Every sector of ``size`` registers over ``N`` letters, by shape group.

    A letter's ``lam``-bit prefix is ``letter >> shift``. The rows of every
    group, in order, stand for ``counts`` sectors each. An entry is one
    ordering of one row: ``entry_rows`` holds its row and ``in_order`` its
    letters, position by position; a row's entries are consecutive, in the
    order of its group's orderings. ``build`` fills these three from the groups.
    """

    N: int
    size: int
    shift: int
    groups: tuple[ShapeGroup, ...]
    counts: tuple[int, ...]
    entry_rows: np.ndarray  # (entries,)
    in_order: np.ndarray  # (entries, size)

    @classmethod
    def build(cls, N: int, size: int, shift: int, groups: Iterable[ShapeGroup]) -> SectorSpace:
        groups = tuple(groups)
        dims = [g.dim for g in groups for _ in g.counts]
        in_order = [g.letters[:, g.orderings].reshape(-1, size) for g in groups]
        rows = np.arange(len(dims)).repeat(dims)
        counts = tuple(c for g in groups for c in g.counts)
        return cls(N, size, shift, groups, counts, rows, np.concatenate(in_order))

    def total(self, values=None, rows=None) -> int:
        """The exact sum over sectors of an int per row, or per entry of ``rows`` (1 if none)."""
        if rows is not None:  # small ints, exact in float64
            values = np.bincount(rows, values, len(self.counts)).astype(np.int64).tolist()
        return sum(c * k for c, k in zip(self.counts, values))


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

    The shape's count of distinct orderings is checked against the dense
    budget: each of its rows holds one entry per ordering.

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
    type-enumeration budget, as if each were built, and every shape's count of
    orderings against the dense budget before any entry is built. Letters are
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
    return SectorSpace.build(N, size, shift, groups)


class SectorMixture(NamedTuple):
    """A mixture over the entries of its space: each entry's class label and integer weight.

    Row c's block is ``sum_k w_k 1_k 1_k^T / normaliser`` over its classes k,
    the entries of row c that share a label, each of weight ``w_k``, an int of
    at most ``s!`` on ``s`` registers. A row's labels follow those of the rows
    before it.
    """

    space: SectorSpace
    labels: np.ndarray
    weights: np.ndarray
    normaliser: int

    def row_weights(self) -> np.ndarray:
        """Each row's sectors over the normaliser, one correctly rounded ratio."""
        return np.array([c / self.normaliser for c in self.space.counts])

    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, sizes)``: the row and size of each class, by label.

        A block holds each class of positive weight as one rank-one piece.
        """
        sizes = np.bincount(self.labels)
        rows = np.empty_like(sizes)
        rows[self.labels] = self.space.entry_rows
        return rows, sizes


def _runs(keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The entries sorted by ``keys``, the first major, and where each run of equal keys starts."""
    order = np.lexsort(keys[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[0] = True
    for key in keys:
        key = key[order]
        starts[1:] |= key[1:] != key[:-1]
    return order, starts


def product_mixture(
    space: SectorSpace,
    normaliser: int,
    factors: Ranges,
    folds: Ranges = (),
    sorts: Ranges = (),
    distinct: Ranges = (),
    admitted: np.ndarray | None = None,
) -> SectorMixture:
    """A mixture of products of type states: on each row, the kernel ``w(o) * [key(o) == key(o')]``.

    Over orderings ``o, o'`` of every row, with register ranges ``(a, b)``
    for ``[a, b)``. The ``factors`` are consecutive ranges covering every
    register, each holding one type state, so the integer ``w(o)`` is the
    product of the multiplicity factorials in each factor, ``(b - a)! /
    arrangements(o[f])``, and the mixture's normaliser is ``normaliser *
    prod_f (b - a)!``. The key is the XOR of the letters' ``lam``-bit
    prefixes over each range of ``folds``, which is what averaging a keyed
    phase over all keys leaves, and the sorted multiset over each range of
    ``sorts``. Orderings with a repeated letter in a range of ``distinct``,
    and rows outside ``admitted`` (a ``(rows,)`` mask; None admits every
    row), weigh 0.

    The entries of a row that share every key are one class, labelled in
    order of row and keys. Each factor's multiset follows from the row and
    the keys, so ``w`` is constant on a class.
    """
    letters = space.in_order
    ranges = {*factors, *distinct}
    repeats = {(a, b): math.factorial(b - a) // arrangements(letters[:, a:b]) for a, b in ranges}
    weights = math.prod([repeats[f] for f in factors] + [repeats[r] == 1 for r in distinct])
    if admitted is not None:
        weights = weights * admitted[space.entry_rows]
    keys = [space.entry_rows]
    for a, b in sorts:
        keys += list(np.sort(letters[:, a:b], axis=1).T)
    keys += [np.bitwise_xor.reduce(letters[:, a:b] >> space.shift, axis=1) for a, b in folds]
    order, starts = _runs(keys)
    labels = np.empty_like(order)
    labels[order] = np.cumsum(starts) - 1
    scale = math.prod(math.factorial(b - a) for a, b in factors)
    return SectorMixture(space, labels, weights, normaliser * scale)


def _check_same_space(x: SectorSpace, y: SectorSpace) -> None:
    if x is y:
        return
    if not (x[:3] == y[:3] and x.counts == y.counts and np.array_equal(x.in_order, y.in_order)):
        raise ValueError(f"sector spaces differ: (N, size) = {x[:2]} vs {y[:2]}")


def _gram(a: SectorMixture, b: SectorMixture, delta: float) -> np.ndarray:
    """``(K_a - K_b) - delta K_b`` as one ``R x R`` matrix per row.

    Both kernels are sums of ``w 1_k 1_k^T`` over their classes k, so on a
    row their difference lives in the span of the indicators of the classes
    r of the common refinement, orthogonal with squared norms ``|r|``. In
    that basis it is ``sqrt|r| ((A - B) - delta B) sqrt|r'|``, with
    ``A[r, r']`` the weight of ``r`` when ``r, r'`` share a class of ``a``
    (``B`` alike) and ``A - B`` exact in ints; rows with fewer than the most
    classes ``R`` are padded with zeros.
    """
    order, starts = _runs([a.labels, b.labels])
    first = order[starts]
    row = a.space.entry_rows[first]
    position = np.arange(len(first)) - np.searchsorted(row, row)
    shape = (len(a.space.counts), int(position.max()) + 1)
    classes = np.full((2, *shape), -1)
    classes[:, row, position] = a.labels[first], b.labels[first]
    kernels = np.zeros((2, *shape), dtype=np.int64)
    kernels[:, row, position] = a.weights[first], b.weights[first]
    kernels = (classes[..., :, None] == classes[..., None, :]) * kernels[..., :, None]
    sizes = np.zeros(shape)
    sizes[row, position] = np.diff(np.append(np.flatnonzero(starts), len(order)))
    gram = (kernels[0] - kernels[1]).astype(float)
    if delta:
        gram -= delta * kernels[1]
    gram *= np.sqrt(sizes[:, :, None] * sizes[:, None, :])
    return gram


def sector_trace_distance(a: SectorMixture, b: SectorMixture) -> float:
    """Half the trace norm of ``a - b``, two mixtures on one space.

    The difference is ``(K_a - K_b) - delta K_b`` on kernels ``K``, with
    ``delta = (Z_a - Z_b) / Z_b`` rounded once from the normalisers ``Z``,
    written by ``_gram`` as one matrix per row on the classes of the two
    mixtures' common refinement. One ``eigvalsh`` solves them, and each row's
    norm is weighted by ``a``'s rows.
    """
    _check_same_space(a.space, b.space)
    delta = (a.normaliser - b.normaliser) / b.normaliser
    norms = np.abs(np.linalg.eigvalsh(_gram(a, b, delta))).sum(axis=1)
    return 0.5 * float(a.row_weights() @ norms)


def arrangements(values: np.ndarray) -> np.ndarray:
    """Distinct orderings of each multiset along the last axis, ``m! / prod(mult!)``.

    Position k counts how many positions up to k hold its value; the product
    of those counts is ``prod(mult!)`` whatever the order of the entries.
    """
    m = values.shape[-1]
    same = values[..., :, None] == values[..., None, :]
    same &= np.arange(m)[:, None] >= np.arange(m)  # the positions up to k
    return math.factorial(m) // same.sum(axis=-1).prod(axis=-1)

