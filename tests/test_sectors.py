"""The relation-class route against the full sector enumeration and the ensemble routes.

The reports build their mixtures on ``sectors.relation_classes``. Patching in
``sector_reference.sector_space`` builds the same mixtures on every sector
with count 1. ``ensembles.hybrid_state`` and ``sector_reference.multikey_xi``
build them as PureState ensembles; ``gram_trace_distance`` and the dense
``trace_distance`` compare those. Every quantity must agree across the routes
to 1e-12.
"""

import contextlib
import itertools
import math
import re
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sector_reference import (
    hybrid_mixture,
    kernels,
    multikey_mixture,
    multikey_xi,
    pairwise_trace_distance,
    partitions,
    sector_space,
    trace,
)

from chslab import prsg, runner, sectors
from chslab.budgets import DEFAULT_BUDGETS, BudgetExceeded, Budgets
from chslab.cli import main
from chslab.commitments import hiding_distance
from chslab.ensembles import HybridSpec, hybrid_state
from chslab.hybrids import (
    _CONSECUTIVE,
    _cf_count,
    _conditioned_sectors,
    _sector_hybrid,
    single_key_report,
)
from chslab.prsg import PrsParams, _sector_chain, multi_key_report
from chslab.qla import gram_trace_distance, trace_distance
from chslab.rank_attack import impossibility_attack
from chslab.sectors import (
    SectorMixture,
    SectorSpace,
    _canonical,
    _partitions,
    arrangements,
    relation_classes,
    sector_trace_distance,
    shape_orderings,
    subspaces,
    trace_distances,
)
from chslab.tolerances import REL_RANK_CUTOFF

ATOL = 1e-12


def _on_sectors(call, *args):
    """``call(*args)`` with every mixture built on the full sector enumeration.

    Every report, the rank attack's included, and every ``sector_reference``
    builder gets its space from ``prsg.relation_classes``.
    """
    with mock.patch.object(prsg, "relation_classes", sector_space):
        return call(*args)


def _sector_dense(mixture) -> np.ndarray:
    """The full N^size matrix of a mixture on the full sector enumeration."""
    N, size = mixture.space.N, mixture.space.size
    dense = np.zeros((N**size, N**size))
    radix = N ** np.arange(size - 1, -1, -1)
    for group, block in zip(mixture.space.groups, kernels(mixture)):
        flat = group.letters[:, group.orderings] @ radix  # (count, dim)
        dense[flat[:, :, None], flat[:, None, :]] = block / mixture.normaliser
    return dense


@pytest.mark.parametrize(
    "lam, n, ell, t",
    [
        (1, 2, 1, 1),
        (2, 3, 1, 0),
        (2, 3, 1, 1),
        (2, 3, 1, 2),
        (1, 3, 1, 2),  # empty conditioned set: only the direct distance
        (3, 3, 1, 2),
        (1, 2, 2, 0),
        (2, 2, 2, 1),
        (3, 4, 2, 1),
    ],
)
def test_single_key_report_matches_gram_route(lam, n, ell, t):
    params = PrsParams(lam=lam, n=n, ell=ell, t=t)
    report = single_key_report(params)
    states = {}
    for index in range(1, 9):
        try:
            states[index] = hybrid_state(HybridSpec(index, params))
        except ValueError as err:
            assert "empty conditioned set" in str(err)
    expected = {"td_real_ideal": gram_trace_distance(states[1], states[8])}
    if 2 in states:
        for i, j in _CONSECUTIVE:
            expected[f"td_h{i}_h{j}"] = gram_trace_distance(states[i], states[j])
    else:
        assert report.quantities["td_h1_h2"] is None
    for key, value in expected.items():
        assert report.quantities[key] == pytest.approx(value, abs=ATOL), key


@pytest.mark.parametrize(
    "lam, n, ell, t, p",
    [(2, 3, 1, 1, 1), (2, 3, 1, 1, 2), (2, 3, 1, 0, 2), (1, 2, 2, 1, 2), (2, 2, 1, 2, 3)],
)
def test_multi_key_links_match_ensemble_route(lam, n, ell, t, p):
    params = PrsParams(lam=lam, n=n, ell=ell, t=t, p=p)
    report = multi_key_report(params)
    xis = [multikey_xi(j, params, DEFAULT_BUDGETS) for j in range(p + 1)]
    for j in range(p):
        assert report.quantities[f"td_xi{j}_xi{j + 1}"] == pytest.approx(
            gram_trace_distance(xis[j], xis[j + 1]), abs=ATOL
        )
    assert report.quantities["td_real_ideal"] == pytest.approx(
        gram_trace_distance(xis[0], xis[p]), abs=ATOL
    )


def _relabelling(letters: np.ndarray, size: int) -> np.ndarray:
    """Basis permutation that maps every register's value x to ``letters[x]``."""
    N = len(letters)
    digits = np.indices((N,) * size).reshape(size, -1)
    radix = N ** np.arange(size - 1, -1, -1)
    return letters[digits].T @ radix


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 3),
    lam_offset=st.integers(0, 2),
    ell=st.integers(1, 2),
    t=st.integers(0, 2),
    mask=st.integers(0, 7),
    data=st.data(),
)
def test_sector_gram_and_dense_routes_agree(n, lam_offset, ell, t, mask, data):
    lam = max(1, n - lam_offset)
    N, size = 1 << n, ell + t
    assume(N**size <= 1024)
    params = PrsParams(lam=lam, n=n, ell=ell, t=t)
    classes, sector, dense, ensemble = {}, {}, {}, {}
    for index in range(1, 9):
        spec = HybridSpec(index, params)
        try:
            ensemble[index] = hybrid_state(spec)
        except ValueError as err:
            for route in (hybrid_mixture, lambda s: _on_sectors(hybrid_mixture, s)):
                with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                    route(spec)
            continue
        classes[index] = hybrid_mixture(spec)
        sector[index] = _on_sectors(hybrid_mixture, spec)
        dense[index] = _sector_dense(sector[index])
        assert np.abs(dense[index] - ensemble[index].to_dense()).max() < ATOL
    chain = len(sector) == 8
    pairs = [(1, 8)] + (_CONSECUTIVE if chain else [])
    for i, j in pairs:
        by_sector = sector_trace_distance(sector[i], sector[j])
        assert by_sector == pytest.approx(gram_trace_distance(ensemble[i], ensemble[j]), abs=ATOL)
        assert by_sector == pytest.approx(trace_distance(ensemble[i], ensemble[j]), abs=1e-10)
        assert sector_trace_distance(classes[i], classes[j]) == pytest.approx(by_sector, abs=ATOL)
        assert pairwise_trace_distance(sector[i], sector[j]) == pytest.approx(by_sector, abs=ATOL)
    report = single_key_report(params)
    assert (report.quantities["td_h1_h2"] is not None) == chain
    if chain:
        assert report.flags["td_le_sum_of_steps"]
    # Relabelling the values of every register, by XOR-ing a mask into the
    # prefix or by permuting the suffixes under each prefix, leaves the real
    # state, and so the real/ideal distance, unchanged.
    suffixes = 1 << (n - lam)
    by_prefix = [data.draw(st.permutations(range(suffixes))) for _ in range(1 << lam)]
    xor_prefix = np.arange(N) ^ ((mask % (1 << lam)) << (n - lam))
    permute_suffix = np.array(
        [x - x % suffixes + by_prefix[x // suffixes][x % suffixes] for x in range(N)]
    )
    for letters in (xor_prefix, permute_suffix):
        perm = _relabelling(letters, size)
        relabelled = dense[1][np.ix_(perm, perm)]
        assert np.abs(relabelled - dense[1]).max() < ATOL
        real_ideal = 0.5 * np.abs(np.linalg.eigvalsh(relabelled - dense[8])).sum()
        assert real_ideal == pytest.approx(report.quantities["td_real_ideal"], abs=1e-10)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 3),
    lam_offset=st.integers(0, 2),
    ell=st.integers(1, 2),
    t=st.integers(0, 2),
    p=st.integers(1, 3),
)
def test_multi_key_sector_gram_and_dense_routes_agree(n, lam_offset, ell, t, p):
    lam = max(1, n - lam_offset)
    N, size = 1 << n, p * ell + t
    assume(N**size <= 1024)
    params = PrsParams(lam=lam, n=n, ell=ell, t=t, p=p)
    xis = [multikey_xi(j, params, DEFAULT_BUDGETS) for j in range(p + 1)]
    classes = [multikey_mixture(j, params) for j in range(p + 1)]
    mixtures = [_on_sectors(multikey_mixture, j, params) for j in range(p + 1)]
    for j in range(p + 1):
        assert np.abs(_sector_dense(mixtures[j]) - xis[j].to_dense()).max() < ATOL
    for j in range(p):
        by_sector = sector_trace_distance(mixtures[j], mixtures[j + 1])
        assert by_sector == pytest.approx(gram_trace_distance(xis[j], xis[j + 1]), abs=ATOL)
        assert by_sector == pytest.approx(trace_distance(xis[j], xis[j + 1]), abs=1e-10)
        by_class = sector_trace_distance(classes[j], classes[j + 1])
        assert by_class == pytest.approx(by_sector, abs=ATOL)
    report = multi_key_report(params)
    assert report.flags["links_le_single_key"] and report.flags["td_le_sum_of_links"]


def _assert_same_report(classes, sectors) -> None:
    """Same keys in the same order, same flags and notes, quantities to 1e-12, equal ints."""
    assert classes.params == sectors.params and classes.notes == sectors.notes
    assert list(classes.flags.items()) == list(sectors.flags.items())
    for field in ("quantities", "bounds"):
        ours, theirs = getattr(classes, field), getattr(sectors, field)
        assert list(ours) == list(theirs), field
        for key, value in ours.items():
            if value is None or isinstance(value, int):
                assert type(value) is type(theirs[key]) and value == theirs[key], key
            else:
                assert value == pytest.approx(theirs[key], abs=ATOL), key


@st.composite
def report_points(draw):
    """(lam, n, ell, t, p) with lam <= n <= 4, ell <= 3, t <= 3, p <= 3 and p ell + t <= 4."""
    lam = draw(st.integers(1, 4))
    n = draw(st.integers(lam, 4))
    ell = draw(st.integers(1, 3))
    t = draw(st.integers(0, 4 - ell))
    p = draw(st.integers(1, min(3, (4 - t) // ell)))
    return lam, n, ell, t, p


@settings(max_examples=25, deadline=None)
@given(report_points())
@example((1, 3, 1, 2, 1))  # empty conditioned set
@example((1, 1, 3, 0, 1))  # fewer strings than registers
def test_reports_on_classes_match_the_full_sector_enumeration(point):
    lam, n, ell, t, p = point
    assume(math.comb((1 << n) + p * ell + t - 1, p * ell + t) <= 3000)
    params = PrsParams(lam=lam, n=n, ell=ell, t=t, p=p)
    calls = [(single_key_report, params), (impossibility_attack, params)]
    if p > 1:
        calls.append((multi_key_report, params))
    if ell == 1 and n > lam:
        calls.append((hiding_distance, lam, n, p, t))
    for call, *args in calls:
        _assert_same_report(call(*args), _on_sectors(call, *args))


@pytest.mark.parametrize("N, size", [(2, 1), (2, 5), (4, 3), (8, 4), (16, 3), (64, 3)])
def test_sector_counts_cover_every_type(N, size):
    n, types = N.bit_length() - 1, math.comb(N + size - 1, size)
    space = sector_space(n, n, size)
    assert sum(len(group.letters) for group in space.groups) == types
    multisets = {tuple(sorted(row)) for group in space.groups for row in group.elements().tolist()}
    assert len(multisets) == types
    for lam in range(1, n + 1):
        classes = relation_classes(n, lam, size)
        assert [g.shape for g in classes.groups] == [g.shape for g in space.groups]
        assert sum(classes.counts) == sum(sum(g.counts) for g in classes.groups) == types
    for group in space.groups + classes.groups:
        assert group.dim == math.factorial(size) // math.prod(
            math.factorial(m) for m in group.shape
        )
        assert (arrangements(group.letters[:, group.orderings]) == group.dim).all()


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(1, 3), min_size=1, max_size=3), data=st.data())
def test_arrangements_count_the_orderings_of_any_range(shape, data):
    # Over any register range [a, b) of a group's orderings, as product_mixture
    # reads them, each row counts the distinct orderings of its multiset.
    shape = tuple(sorted(shape, reverse=True))
    a = data.draw(st.integers(0, sum(shape)), label="a")
    b = data.draw(st.integers(a, sum(shape)), label="b")
    values = shape_orderings(shape)[:, a:b]
    expected = [
        math.factorial(b - a) // math.prod(math.factorial(c) for c in Counter(row).values())
        for row in values.tolist()
    ]
    assert arrangements(values).tolist() == expected


def test_subspace_enumerator_yields_every_subspace_once():
    # The Galois numbers: subspaces of GF(2)^m over all dimensions.
    assert [sum(1 for _ in subspaces(m, m)) for m in range(7)] == [1, 2, 5, 16, 67, 374, 2825]
    # Each basis spans a distinct row space of its stated dimension.
    for m in range(5):
        spans = set()
        for columns in subspaces(m, m):
            rows = [sum(((c >> i) & 1) << j for j, c in enumerate(columns)) for i in range(m)]
            span = frozenset(
                np.bitwise_xor.reduce(np.array(chosen, dtype=np.int64)).item() if chosen else 0
                for k in range(m + 1)
                for chosen in itertools.combinations(rows, k)
            )
            assert len(span) == 1 << max(columns, default=0).bit_length()
            spans.add(span)
        assert len(spans) == [1, 2, 5, 16, 67][m]
    assert sum(1 for _ in subspaces(6, 2)) == 1 + 63 + 651


@settings(max_examples=50, deadline=None)
@given(
    prefixes=st.lists(st.integers(0, 7), min_size=1, max_size=6),
    shift=st.integers(0, 7),
    basis=st.permutations([1, 2, 4]),
    mix=st.integers(0, 7),
)
def test_canonical_relations_ignore_translation_and_change_of_basis(prefixes, shift, basis, mix):
    # Relabel GF(2)^3 by x -> A x + shift, A invertible (a permutation of the
    # unit vectors followed by adding bit 0 into the bits in ``mix``).
    def relabel(x):
        y = sum(b for i, b in enumerate(basis) if (x >> i) & 1)
        return (y ^ (mix & ~1 if y & 1 else 0)) ^ shift

    canonical = _canonical(tuple(prefixes))
    assert _canonical(tuple(relabel(x) for x in prefixes)) == canonical
    assert canonical in set(subspaces(len(prefixes) - 1, 3))


@pytest.mark.parametrize(
    "n, lam, size", [(1, 1, 4), (2, 1, 4), (3, 3, 5), (4, 2, 4), (6, 2, 3), (10, 3, 4), (40, 8, 4)]
)
def test_class_counts_are_exact(n, lam, size):
    types = math.comb((1 << n) + size - 1, size)
    space = relation_classes(n, lam, size, Budgets(max_type_count=types))
    assert sum(space.counts) == sum(sum(group.counts) for group in space.groups) == types
    for group in space.groups:
        # Every row stands for at least one sector, so no space has more rows
        # than sectors, and no empty class can set a global eigenvalue cutoff.
        assert all(type(c) is int and c > 0 for c in group.counts)
        assert len(group.letters) == len(group.counts)
        assert int(group.letters.max()) < 1 << (lam + space.shift)
    if n <= 6:
        sectors = sector_space(n, lam, size)
        assert [g.shape for g in space.groups] == [g.shape for g in sectors.groups]
        for group, reference in zip(space.groups, sectors.groups):
            assert sum(group.counts) == len(reference.letters)


def test_bounded_shape_walk_is_the_full_walk_filtered():
    # The recursive walk is the reference: unbounded (at most ``size`` parts)
    # and filtered up to size 25, and with each part bound up to size 14.
    for size in range(26):
        every = list(partitions(size, max(size, 1)))
        for max_parts in range(1, size + 3):
            expected = [shape for shape in every if len(shape) <= max_parts]
            assert list(_partitions(size, max_parts)) == expected, (size, max_parts)
            if size <= 14:
                assert list(partitions(size, max_parts)) == expected, (size, max_parts)


def test_every_shape_with_at_most_N_parts_has_a_class():
    # n <= 3 reaches shapes of exactly N = 8 parts; size 8 at n = 4, 5 adds
    # 198 shapes of at most 8 of 16 or 32 letters and ~9 s, and is left out
    budgets = Budgets(max_type_count=10**12, max_dense_dim=math.factorial(8))
    for n in range(1, 6):
        N = 1 << n
        for lam, size in itertools.product(range(1, n + 1), range(1, 9 if n <= 3 else 8)):
            space = relation_classes(n, lam, size, budgets)
            shapes = [shape for shape in partitions(size, size) if len(shape) <= N]
            assert [group.shape for group in space.groups] == shapes, (n, lam, size)
            assert all(group.counts for group in space.groups)
            sectors = sum(sum(group.counts) for group in space.groups)
            assert sectors == math.comb(N + size - 1, size), (n, lam, size)


@pytest.mark.parametrize("lam, n, ell, t", [(2, 16, 2, 2), (2, 20, 1, 2), (2, 70, 1, 2)])
def test_reports_stay_normalised_at_large_n(lam, n, ell, t):
    budgets = Budgets(max_type_count=10**90)
    params = PrsParams(lam=lam, n=n, ell=ell, t=t)
    report = single_key_report(params, budgets)
    # At ell = 2, lam = 2 no 2-fold prefix collision-free type exists: no chain.
    assert (report.quantities["td_h1_h2"] is None) == (ell == 2)
    for key, value in report.quantities.items():
        if key != "sum_consecutive" and value is not None:
            assert 0.0 <= value <= 1.0, key
    assert all(report.flags.values())
    for index in (1, 4, 5, 6, 7, 8) if ell == 2 else range(1, 9):
        assert trace(hybrid_mixture(HybridSpec(index, params), budgets)) == pytest.approx(
            1.0, abs=ATOL
        )
    attack = impossibility_attack(params, budgets)
    N = 1 << n
    rank1 = math.comb(N + ell - 1, ell) * math.comb(N + t - 1, t)
    assert attack.quantities["rank_rho1_measured"] == rank1
    assert attack.flags["rank_rho1_matches_formula"] and attack.flags["tr_pi_rho0_is_one"]
    if ell == 1:
        chain = multi_key_report(PrsParams(lam=lam, n=n, ell=ell, t=t, p=2), budgets)
        for key, value in chain.quantities.items():
            assert 0.0 <= value <= (2.0 if key == "sum_links" else 1.0), key
        assert all(chain.flags.values())
        for j in range(3):
            mixture = multikey_mixture(j, PrsParams(lam=lam, n=n, ell=ell, t=t, p=2), budgets)
            assert trace(mixture) == pytest.approx(1.0, abs=ATOL)


@pytest.mark.parametrize(
    "lam, n, ell, t, p",
    [(2, 3, 1, 2, 3), (3, 4, 2, 1, 1), (1, 2, 2, 0, 2), (1, 2, 2, 1, 2), (3, 4, 2, 1, 2)],
)
def test_every_mixture_has_unit_trace(lam, n, ell, t, p):
    params = PrsParams(lam=lam, n=n, ell=ell, t=t, p=p)
    for index in range(1, 9):
        try:
            mixture = hybrid_mixture(HybridSpec(index, params))
        except ValueError as err:
            assert "empty conditioned set" in str(err)
            continue
        assert trace(mixture) == pytest.approx(1.0, abs=ATOL)
        # w is constant on each class, so every kernel is symmetric
        for block in kernels(mixture):
            assert np.array_equal(block, block.transpose(0, 2, 1))
    for j in range(params.p + 1):
        assert trace(multikey_mixture(j, params)) == pytest.approx(1.0, abs=ATOL)


@pytest.mark.parametrize(
    "lam, n, ell, t",
    [
        (1, 1, 1, 0),
        (2, 3, 1, 0),
        (1, 1, 3, 0),
        (2, 3, 1, 2),
        (1, 2, 2, 2),
        (3, 4, 2, 1),
        (2, 4, 1, 3),
        (8, 38, 1, 2),
    ],
)
def test_real_and_ideal_hybrids_are_the_one_key_chain_ends(lam, n, ell, t):
    # H1 is xi_0 and H8 is xi_1 of the one-key chain, bit for bit, so the
    # multi-key report's single-key links are chain distances.
    budgets = Budgets(max_type_count=10**90)
    params = PrsParams(lam=lam, n=n, ell=ell, t=t)
    for index, j in ((1, 0), (8, 1)):
        hybrid = hybrid_mixture(HybridSpec(index, params), budgets)
        chain = multikey_mixture(j, params, budgets)
        assert hybrid.normaliser == chain.normaliser
        for x, y in ((hybrid.labels, chain.labels), (hybrid.weights, chain.weights)):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def test_every_report_gets_its_space_through_prsg():
    # _on_sectors patches prsg.relation_classes; it must reach every report,
    # commit-hiding's chain included.
    params = PrsParams(lam=1, n=2, ell=1, t=1, p=2)
    calls = [
        (single_key_report, params),
        (multi_key_report, params),
        (impossibility_attack, params),
        (hiding_distance, 1, 2, 2, 1),
    ]
    for call, *args in calls:
        with mock.patch.object(prsg, "relation_classes", wraps=relation_classes) as spy:
            call(*args)
        assert spy.called, call.__name__


def test_budgets_are_enforced_on_the_sector_route():
    small = Budgets(max_type_count=10)
    params = PrsParams(lam=2, n=3, ell=1, t=1, p=2)
    with pytest.raises(BudgetExceeded):
        single_key_report(params, small)
    with pytest.raises(BudgetExceeded):
        multi_key_report(params, small)
    with pytest.raises(BudgetExceeded):
        hybrid_mixture(HybridSpec(5, params), small)
    with pytest.raises(BudgetExceeded):
        multikey_mixture(2, params, small)
    # The conditioned hybrids run the prefix collision-free filter: C(3, 1)^2 = 9 pairs.
    with pytest.raises(BudgetExceeded, match="subset pairs"):
        single_key_report(PrsParams(lam=2, n=3, ell=1, t=2), Budgets(max_subset_pairs=8))
    with pytest.raises(BudgetExceeded, match="subset pairs"):
        hybrid_mixture(HybridSpec(3, params), Budgets(max_subset_pairs=3))


def test_block_dimensions_are_checked_against_the_dense_budget(capsys):
    # Size 3: the shapes (3), (2, 1), (1, 1, 1) have 1, 3 and 6 orderings.
    space = relation_classes(3, 2, 3, Budgets(max_dense_dim=6))
    assert [group.dim for group in space.groups] == [1, 3, 6]
    with pytest.raises(BudgetExceeded, match=r"shape \(1, 1, 1\): dense dimension 6 exceeds"):
        relation_classes(3, 2, 3, Budgets(max_dense_dim=5))
    # Two letters have no sector of shape (1, 1, 1), so no block of it is built.
    assert [g.dim for g in relation_classes(1, 1, 3, Budgets(max_dense_dim=3)).groups] == [1, 3]
    # The orderings of a shape are listed without listing all permutations.
    assert shape_orderings((6, 6)).shape == (math.comb(12, 6), 12)
    # Size 11 on four strings: the budget stops a shape of 4620 orderings; the
    # shapes of five or more letters, which have no sector, are never walked.
    with pytest.raises(BudgetExceeded, match=r"shape \(6, 3, 2\): dense dimension 4620"):
        relation_classes(2, 2, 11)
    # ell + t = 8 would build blocks of 8!/3! = 6720 orderings.
    assert main(["prsg-td", "--lam", "2", "--n", "3", "--ell", "4", "--t", "4"]) == 2
    assert capsys.readouterr().err == (
        "chs-lab prsg-td: sector blocks of shape (3, 1, 1, 1, 1, 1): "
        "dense dimension 6720 exceeds budget 4096\n"
    )


@pytest.mark.parametrize(
    "lam, n, ell, t",
    [
        (1, 1, 2, 0),  # t = 0 and N = s
        (1, 2, 2, 0),
        (2, 3, 2, 0),
        (1, 1, 3, 0),  # t = 0 and N < s
        (1, 1, 3, 2),  # N < s
        (1, 1, 2, 3),  # N < s
        (2, 2, 2, 2),
        (1, 3, 2, 1),
        (2, 2, 1, 3),
    ],
)
def test_key_class_counts_are_the_dense_ranks_of_the_chain_ends(lam, n, ell, t):
    # xi_0 weighs a sector's orderings alike and masks them to equal prefix
    # XORs of the generated copies; xi_1 weighs them by the multiset of the
    # generated copies, its key. So each block is a positive multiple of its
    # key classes' all-ones blocks, and each rank is the classes' count: on
    # the class rows counted by their sectors, and on every sector alike,
    # against the full matrix with one relative eigenvalue cutoff.
    params = PrsParams(lam, n, ell, t)
    every_sector = sector_space(n, lam, ell + t)
    for j in (0, 1):
        vals = np.linalg.eigvalsh(_sector_dense(_sector_chain(j, params, every_sector)))
        dense_rank = int((vals > REL_RANK_CUTOFF * vals.max()).sum())
        for space in (relation_classes(n, lam, ell + t), every_sector):
            mixture = _sector_chain(j, params, space)
            rows, sizes = mixture.classes()
            rank = space.total(rows=rows)
            assert rank == dense_rank and type(rank) is int, (j, space.N)
            # each row's classes are consecutive and hold all its orderings
            dims = [group.dim for group in space.groups for _ in group.counts]
            assert np.array_equal(np.unique(rows), np.arange(len(dims)))
            assert np.all(np.diff(rows) >= 0)
            assert np.array_equal(np.bincount(rows, sizes), dims)
            # the dense kernel has one distinct row per class
            distinct = [len(np.unique(k, axis=0)) for kernel in kernels(mixture) for k in kernel]
            assert distinct == np.bincount(rows).tolist()


def test_shared_blocks_count_once_per_sector():
    # Over 4 letters, shape (2,) has 4 one-dimensional sectors and shape (1, 1)
    # 6 two-dimensional ones. Several sectors share each block; a space with
    # one row per distinct block, counted by its sectors, must give the same
    # traces and distance as the full matrices. Per row: class labels, then
    # integer weights; a (1, 1) row of labels (0, 1) is a diagonal block, one
    # of (0, 0) an all-ones block. a has a weight of 1 over a normaliser of 10^14.
    sectors = sector_space(2, 2, 2)
    index = (np.array([0, 1, 1, 0]), np.array([0, 1, 1, 1, 0, 1]))
    a_rows = (([[0], [0]], [[10**13], [1]]), ([[0, 1], [0, 0]], [[10**13] * 2, [5 * 10**12] * 2]))
    b_rows = (([[0], [0]], [[25], [25]]), ([[0, 1], [0, 1]], [[10, 0], [10, 0]]))

    def mixture(space, rows, index, normaliser):
        """The rows' labels and weights at ``index``, labels offset past the rows before."""
        label, weight = (
            np.concatenate([np.array(r[k])[i].reshape(-1) for r, i in zip(rows, index)])
            for k in (0, 1)
        )
        return SectorMixture(space, label + 2 * space.entry_rows, weight, normaliser)

    a = mixture(sectors, a_rows, index, 10**14)
    b = mixture(sectors, b_rows, index, 100)
    assert trace(a) == pytest.approx(1.0 + 2e-14, abs=ATOL)
    assert trace(b) == pytest.approx(1.6, abs=ATOL)
    dense_td = 0.5 * np.abs(np.linalg.eigvalsh(_sector_dense(a) - _sector_dense(b))).sum()
    assert sector_trace_distance(a, b) == pytest.approx(dense_td, abs=ATOL)
    assert pairwise_trace_distance(a, b) == pytest.approx(dense_td, abs=ATOL)
    with pytest.raises(ValueError, match="sector spaces differ"):
        other = (np.arange(2), np.arange(1))  # 2 and 1 rows over 2 letters
        sector_trace_distance(a, mixture(sector_space(1, 1, 2), b_rows, other, 100))
    # The same blocks once each, counted by the sectors that carry them.
    counts = [(2, 2), (2, 4)]
    groups = (g._replace(letters=g.letters[:2], counts=c) for g, c in zip(sectors.groups, counts))
    rows = SectorSpace.build(4, 2, 0, groups)
    once = (np.arange(2), np.arange(2))
    a, b = mixture(rows, a_rows, once, 10**14), mixture(rows, b_rows, once, 100)
    assert sector_trace_distance(a, b) == pytest.approx(dense_td, abs=ATOL)
    assert trace(a) == pytest.approx(1.0 + 2e-14, abs=ATOL)
    assert trace(b) == pytest.approx(1.6, abs=ATOL)


def test_conditioned_hybrids_keep_equal_key_patterns_with_different_weights_apart():
    # H3's keys do not depend on lam, so all rows of a shape have one key
    # pattern; only the collision-free mask tells them apart. At lam=2, n=3 the
    # all-distinct shape holds both masked and unmasked classes and sectors.
    params = PrsParams(lam=2, n=3, ell=1, t=2)
    for space in (relation_classes(3, 2, 3), sector_space(3, 2, 3)):
        cf = _conditioned_sectors(space, params, DEFAULT_BUDGETS)
        distinct = cf[-len(space.groups[2].counts) :]  # the rows of shape (1, 1, 1)
        assert not distinct.all() and distinct.any()
        count = _cf_count(space, cf)
        mixtures = {index: _sector_hybrid(index, params, space, cf, count) for index in (2, 3)}
        for mixture in mixtures.values():
            traces = [np.trace(blocks, axis1=1, axis2=2) for blocks in kernels(mixture)]
            assert np.array_equal(np.concatenate(traces) > 0, cf)
            assert trace(mixture) == pytest.approx(1.0, abs=ATOL)
    for index, mixture in mixtures.items():
        dense = hybrid_state(HybridSpec(index, params)).to_dense()
        assert np.abs(_sector_dense(mixture) - dense).max() < ATOL


def _lam_free_chain(params, space):
    """Hybrids H4 to H8: H4-H7 from the hybrid table, H8 as the one-key chain's xi_1."""
    hybrids = [_sector_hybrid(index, params, space) for index in range(4, 8)]
    return hybrids + [_sector_chain(1, params, space)]


def test_sector_blocks_repeat_per_shape_group():
    # At (lam, n, ell, t) = (2, 6, 1, 2) the 45,760 sectors fall in 6 relation
    # classes: 1 of shape (3,), 2 of (2, 1) (whether the letters share a
    # prefix) and 3 of (1, 1, 1) (no two, two or all three letters share a
    # prefix: the 5 subspaces of GF(2)^2 up to swapping letters). The lam-free
    # hybrids H4-H8 have one block per shape group; H1's differs per class.
    params = PrsParams(lam=2, n=6, ell=1, t=2)
    space = relation_classes(6, 2, 3)
    assert [len(group.counts) for group in space.groups] == [1, 2, 3]
    assert [sum(group.counts) for group in space.groups] == [64, 64 * 63, 41664]

    def distinct(mixture):
        return [len(np.unique(block, axis=0)) for block in kernels(mixture)]

    assert distinct(_sector_chain(0, params, space)) == [1, 2, 3]
    for mixture in _lam_free_chain(params, space):
        assert distinct(mixture) == [1, 1, 1]


def _report_states(params):
    """Every state a single-key report builds, on one space: xi_0, xi_1, then H2..H7."""
    budgets = Budgets(max_type_count=10**90)
    space = relation_classes(params.n, params.lam, params.ell + params.t, budgets)
    cf = _conditioned_sectors(space, params, DEFAULT_BUDGETS)
    states = [_sector_chain(0, params, space), _sector_chain(1, params, space)]
    for index in range(2, 8):
        try:
            states.append(_sector_hybrid(index, params, space, cf, _cf_count(space, cf)))
        except ValueError as err:  # an empty conditioned set
            assert "empty conditioned set" in str(err)
    return states


def test_kernels_are_integers_that_do_not_depend_on_n():
    # A mixture is an exact int normaliser over integer class weights: the
    # same labels and weights at n = lam + 5 and n = lam + 40, state by state.
    lam = 2
    near, far = (_report_states(PrsParams(lam, lam + extra, 1, 2)) for extra in (5, 40))
    assert len(near) == len(far)
    for x, y in zip(near, far):
        assert type(x.normaliser) is int and type(y.normaliser) is int
        for a, b in ((x.labels, y.labels), (x.weights, y.weights)):
            assert a.dtype == np.int64 and (a.shape, a.tobytes()) == (b.shape, b.tobytes())


def test_the_normaliser_refusal_keeps_every_row_weight_normal():
    # relation_classes admits n = 340 at three registers, where every row
    # weight count / normaliser is still a normal float, and refuses n = 341.
    budgets = Budgets(max_type_count=10**400)
    space = relation_classes(340, 8, 3, budgets)
    real = _sector_chain(0, PrsParams(8, 340, 1, 2), space)
    assert real.normaliser <= sectors.MAX_NORMALISER
    assert (real.row_weights() >= sys.float_info.min).all()
    message = "n=341 is too large for 3 registers: the mixture weights would fall below"
    with pytest.raises(ValueError, match=message):
        relation_classes(341, 8, 3, budgets)


@settings(max_examples=40, deadline=None)
@given(
    lam=st.integers(1, 3),
    n_extra=st.sampled_from([0, 1, 2, 9, 40]),
    ell=st.integers(1, 2),
    t=st.integers(0, 2),
    picks=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=10),
    stack=st.sampled_from([1, 5, 40, 300, sectors._STACK]),
)
def test_batched_distances_equal_the_per_pair_loop(lam, n_extra, ell, t, picks, stack):
    # Pairs of the report's states (xi_0, xi_1, H2 to H7), stacked with a
    # constant small enough that stacks are solved mid-stream: every distance
    # is the one-pair call's, bit for bit, and the dense kernels' to 1e-12. A
    # large n gives row counts that floats round.
    states = _report_states(PrsParams(lam=lam, n=lam + n_extra, ell=ell, t=t))
    pairs = [(states[i % len(states)], states[j % len(states)]) for i, j in picks]
    with mock.patch.object(sectors, "_STACK", stack):
        batched = trace_distances(iter(pairs))
    assert [sector_trace_distance(a, b) for a, b in pairs] == batched
    dense = [pairwise_trace_distance(a, b) for a, b in pairs]
    assert batched == pytest.approx(dense, abs=ATOL)


def test_a_report_solves_each_class_count_once():
    # prsg-td (2, 5, 1, 2): each of the eight pairs leaves one matrix per row
    # of the space (groups of 1, 2 and 3 rows), as large as its most classes
    # on a row. That is 3 for every pair, so the report makes one eigvalsh.
    # A constant of one entry solves every pair on its own, with the same report.
    params = PrsParams(lam=2, n=5, ell=1, t=2)
    eigvalsh = np.linalg.eigvalsh
    with mock.patch.object(np.linalg, "eigvalsh", wraps=eigvalsh) as spy:
        report = single_key_report(params)
    assert [call.args[0].shape for call in spy.call_args_list] == [(8 * 6, 3, 3)]
    with mock.patch.object(sectors, "_STACK", 1):
        assert single_key_report(params).to_json() == report.to_json()


@pytest.mark.parametrize("p, ell", [(1, 1), (2, 1), (3, 1), (2, 2), (1, 2), (3, 2)])
def test_first_single_key_link_is_solved_with_the_chain(p, ell):
    # Every link's single-key pair, M_ell^(x)j tensored with the one-key chain
    # ends, lies on the chain's own space, so the report solves it with the
    # chain in one round. Each distance is checked against the one-key ends
    # on their own (p - j) ell + t registers; link p - 1's pair is the
    # chain's last link, reported once for both.
    for t in range(7 - p * ell):
        params = PrsParams(lam=1, n=2, ell=ell, t=t, p=p)
        rounds = mock.Mock(wraps=trace_distances)
        with mock.patch.object(prsg, "trace_distances", rounds):
            with mock.patch.object(sectors, "trace_distances", rounds):
                report = multi_key_report(params)
        assert rounds.call_count == 1
        for j in range(p):
            one_key = replace(params, t=(p - j - 1) * ell + t)
            space = relation_classes(params.n, params.lam, (p - j) * ell + t)
            ends = _sector_chain(0, one_key, space), _sector_chain(1, one_key, space)
            single = report.quantities[f"single_key_td_j{j}"]
            assert abs(single - sector_trace_distance(*ends)) <= ATOL, (t, j)
        last = report.quantities[f"td_xi{p - 1}_xi{p}"]
        assert report.quantities[f"single_key_td_j{p - 1}"] == last
        if p == 1:
            assert report.quantities["td_real_ideal"] == last


@pytest.mark.parametrize(
    "experiment, params",
    [
        ("commit-hiding", dict(lam=1, n=2, p=3, t=1)),
        ("commit-hiding", dict(lam=2, n=3, p=1, t=0)),
        ("multikey-td", dict(lam=2, n=3, ell=1, t=1, p=3)),
        ("multikey-td", dict(lam=1, n=2, ell=2, t=0, p=1)),
        ("commit-hiding", dict(lam=1, n=2, p=2, t=1)),
    ],
)
def test_each_chain_report_builds_one_space_and_solves_once(experiment, params):
    # A commit-hiding report's own distance is in closed form, so it solves
    # nothing outside its cross-check's one trace_distances call.
    spaces = mock.Mock(wraps=relation_classes)
    rounds, inside, solved_inside = [], [], []

    def counted_rounds(pairs):
        rounds.append(pairs)
        inside.append(True)
        try:
            return trace_distances(pairs)
        finally:
            inside.pop()

    def counted(solver):
        def call(*args, **kwargs):
            solved_inside.append(bool(inside))
            return solver(*args, **kwargs)

        return call

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(prsg, "relation_classes", spaces))
        for module in (prsg, sectors):
            stack.enter_context(mock.patch.object(module, "trace_distances", counted_rounds))
        for name in ("eigvalsh", "eigh", "cholesky"):
            solver = counted(getattr(np.linalg, name))
            stack.enter_context(mock.patch.object(np.linalg, name, solver))
        runner.run(runner.ExperimentConfig(experiment, params, seed=1))
    assert spaces.call_count == 1 and len(rounds) == 1
    assert solved_inside and all(solved_inside)


def test_streamed_single_key_report_holds_few_states():
    # The report reads its pairs as it builds them and stacks only their
    # differences. At this point one state is 1.25 MiB; the route that solved
    # one pair per call peaked at 5_181_105 bytes (tracemalloc, numpy 2.4),
    # holding xi_0, xi_1 and two chain states at once.
    parent_peak = 5_181_105
    params = PrsParams(lam=8, n=30, ell=2, t=3)
    budgets = Budgets(max_type_count=10**90)
    single_key_report(PrsParams(lam=1, n=2, ell=2, t=3))  # first-call allocations
    tracemalloc.start()
    try:
        single_key_report(params, budgets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.9 * parent_peak
