"""The sector-block route against the ensemble routes it replaced in the reports.

``hybrid_state`` and ``_multikey_xi`` build the same mixtures as PureState
ensembles; ``gram_trace_distance`` and the dense ``trace_distance`` compare
those. Every sector-route quantity must agree with them to 1e-12.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chslab.budgets import DEFAULT_BUDGETS, BudgetExceeded, Budgets
from chslab.prsg import (
    _CONSECUTIVE,
    HybridSpec,
    PrsParams,
    _conditioned_sectors,
    _multikey_xi,
    _sector_hybrid,
    hybrid_mixture,
    hybrid_state,
    multi_key_report,
    multikey_mixture,
    single_key_report,
)
from chslab.qla import gram_trace_distance, trace_distance
from chslab.sectors import (
    SectorMixture,
    SectorSpace,
    _distinct_rows,
    _first_holders,
    _pack,
    _row_hash,
    arrangements,
    sector_support_overlap,
    sector_trace_distance,
)
from chslab.tolerances import REL_RANK_CUTOFF

ATOL = 1e-12


def _sector_dense(mixture, n: int) -> np.ndarray:
    """The full N^size matrix of a sector mixture (registers of n bits)."""
    N, size = mixture.space.N, mixture.space.size
    dense = np.zeros((N**size, N**size))
    radix = N ** np.arange(size - 1, -1, -1)
    for group, block, index in zip(mixture.space.groups, mixture.blocks, mixture.index):
        flat = group.values() @ radix  # (count, dim)
        dense[flat[:, :, None], flat[:, None, :]] = block[index]
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
    xis = [_multikey_xi(j, params, DEFAULT_BUDGETS) for j in range(p + 1)]
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
    sector, dense, ensemble = {}, {}, {}
    for index in range(1, 9):
        try:
            ensemble[index] = hybrid_state(HybridSpec(index, params))
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                hybrid_mixture(HybridSpec(index, params))
            continue
        sector[index] = hybrid_mixture(HybridSpec(index, params))
        dense[index] = _sector_dense(sector[index], n)
        assert np.abs(dense[index] - ensemble[index].to_dense()).max() < ATOL
    chain = len(sector) == 8
    pairs = [(1, 8)] + (_CONSECUTIVE if chain else [])
    for i, j in pairs:
        by_sector = sector_trace_distance(sector[i], sector[j])
        assert by_sector == pytest.approx(gram_trace_distance(ensemble[i], ensemble[j]), abs=ATOL)
        assert by_sector == pytest.approx(trace_distance(ensemble[i], ensemble[j]), abs=1e-10)
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
    xis = [_multikey_xi(j, params, DEFAULT_BUDGETS) for j in range(p + 1)]
    mixtures = [multikey_mixture(j, params) for j in range(p + 1)]
    for j in range(p + 1):
        assert np.abs(_sector_dense(mixtures[j], n) - xis[j].to_dense()).max() < ATOL
    for j in range(p):
        by_sector = sector_trace_distance(mixtures[j], mixtures[j + 1])
        assert by_sector == pytest.approx(gram_trace_distance(xis[j], xis[j + 1]), abs=ATOL)
        assert by_sector == pytest.approx(trace_distance(xis[j], xis[j + 1]), abs=1e-10)
    report = multi_key_report(params)
    assert report.flags["links_le_single_key"] and report.flags["td_le_sum_of_links"]


@pytest.mark.parametrize("N, size", [(2, 1), (2, 5), (4, 3), (8, 4), (16, 3), (64, 3)])
def test_sector_counts_cover_every_type(N, size):
    space = SectorSpace(N, size)
    assert sum(group.count for group in space.groups) == math.comb(N + size - 1, size)
    for group in space.groups:
        assert group.dim == math.factorial(size) // math.prod(
            math.factorial(m) for m in group.shape
        )
        assert (arrangements(group.values()) == group.dim).all()
    multisets = {tuple(sorted(row)) for group in space.groups for row in group.elements().tolist()}
    assert len(multisets) == math.comb(N + size - 1, size)


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
        assert mixture.trace() == pytest.approx(1.0, abs=ATOL)
        for block in mixture.blocks:
            assert np.array_equal(block, block.transpose(0, 2, 1))
    for j in range(params.p + 1):
        assert multikey_mixture(j, params).trace() == pytest.approx(1.0, abs=ATOL)


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


def test_support_overlap_cuts_relative_to_the_largest_eigenvalue_of_all_blocks():
    # The second sector's block holds only a tiny eigenvalue: one dense
    # matrix's relative cutoff drops it, and so must the blocks.
    space = SectorSpace(2, 1)
    a = SectorMixture(space, (np.array([[[1.0]], [[1e-12]]]),), (np.array([0, 1]),))
    b = SectorMixture(space, (np.array([[[0.25]], [[0.75]]]),), (np.array([0, 1]),))
    assert sector_support_overlap(a, b) == (1, 2, 1.0, 0.25)
    with pytest.raises(ValueError, match="sector spaces differ"):
        sector_support_overlap(a, SectorMixture(SectorSpace(2, 2), b.blocks, b.index))


def _dense_support_overlap(a, b) -> tuple[int, int, float, float]:
    """``sector_support_overlap`` on the full matrices, with the same relative cutoff."""
    dense_a, dense_b = _sector_dense(a, 0), _sector_dense(b, 0)
    vals, vecs = np.linalg.eigh(dense_a)
    vals_b = np.linalg.eigvalsh(dense_b)
    kept = vals > REL_RANK_CUTOFF * vals.max()
    pi = vecs[:, kept] @ vecs[:, kept].T
    rank_b = int((vals_b > REL_RANK_CUTOFF * vals_b.max()).sum())
    return int(kept.sum()), rank_b, float(vals[kept].sum()), float(np.trace(pi @ dense_b))


def test_shared_blocks_count_once_per_sector():
    # Over 4 letters, shape (2,) has 4 one-dimensional sectors and shape (1, 1)
    # 6 two-dimensional ones. Several sectors share each block, including the
    # block whose only eigenvalue falls under the cutoff.
    space = SectorSpace(4, 2)
    a = SectorMixture(
        space,
        (
            np.array([[[0.1]], [[1e-14]]]),
            np.array([0.1 * np.eye(2), np.full((2, 2), 0.05)]),
        ),
        (np.array([0, 1, 1, 0]), np.array([0, 1, 1, 1, 0, 1])),
    )
    b = SectorMixture(
        space,
        (np.array([[[0.25]]]), np.array([[[0.1, 0.0], [0.0, 0.0]]])),
        (np.zeros(4, dtype=np.int64), np.zeros(6, dtype=np.int64)),
    )
    assert a.trace() == pytest.approx(1.0 + 2e-14, abs=ATOL)
    assert b.trace() == pytest.approx(1.6, abs=ATOL)
    # rank(a) = 2 + 2*2 + 4*1; Tr(Pi b) = 2*0.25 + 2*0.1 + 4*0.05.
    rank_a, rank_b, tr_a, tr_b = sector_support_overlap(a, b)
    assert (rank_a, rank_b) == (10, 10)
    assert type(rank_a) is int and type(rank_b) is int
    assert tr_a == pytest.approx(1.0, abs=ATOL) and tr_b == pytest.approx(0.9, abs=ATOL)
    expected = _dense_support_overlap(a, b)
    assert (rank_a, rank_b) == expected[:2]
    assert np.allclose((tr_a, tr_b), expected[2:], rtol=0, atol=ATOL)
    dense_td = 0.5 * np.abs(np.linalg.eigvalsh(_sector_dense(a, 0) - _sector_dense(b, 0))).sum()
    assert sector_trace_distance(a, b) == pytest.approx(dense_td, abs=ATOL)


def test_equal_rows_are_confirmed_bit_for_bit():
    # The hash is linear in the row, so [m1, 0] and [0, m0] collide; they
    # must still land in different classes, and equal rows must share one.
    m0, m1 = _row_hash(np.eye(2, dtype=np.int64)).view(np.int64)
    rows = np.array([[m1, 0], [0, m0], [m1, 0], [5, 5], [5, 5]], dtype=np.int64)
    assert len(set(_row_hash(rows[:3]).tolist())) == 1
    first, index = _distinct_rows(rows)
    assert np.array_equal(rows[first[index]], rows)
    assert index[1] not in (index[0], index[2]) and index[3] == index[4]
    assert np.array_equal(first, np.sort(first)) and (first[index] <= np.arange(5)).all()


def test_key_packing_does_not_overflow():
    # Packed as digits, [4, 0] would be 4 * 2^62, which wraps to the code of
    # [0, 0] in int64; the packing must rank before that digit instead.
    keys = np.array([[[0, 0], [4, 0], [0, 2**62 - 1], [4, 0]]], dtype=np.int64)
    assert np.array_equal(_first_holders(keys), [[0, 1, 2, 1]])
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 3, size=(50, 6, 3)) << np.array([0, 40, 60])
    codes = _pack(keys)
    same = (keys[:, :, None] == keys[:, None]).all(axis=-1)
    assert np.array_equal(codes[:, :, None] == codes[:, None, :], same)


def test_conditioned_hybrids_keep_equal_key_patterns_with_different_weights_apart():
    # H3's keys do not depend on lam, so all sectors of a shape have one key
    # pattern; only the collision-free mask tells them apart. At lam=2, n=3 the
    # all-distinct shape holds both masked and unmasked sectors.
    params = PrsParams(lam=2, n=3, ell=1, t=2)
    space = SectorSpace(8, 3)
    cf = _conditioned_sectors(space, params, DEFAULT_BUDGETS)
    assert not cf[2].all() and cf[2].any()
    mixtures = {index: _sector_hybrid(index, params, space, cf) for index in (2, 3)}
    assert [len(blocks) for blocks in mixtures[3].blocks] == [1, 1, 2]
    for index, mixture in mixtures.items():
        for mask, blocks, where in zip(cf, mixture.blocks, mixture.index):
            assert np.array_equal(np.trace(blocks, axis1=1, axis2=2)[where] > 0, mask)
        dense = hybrid_state(HybridSpec(index, params)).to_dense()
        assert np.abs(_sector_dense(mixture, params.n) - dense).max() < ATOL


def test_sector_blocks_repeat_per_shape_group():
    # At (lam, n, ell, t) = (2, 6, 1, 2) the lam-free hybrids H4-H8 have one
    # block per shape group. H1's block depends on which letters share a
    # lam-bit prefix; letters ascend by value within equal multiplicity, so
    # shape (2, 1) has 2 such patterns and (1, 1, 1) has 4.
    params = PrsParams(lam=2, n=6, ell=1, t=2)
    space = SectorSpace(64, 3)
    assert [group.count for group in space.groups] == [64, 64 * 63, 41664]
    assert [len(b) for b in _sector_hybrid(1, params, space).blocks] == [1, 2, 4]
    for index in range(4, 9):
        assert [len(b) for b in _sector_hybrid(index, params, space).blocks] == [1, 1, 1]
