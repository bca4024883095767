"""The sector-block route against the ensemble routes it replaced in the reports.

``hybrid_state`` and ``_multikey_xi`` build the same mixtures as PureState
ensembles; ``gram_trace_distance`` and the dense ``trace_distance`` compare
those. Every sector-route quantity must agree with them to 1e-12.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chslab.budgets import DEFAULT_BUDGETS, BudgetExceeded, Budgets
from chslab.prsg import (
    _CONSECUTIVE,
    HybridSpec,
    PrsParams,
    _multikey_xi,
    hybrid_mixture,
    hybrid_state,
    multi_key_report,
    multikey_mixture,
    single_key_report,
)
from chslab.qla import gram_trace_distance, trace_distance
from chslab.sectors import SectorSpace, arrangements, sector_trace_distance

ATOL = 1e-12


def _sector_dense(mixture, n: int) -> np.ndarray:
    """The full N^size matrix of a sector mixture (registers of n bits)."""
    N, size = mixture.space.N, mixture.space.size
    dense = np.zeros((N**size, N**size))
    radix = N ** np.arange(size - 1, -1, -1)
    for group, block in zip(mixture.space.groups, mixture.blocks):
        flat = group.values() @ radix  # (count, dim)
        dense[flat[:, :, None], flat[:, None, :]] = block
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


def _xor_prefix_permutation(N: int, size: int, n: int, lam: int, mask: int) -> np.ndarray:
    """Basis permutation that XORs ``mask`` into the lam-bit prefix of every register."""
    digits = np.indices((N,) * size).reshape(size, -1)
    radix = N ** np.arange(size - 1, -1, -1)
    return (digits ^ (mask << (n - lam))).T @ radix


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 3),
    lam_offset=st.integers(0, 2),
    ell=st.integers(1, 2),
    t=st.integers(0, 2),
    mask=st.integers(0, 7),
)
def test_sector_gram_and_dense_routes_agree(n, lam_offset, ell, t, mask):
    lam = max(1, n - lam_offset)
    N, size = 1 << n, ell + t
    assume(N >= size and N**size <= 1024)
    params = PrsParams(lam=lam, n=n, ell=ell, t=t)
    sector, dense, ensemble = {}, {}, {}
    for index in range(1, 9):
        try:
            ensemble[index] = hybrid_state(HybridSpec(index, params))
        except ValueError:
            with pytest.raises(ValueError, match="empty conditioned set"):
                hybrid_mixture(HybridSpec(index, params))
            continue
        sector[index] = hybrid_mixture(HybridSpec(index, params))
        dense[index] = _sector_dense(sector[index], n)
        assert np.abs(dense[index] - ensemble[index].to_dense()).max() < ATOL
    pairs = [(1, 8)] + (_CONSECUTIVE if 2 in sector else [])
    for i, j in pairs:
        by_sector = sector_trace_distance(sector[i], sector[j])
        assert by_sector == pytest.approx(gram_trace_distance(ensemble[i], ensemble[j]), abs=ATOL)
        assert by_sector == pytest.approx(trace_distance(ensemble[i], ensemble[j]), abs=1e-10)
    # XOR-relabelling the prefix of every register leaves the real state, and so
    # the real/ideal distance, unchanged.
    perm = _xor_prefix_permutation(N, size, n, lam, mask % (1 << lam))
    relabelled = dense[1][np.ix_(perm, perm)]
    assert np.abs(relabelled - dense[1]).max() < ATOL
    ideal = dense[8]
    real_ideal = 0.5 * np.abs(np.linalg.eigvalsh(relabelled - ideal)).sum()
    assert real_ideal == pytest.approx(sector_trace_distance(sector[1], sector[8]), abs=1e-10)


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
    "lam, n, ell, t, p", [(2, 3, 1, 2, 3), (3, 4, 2, 1, 1), (1, 2, 2, 0, 2), (1, 2, 2, 1, 2)]
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
