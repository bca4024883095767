import ast
import inspect
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hiding_reference import hiding_distance as hiding_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chslab import commitments, prsg, sectors
from chslab.budgets import Budgets
from chslab.commitments import (
    CommitmentParams,
    MaliciousCommitter,
    accept_probability,
    binding_experiment,
    builtin_adversaries,
    commit_copy,
    hiding_distance,
    honest_commit,
)
from chslab.cli import main
from chslab.haar import rng_for, sample_haar
from chslab.prsg import relation_classes
from chslab.qla import DensityOperator, PureState, fidelity, partial_trace, partial_trace_pure


def fixed_params(lam=1, n=2, p=1, seed=21):
    theta = sample_haar(n, rng_for(seed))
    return CommitmentParams(lam=lam, n=n, p=p, theta=theta)


def test_params_invariant():
    theta = sample_haar(2, rng_for(1))
    with pytest.raises(ValueError):
        CommitmentParams(lam=2, n=2, p=1, theta=theta)  # needs n >= lam + 1
    with pytest.raises(ValueError):
        CommitmentParams(lam=1, n=3, p=1, theta=theta)  # wrong state size


def test_commit_copy_bit_one_is_maximally_entangled():
    params = fixed_params()
    psi1 = commit_copy(1, params)
    assert psi1.amplitudes == {(j, j): 0.5 for j in range(4)}
    reduced = partial_trace_pure(psi1, [0])
    assert np.allclose(reduced, np.eye(4) / 4, atol=1e-12)


def test_commit_copy_bit_zero_fixed_theta():
    # theta = |00>, lam=1, n=2: the key register holds k||0 and both phases
    # are trivial on prefix 0, giving (|00>|00> + |00>|10>)/sqrt(2).
    theta = PureState((2,), {(0,): 1.0})
    params = CommitmentParams(lam=1, n=2, p=1, theta=theta)
    psi0 = commit_copy(0, params)
    assert set(psi0.amplitudes) == {(0, 0), (0, 2)}
    assert all(a == pytest.approx(2**-0.5) for a in psi0.amplitudes.values())


def test_commit_copy_norm_for_random_theta():
    params = fixed_params(lam=2, n=4, seed=5)
    for b in (0, 1):
        copy = commit_copy(b, params)
        norm = sum(abs(a) ** 2 for a in copy.amplitudes.values())
        assert norm == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("b", [0, 1])
def test_honest_accept_probability_is_one(p, b):
    params = fixed_params(p=p)
    committed = honest_commit(b, params)
    assert accept_probability(b, committed, params) == pytest.approx(1.0, abs=1e-10)


def test_accept_probability_orthogonal_reference():
    # A single-copy state orthogonal to the reference passes its SWAP test
    # with probability exactly 1/2.
    params = fixed_params()
    orthogonal = PureState((2, 2), {(0, 1): 1.0})  # no overlap with sum_j |jj>
    prob = accept_probability(1, orthogonal, params)
    assert prob == pytest.approx(0.5, abs=1e-12)


def test_cross_accept_probability_band_and_formula():
    # Committing honestly to 0 and revealing 1: the acceptance probability is
    # (1 + |<psi1|psi0>|^2)/2 per copy, which lives in [1/2, 1/2 + 2^-(n-lam)-ish].
    params = fixed_params(lam=1, n=2, seed=33)
    psi0, psi1 = commit_copy(0, params), commit_copy(1, params)
    committed = honest_commit(0, params)
    prob = accept_probability(1, committed, params)
    ov = abs(psi1.inner(psi0)) ** 2
    assert prob == pytest.approx((1 + ov) / 2, abs=1e-12)
    assert 0.5 <= prob <= 0.5 + 2.0 ** (-(params.n - params.lam) - 1) + 0.25


def test_product_povm_equals_subset_average_dense_p2():
    params = fixed_params(p=2, seed=8)
    psi0 = commit_copy(0, params).dense()
    m_single = 0.5 * (np.eye(16) + np.outer(psi0, psi0.conj()))
    product = np.kron(m_single, m_single)
    dim = 16
    average = np.zeros_like(product)
    for subset in ((), (0,), (1,), (0, 1)):
        factors = [
            np.outer(psi0, psi0.conj()) if i in subset else np.eye(dim) for i in range(2)
        ]
        average += 0.25 * np.kron(factors[0], factors[1])
    assert np.abs(product - average).max() < 1e-10


def test_product_povm_equals_subset_average_action_p3():
    # p = 3 via matrix-free action on random vectors, avoiding a 4096^2 kron.
    params = fixed_params(p=3, seed=9)
    psi = commit_copy(1, params).dense()
    proj = np.outer(psi, psi.conj())
    m_single = 0.5 * (np.eye(16) + proj)
    rng = rng_for(10)
    for _ in range(5):
        vec = rng.standard_normal(16**3) + 1j * rng.standard_normal(16**3)
        block = vec.reshape(16, 16, 16)
        via_product = block
        for axis in range(3):
            via_product = np.moveaxis(
                np.tensordot(m_single, via_product, axes=([1], [axis])), 0, axis
            )
        via_average = np.zeros_like(block)
        for subset in itertools.chain.from_iterable(
            itertools.combinations(range(3), r) for r in range(4)
        ):
            term = block
            for axis in range(3):
                if axis in subset:
                    term = np.moveaxis(np.tensordot(proj, term, axes=([1], [axis])), 0, axis)
            via_average += term / 8
        assert np.abs(via_product - via_average).max() < 1e-10


def test_malicious_committer_validation_and_materialization():
    params = fixed_params(p=2, seed=40)
    psi0 = commit_copy(0, params)
    with pytest.raises(ValueError):
        MaliciousCommitter("broken", ((0.5, (psi0, psi0)),))  # squared norm 0.25
    with pytest.raises(ValueError, match="all terms must share the copy count"):
        MaliciousCommitter("ragged", ((0.5, (psi0, psi0)), (0.5, (psi0,))))
    honest = MaliciousCommitter("honest-0", ((1.0, (psi0, psi0)),))
    materialized = honest.initial_state()
    direct = honest_commit(0, params)
    overlap = materialized.inner(direct)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-10)


def test_binding_structured_path_matches_dense_route():
    # Evaluate p_b through accept_probability on the materialized, opened
    # state and compare with the per-copy term computation.
    params = fixed_params(lam=1, n=2, p=2, seed=41)
    rng = rng_for(42)
    catalog = builtin_adversaries(params, rng)
    for name in ("honest-0", "half-angle", "random-rotation"):
        adv = catalog[name]
        report = binding_experiment(adv, params)
        for b in (0, 1):
            state = adv.initial_state()
            vec = state.dense()
            if adv.open_r is not None:
                u = adv.open_r(b)
                block = vec.reshape(4, 4, 4, 4)  # C1, R1, C2, R2
                block = np.moveaxis(np.tensordot(u, block, axes=([1], [1])), 0, 1)
                block = np.moveaxis(np.tensordot(u, block, axes=([1], [3])), 0, 3)
                vec = block.reshape(-1)
            opened = PureState.from_dense(vec, state.register_shape)
            dense_prob = accept_probability(b, opened, params)
            assert report.quantities[f"p{b}"] == pytest.approx(dense_prob, abs=1e-10)


def test_binding_bound_holds_for_catalog():
    for lam, n in ((1, 2), (2, 4)):
        for p in (1, 2, 4):
            params = fixed_params(lam=lam, n=n, p=p, seed=50 + p)
            catalog = builtin_adversaries(params, rng_for(60 + p))
            for adv in catalog.values():
                report = binding_experiment(adv, params)
                assert report.flags["p0_plus_p1_le_bound"], (lam, n, p, adv.name)
                assert report.flags["per_copy_fidelity_le_bound"]


def test_honest_adversaries_have_unit_acceptance():
    params = fixed_params(lam=2, n=4, p=4, seed=51)
    catalog = builtin_adversaries(params, rng_for(52))
    assert binding_experiment(catalog["honest-0"], params).quantities["p0"] == pytest.approx(
        1.0, abs=1e-10
    )
    assert binding_experiment(catalog["honest-1"], params).quantities["p1"] == pytest.approx(
        1.0, abs=1e-10
    )


def per_copy_fidelity_reference(params):
    """The fidelity of both bits' one-copy states traced to C, through ``qla.fidelity``."""
    red0, red1 = (
        DensityOperator.from_dense(partial_trace_pure(commit_copy(b, params), [0]), (params.n,))
        for b in (0, 1)
    )
    return fidelity(red0, red1)


def test_per_copy_fidelity_bound_sampled():
    rng = rng_for(53)
    for lam, n in ((1, 2), (2, 4)):
        cap = 2.0 ** -(n - lam)
        for _ in range(25):
            params = CommitmentParams(lam=lam, n=n, p=1, theta=sample_haar(n, rng))
            reference = per_copy_fidelity_reference(params)
            assert reference <= cap + 1e-9
            assert abs(commitments.per_copy_fidelity(params) - reference) <= 1e-12


@st.composite
def fidelity_points(draw):
    """(seed, lam, n) with 1 <= lam < n <= 6."""
    n = draw(st.integers(2, 6))
    return draw(st.integers(0, 2**32)), draw(st.integers(1, n - 1)), n


@settings(max_examples=25, deadline=None)
@given(fidelity_points())
def test_per_copy_fidelity_closed_form_matches_the_partial_trace_route(point):
    seed, lam, n = point
    params = CommitmentParams(lam=lam, n=n, p=1, theta=sample_haar(n, rng_for(seed)))
    closed = commitments.per_copy_fidelity(params)
    assert abs(closed - per_copy_fidelity_reference(params)) <= 1e-12
    assert closed <= 2.0 ** -(n - lam) + 1e-12


@pytest.mark.parametrize("lam,n", [(1, 2), (1, 4), (2, 3), (3, 6)])
def test_per_copy_fidelity_pins_a_basis_state_and_the_cap(lam, n):
    # |0> lies in one prefix block: F = 1 / 2^n. The uniform superposition has
    # norm 2^(-lam/2) in each of the 2^lam blocks: F = 2^lam / 2^n, the cap.
    zero = CommitmentParams(lam=lam, n=n, p=1, theta=PureState((n,), {(0,): 1.0}))
    assert commitments.per_copy_fidelity(zero) == 2.0**-n
    amp = 2.0 ** (-n / 2)
    uniform = PureState((n,), {(x,): amp for x in range(1 << n)})
    capped = CommitmentParams(lam=lam, n=n, p=1, theta=uniform)
    assert commitments.per_copy_fidelity(capped) == pytest.approx(2.0 ** -(n - lam), abs=1e-15)


def test_binomial_identity_behind_sum_bound():
    for n_minus_lam in (1, 2, 3):
        for p in (1, 2, 4):
            r = 2.0 ** (-n_minus_lam / 2)
            direct = sum(math.comb(p, s) * r**s for s in range(p + 1)) / 2**p
            assert direct == pytest.approx(((1 + r) / 2) ** p, abs=1e-12)


def test_fidelity_sum_inequality_on_random_triples():
    # F(rho, xi) + F(sigma, xi) <= 1 + sqrt(F(rho, sigma))
    from dense_reference import random_density

    rng = rng_for(54)
    for _ in range(15):
        rho, sigma, xi = (random_density(rng, 4) for _ in range(3))
        lhs = fidelity(rho, xi) + fidelity(sigma, xi)
        assert lhs <= 1 + math.sqrt(fidelity(rho, sigma)) + 1e-8


def test_bit_one_reduced_state_is_maximally_mixed_for_any_theta():
    params = fixed_params(lam=2, n=3, seed=55)
    committed = DensityOperator.from_pure(honest_commit(1, params))
    reduced = partial_trace(committed, [0])
    assert np.allclose(reduced.dense, np.eye(8) / 8, atol=1e-12)


def test_hiding_distance_no_common_copies_is_single_key():
    report = hiding_distance(lam=2, n=3, p=1, t=0)
    assert report.quantities["td_hiding"] == pytest.approx(0.0, abs=1e-10)
    assert report.flags["hiding_matches_multikey"]


@pytest.mark.parametrize("p,t", [(3, -2), (1, -1)])
def test_hiding_distance_rejects_negative_common_copies(p, t, capsys):
    with pytest.raises(ValueError, match=f"need t >= 0 common copies, got t={t}"):
        hiding_distance(lam=1, n=2, p=p, t=t)
    argv = ["commit-hiding", "--lam", "1", "--n", "2", "--p", str(p), "--t", str(t)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"chs-lab commit-hiding: need t >= 0 common copies, got t={t}\n"
    )


@pytest.mark.parametrize(
    "lam,n,p,message",
    [
        (1, 1, 1, "need n >= lam \\+ 1, got n=1, lam=1"),
        (1, 0, 1, "need n >= lam \\+ 1, got n=0, lam=1"),
        (1, 2, 0, "need at least one copy"),
        (-1, 0, 1, "need at least one key bit"),
    ],
)
def test_hiding_distance_refuses_bad_sizes_before_any_work(
    lam, n, p, message, capsys, monkeypatch
):
    def no_work(*args, **kwargs):
        raise AssertionError("started the distance for refused sizes")

    monkeypatch.setattr(prsg, "relation_classes", no_work)
    monkeypatch.setattr(sectors, "_keys", no_work)
    with pytest.raises(ValueError, match=message):
        hiding_distance(lam, n, p, t=1)
    assert main(["commit-hiding", "--lam", str(lam), "--n", str(n), "--p", str(p)]) == 2
    assert capsys.readouterr().err.startswith("chs-lab commit-hiding: need ")


def test_binding_refuses_an_over_budget_copy_before_any_work(capsys, monkeypatch):
    # At n = 7 one (C, R) copy has 2^14 = 16384 amplitudes, over the default
    # dense budget: refused before theta or the Haar rotation is drawn.
    def no_work(*args, **kwargs):
        raise AssertionError("started the binding experiment for a refused copy")

    monkeypatch.setattr(commitments, "sample_haar", no_work)
    monkeypatch.setattr(np.linalg, "qr", no_work)
    assert main(["commit-binding", "--lam", "1", "--n", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dense dimension 16384 exceeds budget" in captured.err
    assert captured.err.startswith("chs-lab commit-binding: ")
    assert captured.err.count("\n") == 1


def test_binding_refuses_an_unknown_adversary_before_any_work(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("started the binding experiment for an unknown adversary")

    params = fixed_params()
    assert tuple(builtin_adversaries(params, rng_for(1))) == commitments.ADVERSARIES
    monkeypatch.setattr(commitments, "sample_haar", no_work)
    monkeypatch.setattr(np.linalg, "qr", no_work)
    assert main(["commit-binding", "--lam", "1", "--n", "2", "--adversary", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "chs-lab commit-binding: unknown adversary 'nope'; "
        "choose from ['half-angle', 'honest-0', 'honest-1', 'random-rotation']\n"
    )


@pytest.mark.parametrize("lam", [0, -1])
def test_binding_refuses_lam_below_one(lam, capsys):
    assert main(["commit-binding", "--lam", str(lam), "--n", str(lam + 2)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "chs-lab commit-binding: need at least one key bit\n"
    with pytest.raises(ValueError, match="need at least one key bit"):
        fixed_params(lam=lam, n=lam + 2)


def test_hiding_distance_keeps_its_moments_real():
    # The closed form counts its pieces on the relation classes, one class of
    # orderings that share their committed prefixes each, and the cross-check
    # builds one real block per class row: at (2, 3, 1, 2) 19 orderings of 3
    # registers and 91 block entries, and a 37,888-byte bound at 32 words per
    # ordering and register and per block entry. It peaks at ~16 KB
    # (tracemalloc, numpy 2.4), mostly fixed per-array overhead. Counting over
    # the 512 flat indices peaked at ~74 KB; the 4 real blocks of equal
    # committed prefixes held 4 * 128^2 floats, 524,288 bytes.
    lam, n, p, t = 2, 3, 1, 2
    space = relation_classes(n, lam, p + t)
    orderings = sum(len(group.counts) * group.dim for group in space.groups)
    entries = sum(len(group.counts) * group.dim**2 for group in space.groups)
    hiding_distance(lam, n, p, t)  # first-call allocations
    tracemalloc.start()
    try:
        hiding_distance(lam, n, p, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 8 * (orderings * (p + t) + entries)


def test_hiding_distance_counts_its_pieces_as_key_classes():
    # k_Tb and the piece count come from one key-class count with xi_0's folds
    # on the committed copies; the pairwise fold tables serve the cross-check.
    source = inspect.getsource(commitments)
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "sectors"
        for alias in node.names
    }
    assert imported == {"key_classes", "sector_trace_distance"}
    with mock.patch.object(sectors, "key_classes", wraps=sectors.key_classes) as spy:
        report = hiding_distance(2, 3, 2, 1)
    spy.assert_called_once_with(mock.ANY, folds=((0, 1), (1, 2)))
    assert report.quantities["td_hiding"] == pytest.approx(269 / 960, abs=1e-15)


def test_hiding_distance_crosscheck():
    report = hiding_distance(lam=2, n=3, p=1, t=1)
    assert report.flags["hiding_matches_multikey"]
    assert report.quantities["route_difference"] <= 1e-9
    assert report.quantities["td_hiding"] > 0


@pytest.mark.parametrize(
    "point",
    [
        (2, 4, 1, 2),  # n (t + p) = 12, the largest a flat-index count admitted
        (1, 2, 3, 3),
        (2, 4, 2, 2),  # past it: the class count is bounded by the space alone
        (3, 5, 1, 2),
        (2, 3, 2, 3),
        (2, 5, 1, 2),
    ],
)
def test_hiding_distance_matches_the_multikey_route_at_the_dense_budget_edge(point):
    report = hiding_distance(*point)
    assert report.quantities["route_difference"] <= 1e-12
    assert report.flags["hiding_matches_multikey"]


@pytest.mark.parametrize("p, t", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_hiding_distance_at_large_n_has_its_leading_term(p, t):
    # At lam = 16, n = 48 the distance is L / 2^(lam + 1) to first order, with
    # L = C(p + t, 2) - C(t, 2) the register pairs that touch a committed copy,
    # and the two routes agree to 1e-12 relative.
    report = hiding_distance(16, 48, p, t, Budgets(max_type_count=10**90))
    td = report.quantities["td_hiding"]
    L = math.comb(p + t, 2) - math.comb(t, 2)
    assert abs(td * 2**17 - L) <= L**2 / 2**16
    assert report.quantities["route_difference"] <= 1e-12 * td
    assert report.flags["hiding_matches_multikey"]


def test_hiding_distance_refuses_a_space_that_misses_a_sector(monkeypatch):
    def short(n, lam, size, budgets):
        space = relation_classes(n, lam, size, budgets)
        group = space.groups[-1]
        group = group._replace(counts=(group.counts[0] - 1, *group.counts[1:]))
        return space._replace(groups=(*space.groups[:-1], group))

    monkeypatch.setattr(prsg, "relation_classes", short)
    with pytest.raises(RuntimeError, match="the relation classes miss or repeat a sector"):
        hiding_distance(2, 3, 1, 2)


@st.composite
def hiding_points(draw):
    """(lam, n, p, t) with n >= lam + 1, p >= 1, t >= 0 and dimension 2^(n(t+p)) <= 256."""
    lam = draw(st.integers(1, 2))
    n = draw(st.integers(lam + 1, 3))
    p = draw(st.integers(1, 8 // n))
    t = draw(st.integers(0, 8 // n - p))
    return lam, n, p, t


@settings(max_examples=15, deadline=None)
@given(hiding_points())
@example((1, 2, 1, 0))
@example((2, 3, 2, 0))
@example((1, 2, 2, 2))
@example((2, 3, 2, 1))  # dimension 512
@example((2, 3, 1, 2))
def test_hiding_distance_matches_the_commit_state_route(point):
    lam, n, p, t = point
    report, reference = hiding_distance(lam, n, p, t), hiding_reference(lam, n, p, t)
    assert report.flags == reference.flags
    assert report.bounds == reference.bounds
    assert report.quantities.keys() == reference.quantities.keys()
    for key, value in reference.quantities.items():
        assert abs(report.quantities[key] - value) <= 1e-12, key
