import itertools
import math

import numpy as np
import pytest

from chslab.budgets import BudgetExceeded, Budgets
from chslab.haar import rng_for
from chslab.qla import DensityOperator, gram_trace_distance
from chslab.typestates import (
    OrderedTuple,
    PermutationVerdict,
    TypeVector,
    apply_phase,
    distinct_orderings,
    estimate_cf_probability,
    exact_cf_probability,
    is_l_fold_prefix_cf,
    key_average,
    permutation_average_verdict,
    sample_type,
    sample_type_conditioned,
    split_average,
    type_state,
)


@pytest.mark.parametrize(
    "elements", [(), (3,), (1, 1), (2, 0, 1), (0, 0, 1), (1, 0, 1, 0), (2, 2, 0, 1, 2), (5, 5, 5)]
)
def test_distinct_orderings_are_the_sorted_distinct_permutations(elements):
    assert distinct_orderings(elements) == sorted(set(itertools.permutations(elements)))


def test_type_state_singleton_and_collision():
    single = type_state(TypeVector((5,), 3, 3))
    assert single.amplitudes == {(5,): 1.0}
    repeated = type_state(TypeVector((0, 0), 2, 2))
    assert repeated.amplitudes == {(0, 0): 1.0}


def test_type_state_two_distinct_elements():
    state = type_state(TypeVector((0, 1), 2, 2))
    assert set(state.amplitudes) == {(0, 1), (1, 0)}
    for amp in state.amplitudes.values():
        assert amp == pytest.approx(2**-0.5)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_collision_free_expansion(t):
    # every ordering of a collision-free type carries amplitude 1/sqrt(t!)
    T = TypeVector(tuple(range(t)), 3, 3)
    state = type_state(T)
    assert len(state.amplitudes) == math.factorial(t)
    assert np.allclose(list(state.amplitudes.values()), math.factorial(t) ** -0.5)


@pytest.mark.parametrize("elements", [(0, 1), (0, 1, 2), (1, 2, 4, 7), (0, 0, 1)])
def test_projector_equals_permutation_average(elements):
    # |T><T| = E_{v from T}[ sum_sigma |v><sigma(v)| ] for collision-free T,
    # checked densely; repeated elements scale the average by prod_i T_i!.
    t = len(elements)
    T = TypeVector(elements, 3, 3)
    proj = DensityOperator.from_pure(type_state(T)).to_dense()
    orderings = distinct_orderings(elements)
    acc = np.zeros_like(proj)
    for v in orderings:
        for sigma in itertools.permutations(range(t)):
            u = tuple(v[sigma[i]] for i in range(t))
            acc[_basis_index(v, 3), _basis_index(u, 3)] += 1.0 / len(orderings)
    repeats = 1.0
    for mult in T.multiplicities().values():
        repeats *= math.factorial(mult)
    assert np.allclose(repeats * proj, acc, atol=1e-10)


def _basis_index(label, width):
    flat = 0
    for value in label:
        flat = (flat << width) | value
    return flat


def test_prefix_cf_examples():
    # distinct 2-bit prefixes with one suffix bit
    T = TypeVector((0b000, 0b010), 3, 2)
    assert is_l_fold_prefix_cf(T, 1)
    # {00,01} and {10,11} hold the same pairwise XOR of prefixes
    T = TypeVector((0b000, 0b010, 0b100, 0b110), 3, 2)
    assert is_l_fold_prefix_cf(T, 1)
    assert not is_l_fold_prefix_cf(T, 2)
    # a single ell-subset is vacuously collision free
    assert is_l_fold_prefix_cf(TypeVector((3, 3), 2, 2), 2)
    # repeated elements collide at ell=1
    assert not is_l_fold_prefix_cf(TypeVector((3, 3, 1), 2, 2), 1)


def test_prefix_cf_budget():
    T = TypeVector(tuple(range(16)), 5, 5)
    with pytest.raises(BudgetExceeded):
        is_l_fold_prefix_cf(T, 8, Budgets(max_subset_pairs=10))


def test_higher_fold_implies_lower_fold():
    rng = rng_for(42)
    checked = 0
    while checked < 30:
        T = sample_type(64, 4, rng, prefix_bits=4)
        if is_l_fold_prefix_cf(T, 2):
            assert is_l_fold_prefix_cf(T, 1)
            checked += 1


def test_sample_type_unique_alphabet():
    rng = rng_for(1)
    T = sample_type(1, 5, rng)
    assert T.elements == (0, 0, 0, 0, 0)


def test_sample_type_singleton_balance():
    rng = rng_for(2)
    counts = [0, 0]
    trials = 20_000
    for _ in range(trials):
        counts[sample_type(2, 1, rng).elements[0]] += 1
    sigma = (trials * 0.25) ** 0.5
    assert abs(counts[0] - trials / 2) < 3 * sigma


def test_sample_type_uniform_over_multisets():
    # N=4, t=2: all C(5,2)=10 multisets equally likely within 3 sigma
    rng = rng_for(3)
    trials = 100_000
    counts: dict[tuple, int] = {}
    for _ in range(trials):
        key = sample_type(4, 2, rng).elements
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 10
    expected = trials / 10
    sigma = (trials * 0.1 * 0.9) ** 0.5
    for value in counts.values():
        assert abs(value - expected) < 3 * sigma


def test_sample_type_conditioned_matches_unconditioned():
    rng_a, rng_b = rng_for(4), rng_for(4)
    for _ in range(50):
        a = sample_type(8, 2, rng_a)
        b = sample_type_conditioned(8, 2, lambda _: True, rng_b)
        assert a.elements == b.elements


def test_sample_type_conditioned_acceptance_and_exhaustion():
    rng = rng_for(5)
    accepted = 0
    trials = 400
    for _ in range(trials):
        T = sample_type(256, 3, rng, prefix_bits=8)
        accepted += is_l_fold_prefix_cf(T, 1)
    assert accepted / trials > 1 - 20 * 9 / 256  # loose 1 - O(t^2/N)
    with pytest.raises(RuntimeError):
        sample_type_conditioned(2, 3, lambda _: False, rng, max_rejects=50)


def test_sample_type_refuses_positions_beyond_int64():
    rng = rng_for(1)
    assert max(sample_type(1 << 62, 2, rng).elements) < 1 << 62
    with pytest.raises(ValueError, match=r"N \+ t - 1 must be below 2\*\*63"):
        sample_type(1 << 63, 1, rng)
    with pytest.raises(ValueError, match=r"cannot sample t=2 of N=18446744073709551616"):
        sample_type(1 << 64, 2, rng)


def test_apply_phase_examples():
    from chslab.qla import PureState

    plus = PureState((1,), {(0,): 2**-0.5, (1,): 2**-0.5})
    assert apply_phase(0, 1, plus, [0]).amplitudes == plus.amplitudes
    minus = apply_phase(1, 1, plus, [0])
    assert minus.amplitudes[(0,)] == pytest.approx(2**-0.5)
    assert minus.amplitudes[(1,)] == pytest.approx(-(2**-0.5))
    # lam=1, n=2, k=1 on |10>: prefix bit is 1, so the amplitude flips sign
    basis10 = PureState((2,), {(0b10,): 1.0})
    assert apply_phase(1, 1, basis10, [0]).amplitudes[(0b10,)] == -1.0
    with pytest.raises(ValueError):
        apply_phase(2, 1, plus, [0])
    with pytest.raises(ValueError):
        apply_phase(0, 2, plus, [0])  # register narrower than the prefix


def test_permutation_average_identity_and_swap():
    v = OrderedTuple((0b000, 0b010), 3, 2)  # prefixes 00 and 01
    assert permutation_average_verdict(v, (0, 1), 1, 2) is PermutationVerdict.IDENTITY_KEPT
    # 4-key exact average cancels the swapped outer product
    assert permutation_average_verdict(v, (1, 0), 1, 2) is PermutationVerdict.ZEROED


def test_permutation_average_block_preserving():
    v = OrderedTuple((0b000, 0b010, 0b100), 3, 2)
    # swapping only the first two positions keeps the first block in place
    assert permutation_average_verdict(v, (1, 0, 2), 2, 2) is PermutationVerdict.IDENTITY_KEPT
    assert permutation_average_verdict(v, (2, 1, 0), 2, 2) is PermutationVerdict.ZEROED


def test_permutation_average_requires_prefix_cf():
    v = OrderedTuple((0b000, 0b001), 3, 2)  # both prefixes 00
    with pytest.raises(ValueError):
        permutation_average_verdict(v, (0, 1), 1, 2)
    good = OrderedTuple((0b000, 0b010), 3, 2)
    with pytest.raises(ValueError):
        permutation_average_verdict(good, (0, 0), 1, 2)


def test_key_average_equals_split_average_on_cf_types():
    rng = rng_for(6)
    for lam, m, t, ell in ((2, 0, 2, 1), (2, 1, 3, 2), (3, 1, 3, 1), (3, 0, 3, 2)):
        T = sample_type_conditioned(
            1 << (lam + m), t, lambda ty: is_l_fold_prefix_cf(ty, ell), rng, prefix_bits=lam
        )
        assert gram_trace_distance(key_average(T, ell, lam), split_average(T, ell)) < 1e-10


def test_key_average_split_average_small_case_by_hand():
    # T = {00||a, 01||b}, lam=2, ell=1: both sides are the uniform mixture of
    # |a'><a'| (x) |b'><b'| over the two orders of the pair.
    T = TypeVector((0b000, 0b011), 3, 2)
    rhs = split_average(T, 1)
    expected = np.zeros((64, 64))
    for first, rest in (((0b000,), (0b011,)), ((0b011,), (0b000,))):
        idx = (first[0] << 3) | rest[0]
        expected[idx, idx] += 0.5
    assert np.allclose(rhs.to_dense(), expected, atol=1e-12)
    lhs = key_average(T, 1, 2)
    assert gram_trace_distance(lhs, rhs) < 1e-12


def test_key_average_split_average_negative_control():
    bad = TypeVector((0b000, 0b001, 0b110), 3, 2)  # shared prefix 00
    assert not is_l_fold_prefix_cf(bad, 1)
    with pytest.raises(ValueError):
        key_average(bad, 1, 2)
    gap = gram_trace_distance(key_average(bad, 1, 2, check=False), split_average(bad, 1))
    assert gap > 1e-3


def test_full_split_uses_whole_type():
    T = TypeVector((1, 2), 3, 3)
    both = split_average(T, 2)
    assert gram_trace_distance(both, DensityOperator.from_pure(type_state(T))) < 1e-12


def test_cf_probability_exact_and_estimate():
    assert exact_cf_probability(4, 0, 1, 1) == 1.0
    # t close to the alphabet size: collisions dominate
    assert exact_cf_probability(2, 0, 1, 4) == pytest.approx(0.02857142857142857)
    rng = rng_for(7)
    est = estimate_cf_probability(4, 0, 1, 3, 4000, rng)
    exact = exact_cf_probability(4, 0, 1, 3)
    sigma = (exact * (1 - exact) / 4000) ** 0.5
    assert abs(est - exact) < 4 * sigma


def test_cf_probability_rate_calibrated_at_small_prefix():
    # Fit the miss-rate constant exhaustively at lam=6 and check the Monte-Carlo
    # estimate at lam=10 against the t^(2l)/2^lam rate with that constant.
    t, ell = 3, 2
    miss6 = 1.0 - exact_cf_probability(6, 0, ell, t)
    c = miss6 * 2**6 / t ** (2 * ell)
    assert c <= 4.0
    rng = rng_for(8)
    trials = 4000
    est = estimate_cf_probability(10, 0, ell, t, trials, rng)
    sigma = max((est * (1 - est) / trials) ** 0.5, 1e-4)
    assert est >= 1.0 - 4.0 * t ** (2 * ell) / 2**10 - 3 * sigma
    assert est >= 1.0 - 2.0 * c * t ** (2 * ell) / 2**10 - 3 * sigma
