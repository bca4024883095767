import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chslab import haar
from chslab.budgets import BudgetExceeded, Budgets
from chslab.haar import (
    HaarSampler,
    exact_moment,
    haar_statevector,
    sample_haar,
    sampled_moment_distance,
    symmetric_projector,
)
from chslab.runner import rng_for

CHUNK = haar._CHUNK_TRIALS


def test_sampler_deterministic_per_trial():
    a = HaarSampler(3, rng_seed=99)
    b = HaarSampler(3, rng_seed=99)
    assert np.array_equal(a.statevector(5), b.statevector(5))
    assert not np.allclose(a.statevector(5), a.statevector(6))
    # batch order does not change the per-trial streams
    batch = a.statevectors(4, start_trial=4)
    assert np.array_equal(batch[1], b.statevector(5))
    # single trials past the first chunk are rows of the batch, as is sample()
    vec = a.statevector(CHUNK + 2)
    assert np.array_equal(vec, b.statevectors(CHUNK + 3)[CHUNK + 2])
    assert np.array_equal(a.sample(CHUNK + 2).dense(), vec)


def _assert_rows_are_fresh_streams(n, seed, start, count):
    vecs = HaarSampler(n, rng_seed=seed).statevectors(count, start_trial=start)
    assert vecs.shape == (count, 1 << n)
    for i, row in enumerate(vecs):
        assert np.array_equal(row, haar_statevector(n, rng_for(seed, start + i)))


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("seed", [0, 101, 2**64 + 3, -1])
def test_batched_rows_are_bitwise_the_per_trial_streams(n, seed):
    for count in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1):
        _assert_rows_are_fresh_streams(n, seed, 0, count)
    # the trial index wraps modulo 2^64 inside the batch
    _assert_rows_are_fresh_streams(n, seed, 2**64 - 2, 5)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    seed=st.integers(-(2**65), 2**65),
    start=st.integers(-(2**65), 2**65),
    count=st.integers(0, 40),
)
def test_batched_rows_match_streams_property(n, seed, start, count):
    _assert_rows_are_fresh_streams(n, seed, start, count)


def test_sampler_rejects_zero_qubits_and_budget_overflow():
    with pytest.raises(ValueError, match="need at least one qubit"):
        HaarSampler(0, 1).statevectors(3)
    with pytest.raises(BudgetExceeded, match="dense dimension 8192 exceeds budget 4096"):
        HaarSampler(13, 1).statevector(0)


def test_runner_streams_are_the_sampler_streams():
    for seed, stream in ((0, 0), (99, 5), (2**64 + 3, 2**70 - 1), (-1, 7)):
        a = HaarSampler(2, rng_seed=seed).generator(stream).standard_normal(8)
        assert np.array_equal(a, rng_for(seed, stream).standard_normal(8))


def test_sample_haar_norm_and_budget():
    rng = rng_for(1)
    state = sample_haar(3, rng)
    total = sum(abs(a) ** 2 for a in state.amplitudes.values())
    assert total == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(BudgetExceeded):
        sample_haar(13, rng)
    with pytest.raises(ValueError):
        sample_haar(0, rng)


def test_single_qubit_overlap_statistics():
    # E|<0|theta>|^2 = 1/2 for a Haar qubit state
    sampler = HaarSampler(1, rng_seed=7)
    vecs = sampler.statevectors(20_000)
    overlaps = np.abs(vecs[:, 0]) ** 2
    assert abs(overlaps.mean() - 0.5) < 4 * overlaps.std() / math.sqrt(len(overlaps))


def test_first_moment_is_maximally_mixed():
    sampler = HaarSampler(2, rng_seed=8)
    vecs = sampler.statevectors(20_000)
    moment = vecs.T @ vecs.conj() / len(vecs)
    assert np.abs(moment - np.eye(4) / 4).max() < 0.02
    exact = exact_moment(4, 1).to_dense()
    assert np.allclose(exact, np.eye(4) / 4, atol=1e-12)


def test_exact_moment_small_cases():
    # N=2, t=2: uniform mixture of |00>, |11>, (|01>+|10>)/sqrt(2)
    moment = exact_moment(2, 2).to_dense()
    sym = np.zeros((4, 4))
    sym[0, 0] = sym[3, 3] = 1.0
    for a in (1, 2):
        for b in (1, 2):
            sym[a, b] = 0.5
    assert np.allclose(moment, sym / 3, atol=1e-12)
    wide = exact_moment(4, 2)
    dense = wide.to_dense()
    assert np.trace(dense).real == pytest.approx(1.0, abs=1e-12)
    rank = int((np.linalg.eigvalsh(dense) > 1e-12).sum())
    assert rank == math.comb(5, 2)


@pytest.mark.parametrize("N,t", [(2, 2), (4, 2), (4, 3)])
def test_exact_moment_is_normalized_symmetric_projector(N, t):
    moment = exact_moment(N, t).to_dense()
    projector = symmetric_projector(N, t)
    count = math.comb(N + t - 1, t)
    assert np.abs(moment - projector / count).max() < 1e-8
    # squaring the mixture and rescaling reproduces it (projector property)
    assert np.abs(count * (moment @ moment) - moment).max() < 1e-8


@pytest.mark.parametrize("N,t", [(2, 2), (2, 3), (4, 2), (4, 3)])
def test_exact_moment_unitary_invariance(N, t):
    rng = rng_for(9)
    g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    q, r = np.linalg.qr(g)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    lifted = u
    for _ in range(t - 1):
        lifted = np.kron(lifted, u)
    moment = exact_moment(N, t).to_dense()
    assert np.abs(lifted @ moment @ lifted.conj().T - moment).max() < 1e-8


def test_monte_carlo_moment_error_halves_with_4x_samples():
    exact = exact_moment(4, 2).to_dense()

    def mc_error(samples, seed):
        vecs = HaarSampler(2, rng_seed=seed).statevectors(samples)
        return sampled_moment_distance(vecs, 2, exact)

    small = np.mean([mc_error(2000, s) for s in (55, 56, 57)])
    large = np.mean([mc_error(8000, s) for s in (58, 59, 60)])
    assert 0.3 < large / small < 0.75  # consistent with a -1/2 slope


def test_moment_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        exact_moment(4096, 4, Budgets(max_type_count=1000))


def test_haar_statevector_distribution_is_phase_invariant():
    rng = rng_for(10)
    vec = haar_statevector(2, rng)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
