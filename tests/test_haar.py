import math

import numpy as np
import pytest

from chslab.budgets import BudgetExceeded, Budgets
from chslab.haar import HaarSampler, exact_moment, haar_statevector, sample_haar, symmetric_projector
from chslab.runner import rng_for


def test_sampler_deterministic_per_trial():
    a = HaarSampler(3, rng_seed=99)
    b = HaarSampler(3, rng_seed=99)
    assert np.array_equal(a.statevector(5), b.statevector(5))
    assert not np.allclose(a.statevector(5), a.statevector(6))
    # batch order does not change the per-trial streams
    batch = a.statevectors(4, start_trial=4)
    assert np.array_equal(batch[1], b.statevector(5))


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
        power = np.einsum("bi,bj->bij", vecs, vecs).reshape(samples, -1)
        mc = power.T @ power.conj() / samples
        vals = np.linalg.eigvalsh(0.5 * (mc + mc.conj().T) - exact)
        return 0.5 * np.abs(vals).sum()

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
