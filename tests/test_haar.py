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
    rng_for,
    sample_haar,
    sampled_moment_distance,
    symmetric_projector,
)

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


def _reference_row(n, seed, trial):
    """Box-Muller of the trial's Philox words, one word at a time in scalar floats."""
    dim = 1 << n
    words = HaarSampler(n, seed).generator(trial).bit_generator.random_raw(2 * dim)
    return _reference_row_of_words(words, dim)


def _reference_row_of_words(words, dim):
    u = [((int(w) >> 11) + 1) * 2.0**-53 for w in words]
    row = np.array([
        math.sqrt(-math.log(u[j]))
        * complex(math.cos(2 * math.pi * u[dim + j]), math.sin(2 * math.pi * u[dim + j]))
        for j in range(dim)
    ])
    return row / np.linalg.norm(row)


def _assert_rows_are_fresh_streams(vecs, n, seed, start, rows):
    """The given rows of a batch from ``start`` match the scalar reference."""
    for i in rows:
        assert np.abs(vecs[i] - _reference_row(n, seed, start + i)).max() < 1e-14


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("seed", [0, 101, 2**64 + 3, -1])
def test_batched_rows_are_bitwise_the_per_trial_streams(n, seed):
    sampler = HaarSampler(n, rng_seed=seed)
    chunk = 4 * CHUNK >> n  # trials the sampler draws at once at n qubits
    count = 2 * chunk + 2
    vecs = sampler.statevectors(count)
    assert vecs.shape == (count, 1 << n)
    _assert_rows_are_fresh_streams(vecs, n, seed, 0, (0, chunk - 1, chunk, chunk + 1, count - 1))
    # every other row is the same bits in a batch that starts or ends elsewhere
    for prefix in (0, 1, chunk - 1, chunk, chunk + 1):
        assert np.array_equal(sampler.statevectors(prefix), vecs[:prefix])
    for start in (1, chunk - 1, chunk + 1):
        assert np.array_equal(sampler.statevectors(count - start, start), vecs[start:])
    # the trial index wraps modulo 2^64 inside the batch
    wrapped = sampler.statevectors(5, 2**64 - 2)
    _assert_rows_are_fresh_streams(wrapped, n, seed, 2**64 - 2, range(5))
    assert np.array_equal(wrapped[2:], vecs[:3])


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    seed=st.integers(-(2**65), 2**65),
    start=st.integers(-(2**65), 2**65),
    count=st.integers(0, 40),
    data=st.data(),
)
def test_batched_rows_match_streams_property(n, seed, start, count, data):
    sampler = HaarSampler(n, rng_seed=seed)
    vecs = sampler.statevectors(count, start_trial=start)
    assert vecs.shape == (count, 1 << n)
    _assert_rows_are_fresh_streams(vecs, n, seed, start, range(count))
    split = data.draw(st.integers(0, count))
    head = sampler.statevectors(split, start_trial=start)
    tail = sampler.statevectors(count - split, start_trial=start + split)
    assert np.array_equal(np.concatenate([head, tail]), vecs)


def _box_muller_of_words(words, dim):
    """Rows of ``haar._box_muller`` for rows of ``2 * dim`` raw Philox words."""
    u = ((words.reshape(-1, 2 * dim) >> np.uint64(11)) + np.uint64(1)).astype(float) * 2.0**-53
    rows = np.empty((len(u), dim), dtype=complex)
    haar._box_muller(u, rows, haar._turn_table())
    return rows


@pytest.mark.parametrize("seed", [0, -1, 2**64 + 3])
def test_rows_tile_one_philox_stream(seed):
    # trial k reads words k * 2^(n+1), ... of rng_for(seed)'s raw stream
    key = rng_for(seed).bit_generator.state["state"]["key"]
    for n in (1, 3):
        dim = 1 << n
        head = _box_muller_of_words(rng_for(seed).bit_generator.random_raw(6 * dim), dim)
        assert np.array_equal(HaarSampler(n, seed).statevectors(3), head)
        # the last two trials start at Philox block (2^64 - 2) * 2^(n-1) of the
        # same key; a batch from there wraps to trials 0 and 1
        tail = np.random.Philox(key=key, counter=(2**64 - 2) << (n - 1)).random_raw(4 * dim)
        wrapped = HaarSampler(n, seed).statevectors(4, 2**64 - 2)
        assert np.array_equal(wrapped, np.concatenate([_box_muller_of_words(tail, dim), head[:2]]))


def test_extreme_words_give_finite_normals():
    # word 0 is u = 2^-53, the largest modulus; word 2^64-1 is u = 1, modulus 0
    words = np.array([[0, 2**64 - 1, 0, 2**64 - 1], [0, 0, 2**64 - 1, 2**64 - 1]], dtype=np.uint64)
    rows = _box_muller_of_words(words, 2)
    assert np.isfinite(rows).all()
    assert abs(rows[0, 0]) == pytest.approx(1.0, rel=1e-15)
    assert rows[0, 1] == 0
    assert np.abs(rows[1]) == pytest.approx([math.sqrt(0.5)] * 2, rel=1e-15)


def _word(u_times_2_53):
    """The raw word whose uniform is ``u_times_2_53 / 2^53``."""
    return (u_times_2_53 - 1) << 11


def test_phases_on_turn_table_edges_match_the_scalar_reference():
    # phase uniforms u = 1 (the table's last entry), u * 2^12 integral on
    # either side of each entry, u = 2^-53 and u just below 1
    table = [j << 41 for j in (1, 2, 1023, 2048, 3071, 4095, 4096)]
    phases = [1, 2, 3, *table, *(u - 1 for u in table), *(u + 1 for u in table[:-1])]
    dim = 4
    moduli = [_word(1 << 52), _word(3), _word(1 << 53), _word(12345 << 30)]
    for start in range(0, len(phases), dim):
        phase = (phases[start : start + dim] + [1 << 53] * dim)[:dim]
        words = np.array(moduli + [_word(u) for u in phase], dtype=np.uint64)
        row = _box_muller_of_words(words, dim)[0]
        assert np.abs(row - _reference_row_of_words(words, dim)).max() < 1e-14


def test_turn_table_covers_the_whole_turn():
    cos, sin = haar._turn_table()
    assert len(cos) == len(sin) == (1 << haar._TURN_BITS) + 1
    assert (cos[0], sin[0]) == (1.0, 0.0)
    assert abs(cos[-1] - 1.0) < 1e-16 and abs(sin[-1]) < 1e-15


def test_statevectors_rejects_a_negative_count():
    with pytest.raises(ValueError, match="count must be >= 0, got -1"):
        HaarSampler(2, rng_seed=1).statevectors(-1)


def test_sampler_rejects_zero_qubits_and_budget_overflow():
    with pytest.raises(ValueError, match="need at least one qubit"):
        HaarSampler(0, 1).statevectors(3)
    with pytest.raises(BudgetExceeded, match="dense dimension 8192 exceeds budget 4096"):
        HaarSampler(13, 1).statevector(0)


def test_runner_streams_are_the_sampler_streams():
    for seed in (0, 99, 2**64 + 3, -1):
        sampler = HaarSampler(2, rng_seed=seed)
        raw = sampler.generator(0).bit_generator.random_raw(12)
        assert np.array_equal(raw, rng_for(seed).bit_generator.random_raw(12))
        for trial in (0, 5, 2**64 - 1):
            a = sampler.generator(trial + 2**64).standard_normal(8)
            assert np.array_equal(a, sampler.generator(trial).standard_normal(8))


@pytest.mark.parametrize(
    "call",
    [
        lambda: HaarSampler(True, 0),
        lambda: HaarSampler(1.0, 0),
        lambda: HaarSampler(1, False),
        lambda: HaarSampler(1, "3"),
        lambda: HaarSampler(1, 3).statevectors(True),
        lambda: HaarSampler(1, 3).statevectors(2, 1.0),
        lambda: HaarSampler(1, 3).generator(np.bool_(True)),
        lambda: rng_for(True),
        lambda: rng_for(2.0),
    ],
)
def test_sampler_refuses_bools_and_non_integers(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize("cast", [int, np.int64, np.uint64, np.int8])
def test_sampler_takes_numpy_integers_as_ints(cast):
    sampler = HaarSampler(cast(1), cast(3))
    assert sampler == HaarSampler(1, 3)
    assert type(sampler.n_qubits) is int and type(sampler.rng_seed) is int
    vecs = sampler.statevectors(cast(2), cast(5))
    assert np.array_equal(vecs, HaarSampler(1, 3).statevectors(7)[5:])
    raw = rng_for(cast(3)).bit_generator.random_raw(4)
    assert np.array_equal(raw, rng_for(3).bit_generator.random_raw(4))


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


def test_exact_moment_is_a_real_matrix_with_the_complex_route_entries():
    moment = exact_moment(4, 2)
    dense = moment.to_dense()
    assert dense.dtype == np.float64
    # the weighted outer products of the type states' dense (complex) vectors
    vecs = np.array([state.dense() for _, state in moment.ensemble])
    probs = np.array([p for p, _ in moment.ensemble])
    assert not vecs.imag.any()
    assert np.array_equal(dense, (vecs.real.T * probs) @ vecs.real)


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
    def mc_error(samples, seed):
        vecs = HaarSampler(2, rng_seed=seed).statevectors(samples)
        return sampled_moment_distance(vecs, 2)

    small = np.mean([mc_error(2000, s) for s in (55, 56, 57)])
    large = np.mean([mc_error(8000, s) for s in (58, 59, 60)])
    assert 0.3 < large / small < 0.75  # consistent with a -1/2 slope


def _dense_moment_distance(vecs, t, exact):
    """The trace distance from the N^t-dim tensor powers of the rows."""
    samples = len(vecs)
    power = vecs
    for _ in range(t - 1):
        power = np.einsum("bi,bj->bij", power, vecs).reshape(samples, -1)
    sampled = power.T @ power.conj() / samples
    vals = np.linalg.eigvalsh(0.5 * (sampled + sampled.conj().T) - exact)
    return 0.5 * float(np.abs(vals).sum())


@pytest.mark.parametrize("N,t", [(2, 2), (4, 2), (4, 3)])
def test_type_basis_moment_distance_matches_the_dense_route(N, t):
    vecs = HaarSampler(N.bit_length() - 1, rng_seed=31).statevectors(3000)
    dense = _dense_moment_distance(vecs, t, exact_moment(N, t).to_dense())
    assert abs(sampled_moment_distance(vecs, t) - dense) < 1e-12
    # a far-off sample: every row the same basis vector
    basis = np.zeros((10, N), dtype=complex)
    basis[:, 1] = 1.0
    dense = _dense_moment_distance(basis, t, exact_moment(N, t).to_dense())
    assert abs(sampled_moment_distance(basis, t) - dense) < 1e-12
    assert dense > 0.5


def test_moment_distance_checks_its_budgets():
    vecs = HaarSampler(3, rng_seed=1).statevectors(4)
    with pytest.raises(BudgetExceeded, match="types exceed enumeration budget 100"):
        sampled_moment_distance(vecs, 3, Budgets(max_type_count=100))
    with pytest.raises(BudgetExceeded, match=r"sampled_moment_distance\(N=8, t=3\): dense"):
        sampled_moment_distance(vecs, 3, Budgets(max_dense_dim=100))


def test_moment_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        exact_moment(4096, 4, Budgets(max_type_count=1000))


def test_haar_statevector_distribution_is_phase_invariant():
    rng = rng_for(10)
    vec = haar_statevector(2, rng)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
