import tracemalloc

import numpy as np
import pytest
from dense_reference import random_density

from chslab.budgets import BudgetExceeded, Budgets
from chslab.haar import exact_moment, sample_haar
from chslab.qla import (
    DensityOperator,
    PureState,
    _support_eigh,
    fidelity,
    gram_trace_distance,
    inv_sqrt_on_support,
    partial_trace,
    partial_trace_pure,
    support_projector,
    tensor,
    trace_distance,
)

ZERO = PureState((1,), {(0,): 1.0})
ONE = PureState((1,), {(1,): 1.0})
PLUS = PureState((1,), {(0,): 2**-0.5, (1,): 2**-0.5})


def pure_op(state):
    return DensityOperator.from_pure(state)


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState((1,), {(0,): 0.5})  # not unit norm
    with pytest.raises(ValueError):
        PureState((1,), {(2,): 1.0})  # label does not fit one bit
    with pytest.raises(ValueError):
        PureState((1, 1), {(0,): 1.0})  # wrong register count
    with pytest.raises(ValueError):
        PureState((1,), {})


def test_inner_conjugates_self_whatever_the_sizes():
    a = ZERO
    c = PureState((1,), {(0,): 0.6j, (1,): 0.8})
    for bra, ket in ((a, c), (c, a), (c, PLUS), (PLUS, c)):
        assert bra.inner(ket) == pytest.approx(np.vdot(bra.dense(), ket.dense()), abs=1e-15)
    assert c.inner(a) == pytest.approx(-0.6j, abs=1e-15)


def test_hermitian_check_tolerance_is_absolute_1e_9():
    def rho(skew):  # rho - rho^T has the entries +-skew
        return np.array([[0.5, 0.25 + skew], [0.25, 0.5]])

    DensityOperator.from_dense(rho(5e-10), (1,))
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityOperator.from_dense(rho(2e-9), (1,))


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator.from_dense(np.array([[0.5, 0.3], [0.1, 0.5]]), (1,))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator.from_dense(np.eye(2), (1,))  # trace 2
    with pytest.raises(ValueError):
        DensityOperator.from_ensemble([(0.7, ZERO), (0.7, ONE)])  # probabilities sum to 1.4
    with pytest.raises(ValueError):
        DensityOperator((1,), dense=np.eye(2) / 2, ensemble=((1.0, ZERO),))
    # 2e-6 off is within numpy's default relative slack (1e-5 of 0.25), not within 1e-9
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityOperator.from_dense(np.array([[0.5, 0.25 + 2e-6], [0.25, 0.5]]), (1,))


def test_nan_fails_every_validation():
    nan = float("nan")
    with pytest.raises(ValueError, match="squared norm nan"):
        PureState((1,), {(0,): nan})
    with pytest.raises(ValueError, match="non-finite"):
        PureState.from_dense([nan, 1.0], (1,))
    with pytest.raises(ValueError, match="non-finite"):
        PureState.from_dense([np.inf, 0.0], (1,))
    with pytest.raises(ValueError, match="probability nan"):
        DensityOperator.from_ensemble([(nan, ZERO)])
    with pytest.raises(ValueError, match="probability nan"):
        DensityOperator.from_ensemble([(1.0, ZERO), (nan, ONE)])
    with pytest.raises(ValueError):
        DensityOperator.from_dense(np.array([[nan, 0.0], [0.0, 1.0]]), (1,))


def test_dense_operators_keep_the_dtype_of_their_entries():
    real = DensityOperator.from_dense(np.eye(2) / 2, (1,))
    assert real.dense.dtype == np.float64
    assert DensityOperator.from_dense([[1, 0], [0, 0]], (1,)).dense.dtype == np.float64
    phased = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    assert DensityOperator.from_dense(phased, (1,)).dense.dtype == np.complex128
    assert np.array_equal(DensityOperator.from_dense(phased, (1,)).dense, phased)
    # the same rule for a mixture written out by to_dense
    assert pure_op(PLUS).to_dense().dtype == np.float64
    y_minus = PureState((1,), {(0,): 2**-0.5, (1,): -1j * 2**-0.5})
    assert pure_op(y_minus).to_dense().dtype == np.complex128
    assert np.allclose(pure_op(y_minus).to_dense(), phased, atol=1e-15)


def test_real_mixtures_are_staged_in_a_real_array():
    # 120 type states over 512 columns: a complex staging array would be 0.94 MiB
    # next to the 2 MiB result and take the peak to 1.70 times the result
    moment = exact_moment(8, 3)
    tracemalloc.start()
    try:
        dense = moment.to_dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dense.dtype == np.float64
    assert peak < 1.55 * dense.nbytes
    # the same matrix as the complex route's weighted outer products
    vecs = np.array([state.dense() for _, state in moment.ensemble])
    probs = np.array([p for p, _ in moment.ensemble])
    assert np.abs(dense - (vecs.T * probs) @ vecs.conj()).max() < 1e-15


def test_tensor_pure_states():
    assert tensor(ZERO, ONE).amplitudes == {(0, 1): 1.0}
    uniform = tensor(PLUS, PLUS)
    assert set(uniform.amplitudes) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert np.allclose(list(uniform.amplitudes.values()), 0.5)


def test_tensor_dense_and_mixed_kinds():
    half = DensityOperator.from_dense(np.eye(2) / 2, (1,))
    quarter = tensor(half, half)
    assert np.allclose(quarter.dense, np.eye(4) / 4)
    with pytest.raises(ValueError):
        tensor(half, pure_op(ZERO))  # dense with ensemble
    prod = tensor(pure_op(ZERO), pure_op(ONE))
    assert np.allclose(prod.to_dense(), np.diag([0.0, 1.0, 0.0, 0.0]))


def test_partial_trace_product_and_entangled():
    prod = tensor(pure_op(ZERO), pure_op(ONE))
    reduced = partial_trace(prod, [0])
    assert np.allclose(reduced.dense, np.diag([1.0, 0.0]))
    epr = PureState((1, 1), {(0, 0): 2**-0.5, (1, 1): 2**-0.5})
    reduced = partial_trace(pure_op(epr), [0])
    assert np.allclose(reduced.dense, np.eye(2) / 2)
    with pytest.raises(ValueError):
        partial_trace(prod, [])


def test_partial_trace_of_phased_commit_state():
    # lam=1, n=2, shared state |00>: both keyed phase patterns act trivially on
    # prefix 0, so the reduced state on the first register is |00><00| exactly.
    psi = PureState(
        (2, 2), {(0, 0): 2**-0.5, (0, 2): 2**-0.5}
    )  # (|00>|00> + |00>|10>)/sqrt(2)
    reduced = partial_trace(pure_op(psi), [0])
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(reduced.dense, expected, atol=1e-12)


def test_partial_trace_dense_path_matches_pure_path():
    rng = np.random.default_rng(3)
    vec = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    state = PureState.from_dense(vec / np.linalg.norm(vec), (2, 2))
    via_pure = partial_trace_pure(state, [1])
    via_dense = partial_trace(pure_op(state).as_dense_operator(), [1])
    assert np.allclose(via_pure, via_dense.dense, atol=1e-12)


def test_trace_distance_basics():
    assert trace_distance(pure_op(ZERO), pure_op(ZERO)) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(pure_op(ZERO), pure_op(ONE)) == pytest.approx(1.0, abs=1e-12)
    # 2x2 eigendecomposition oracle: the difference has eigenvalues +-sqrt(1/2),
    # so the distance is 1/sqrt(2).
    assert trace_distance(pure_op(ZERO), pure_op(PLUS)) == pytest.approx(
        0.7071067811865476, abs=1e-12
    )


def test_trace_distance_is_a_metric_on_samples():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, c = (random_density(rng, 8) for _ in range(3))
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10
    assert trace_distance(pure_op(PLUS), pure_op(PLUS)) < 1e-12


def test_trace_distance_monotone_under_partial_trace():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_density(rng, 8)
        b = random_density(rng, 8)
        a3 = DensityOperator.from_dense(a.dense, (1, 1, 1))
        b3 = DensityOperator.from_dense(b.dense, (1, 1, 1))
        keep = sorted(rng.choice(3, size=2, replace=False))
        assert trace_distance(partial_trace(a3, keep), partial_trace(b3, keep)) <= (
            trace_distance(a3, b3) + 1e-8
        )


def test_fidelity_values_and_errors():
    assert fidelity(pure_op(PLUS), pure_op(PLUS)) == pytest.approx(1.0, abs=1e-10)
    assert fidelity(pure_op(ZERO), pure_op(PLUS)) == pytest.approx(0.5, abs=1e-10)
    half = DensityOperator.from_dense(np.eye(2) / 2, (1,))
    assert fidelity(half, pure_op(ZERO)) == pytest.approx(0.5, abs=1e-10)
    with pytest.raises(ValueError):
        fidelity(half, DensityOperator.from_dense(np.eye(4) / 4, (2,)))


def test_fidelity_of_rank_deficient_dense_states_ignores_eigenvalue_noise():
    # F(|theta><theta|, I/d) = 1/d. As a dense operator |theta><theta| has d - 1
    # eigenvalues of rounding noise around zero; their square roots are ~1e-8.
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in (1, 2, 3):
        d = 1 << n
        mixed = DensityOperator.from_dense(np.eye(d) / d, (n,))
        for _ in range(60):
            theta = sample_haar(n, rng)
            vec = theta.dense()
            dense = DensityOperator.from_dense(np.outer(vec, vec.conj()), (n,))
            for a, b in ((dense, mixed), (mixed, dense)):
                worst = max(worst, abs(fidelity(a, b) - 1 / d))
    assert worst < 1e-12


def test_fidelity_multiplicative_over_tensor():
    rng = np.random.default_rng(13)
    for _ in range(8):
        a, b = random_density(rng, 4), random_density(rng, 4)
        c, d = random_density(rng, 2), random_density(rng, 2)
        lhs = fidelity(tensor(a, c), tensor(b, d))
        rhs = fidelity(a, b) * fidelity(c, d)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_trace_squared_rank_inequality():
    rng = np.random.default_rng(17)
    for _ in range(20):
        rank = int(rng.integers(1, 9))
        rho = random_density(rng, 8, rank=rank).dense
        tr2 = float(np.real(np.trace(rho @ rho)))
        assert 1.0 <= rank * tr2 + 1e-9  # Tr(rho)^2 = 1 for density operators


def test_gram_trace_distance_trivial_cases():
    same = DensityOperator.from_ensemble([(0.3, ZERO), (0.7, PLUS)])
    assert gram_trace_distance(same, same) < 1e-14
    assert gram_trace_distance(pure_op(ZERO), pure_op(ONE)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        gram_trace_distance(pure_op(ZERO), pure_op(PureState((2,), {(0,): 1.0})))
    with pytest.raises(ValueError):
        gram_trace_distance(pure_op(ZERO).as_dense_operator(), pure_op(ONE))


def _random_sparse_state(rng, shape, support):
    dim = 1 << sum(shape)
    idx = rng.choice(dim, size=min(support, dim), replace=False)
    vec = np.zeros(dim, dtype=complex)
    vec[idx] = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
    return PureState.from_dense(vec / np.linalg.norm(vec), shape)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gram_trace_distance_matches_dense(seed):
    rng = np.random.default_rng(seed)
    shape = (2, 2)
    e1 = DensityOperator.from_ensemble(
        [(0.25, _random_sparse_state(rng, shape, 5)) for _ in range(4)]
    )
    e2 = DensityOperator.from_ensemble(
        [(0.5, _random_sparse_state(rng, shape, 5)) for _ in range(2)]
    )
    assert gram_trace_distance(e1, e2) == pytest.approx(trace_distance(e1, e2), abs=1e-8)


def test_gram_trace_distance_large_support_branch():
    # Five members share one component of 128 basis labels, far more labels
    # than members: a wide, low-rank component.
    rng = np.random.default_rng(23)
    shape = (7,)
    members1 = [(1 / 3, _random_sparse_state(rng, shape, 128)) for _ in range(3)]
    members2 = [(0.5, _random_sparse_state(rng, shape, 128)) for _ in range(2)]
    e1 = DensityOperator.from_ensemble(members1)
    e2 = DensityOperator.from_ensemble(members2)
    assert gram_trace_distance(e1, e2) == pytest.approx(trace_distance(e1, e2), abs=1e-8)


def test_gram_trace_distance_handles_duplicate_members():
    # A repeated member makes the members linearly dependent; the component's
    # mixture must still reproduce the dense answer.
    rng = np.random.default_rng(29)
    state = _random_sparse_state(rng, (7,), 128)
    other = _random_sparse_state(rng, (7,), 128)
    e1 = DensityOperator.from_ensemble([(0.5, state), (0.3, state), (0.2, other)])
    e2 = DensityOperator.from_ensemble([(1.0, _random_sparse_state(rng, (7,), 128))])
    assert gram_trace_distance(e1, e2) == pytest.approx(trace_distance(e1, e2), abs=1e-8)


def test_gram_trace_distance_refuses_a_component_wider_than_the_dense_budget():
    # Two full-support 13-qubit states share one component of 8192 labels.
    rng = np.random.default_rng(31)
    wide = [pure_op(_random_sparse_state(rng, (13,), 1 << 13)) for _ in range(2)]
    with pytest.raises(BudgetExceeded, match="dense dimension 8192 exceeds budget 4096"):
        gram_trace_distance(*wide)


def test_inv_sqrt_on_support():
    assert np.allclose(inv_sqrt_on_support(np.eye(4)), np.eye(4))
    mat = np.diag([4.0, 0.0])
    assert np.allclose(inv_sqrt_on_support(mat), np.diag([0.5, 0.0]))
    with pytest.raises(ValueError):
        inv_sqrt_on_support(np.zeros((2, 2)))


def test_support_cutoff_is_strict_and_shared():
    # an eigenvalue at exactly rel_tol * max lies outside the support of both
    mat = np.diag([1.0, 0.25])
    projector, rank = support_projector(mat, rel_tol=0.25)
    assert rank == 1
    assert np.allclose(projector, np.diag([1.0, 0.0]))
    assert np.allclose(inv_sqrt_on_support(mat, rel_tol=0.25), np.diag([1.0, 0.0]))
    assert support_projector(np.zeros((2, 2)))[1] == 0


def test_stacked_support_cutoff_is_relative_to_the_largest_block():
    # Block 1 on its own would keep both of its eigenvalues; against the
    # largest eigenvalue over all blocks, 1, both lie below the cutoff.
    blocks = np.stack([np.diag([1.0, 0.5]), np.diag([1e-8, 1e-9]), np.diag([1e-6, 2e-6])])
    vals, vecs, kept = _support_eigh(blocks, rel_tol=1e-6)
    assert kept.tolist() == [[True, True], [False, False], [False, True]]
    assert np.allclose(vecs @ (vals[..., None] * vecs.swapaxes(1, 2)), blocks, atol=1e-15)
    # the same rule as one eigendecomposition of the block-diagonal operator
    whole = np.zeros((6, 6))
    for b, block in enumerate(blocks):
        whole[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = block
    assert support_projector(whole, rel_tol=1e-6)[1] == kept.sum()


def test_dense_budget_enforced():
    tiny = Budgets(max_dense_dim=2)
    epr = PureState((1, 1), {(0, 0): 2**-0.5, (1, 1): 2**-0.5})
    with pytest.raises(BudgetExceeded):
        DensityOperator.from_pure(epr).to_dense(tiny)
