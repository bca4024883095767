import math

import numpy as np
import pytest

from chslab import pgm
from chslab.haar import exact_moment
from chslab.pgm import (
    PgmParams,
    _phase_diagonal,
    pgm_report,
    phase_ensemble_state,
    sigma_unnormalized,
)
from chslab.tolerances import ATOL_CHAIN


def test_params_validation():
    with pytest.raises(ValueError):
        PgmParams(n=0, m=1)
    with pytest.raises(ValueError):
        PgmParams(n=1, m=-1)


def test_phase_state_label_zero_is_plain_moment():
    params = PgmParams(n=2, m=1)
    rho = phase_ensemble_state(0, params).to_dense()
    assert np.allclose(rho, exact_moment(4, 2).to_dense(), atol=1e-12)
    with pytest.raises(ValueError):
        phase_ensemble_state(4, params)


def test_single_copy_states_are_maximally_mixed():
    params = PgmParams(n=2, m=0)
    for x in range(4):
        rho = phase_ensemble_state(x, params).to_dense()
        assert np.allclose(rho, np.eye(4) / 4, atol=1e-12)


def test_phase_states_are_density_operators():
    params = PgmParams(n=2, m=1)
    for x in range(4):
        rho = phase_ensemble_state(x, params).to_dense()
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-12


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2)])
def test_block_sigma_matches_dense_sum(n, m):
    params = PgmParams(n=n, m=m)
    direct = sum(phase_ensemble_state(x, params).to_dense() for x in range(params.d))
    assert np.abs(direct - sigma_unnormalized(params)).max() < 1e-12


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 1)])
def test_sigma_commutes_with_every_phase_pattern(n, m):
    params = PgmParams(n=n, m=m)
    sigma = sigma_unnormalized(params)
    for x in range(params.d):
        diag = _phase_diagonal(x, params)
        commutator = sigma * diag[None, :] - diag[:, None] * sigma
        assert np.abs(commutator).max() < 1e-9


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 1)])
def test_overlap_bound_and_norm_formula(n, m):
    report = pgm_report(PgmParams(n=n, m=m))
    assert report.flags["q_le_bound"]
    assert report.flags["inv_sqrt_norm_matches_formula"]
    assert report.quantities["q_mean"] <= (m + 1) / 2**n + 1e-9


def test_inv_sqrt_norm_closed_form_value():
    # d=4, m=1: sqrt(C(5,2) * 2 / 4) = sqrt(5)
    report = pgm_report(PgmParams(n=2, m=1))
    assert report.quantities["inv_sqrt_norm_measured"] == pytest.approx(
        math.sqrt(5), abs=1e-10
    )


def test_overlap_bound_tight_cases():
    # m=0: sigma = I and Q = 1/d exactly
    for n in (1, 2):
        report = pgm_report(PgmParams(n=n, m=0))
        assert report.quantities["q_mean"] == pytest.approx(1.0 / 2**n, abs=1e-12)
        assert report.quantities["inv_sqrt_norm_measured"] == pytest.approx(1.0, abs=1e-12)


def test_q_decreases_with_n_at_fixed_m():
    values = [pgm_report(PgmParams(n=n, m=1)).quantities["q_mean"] for n in (1, 2, 3)]
    assert values[0] >= values[1] - 1e-12
    assert values[1] >= values[2] - 1e-12


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2)])
def test_guess_probability_and_povm_flags(n, m):
    report = pgm_report(PgmParams(n=n, m=m))
    assert report.flags["povm_complete"]
    assert report.flags["guess_ge_random"]
    assert report.flags["guess_le_sqrt_q"]
    # PGM success equals the overlap quantity for this ensemble by cyclicity
    assert report.quantities["guess_probability"] == pytest.approx(
        report.quantities["q_mean"], abs=1e-10
    )


def test_guess_probability_identical_states():
    report = pgm_report(PgmParams(n=2, m=0))
    assert report.quantities["guess_probability"] == pytest.approx(0.25, abs=1e-12)


def test_fitted_constant_reported():
    report = pgm_report(PgmParams(n=2, m=1))
    rate = math.sqrt(1 / 4 + 1 / 64)
    assert report.bounds["indistinguishability_rate"] == pytest.approx(rate, abs=1e-12)
    assert report.quantities["fitted_constant"] == pytest.approx(
        report.quantities["guess_probability"] / rate, abs=1e-12
    )


def _counting(monkeypatch, name, calls):
    original = getattr(pgm, name)

    def counted(*args, **kwargs):
        calls.append((name, args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(pgm, name, counted)


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2)])
def test_report_builds_each_operator_once_and_flags_its_own_q(monkeypatch, n, m):
    params = PgmParams(n=n, m=m)
    calls = []
    for name in ("exact_moment", "sigma_unnormalized", "_support_eigh", "_phase_diagonal"):
        _counting(monkeypatch, name, calls)
    eighs = []
    original_eigh = np.linalg.eigh

    def counted_eigh(mat, *args, **kwargs):
        eighs.append(mat.shape)
        return original_eigh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    report = pgm_report(params)
    names = [name for name, _ in calls]
    assert names.count("exact_moment") == 1
    assert names.count("sigma_unnormalized") == 1
    # sigma is eigendecomposed once: S, the support and the norm of S share it
    assert names.count("_support_eigh") == 1
    assert len(eighs) == 1
    assert [x for name, x in calls if name == "_phase_diagonal"] == list(range(params.d))
    # every flag that mentions Q tests the published q_mean
    q_mean = report.quantities["q_mean"]
    assert report.bounds["sqrt_q"] == math.sqrt(q_mean)
    assert report.flags["q_le_bound"] == (q_mean <= report.bounds["q_bound"] + ATOL_CHAIN)
    assert report.flags["guess_le_sqrt_q"] == (
        report.quantities["guess_probability"] <= math.sqrt(q_mean) + ATOL_CHAIN
    )
