import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from dense_reference import phase_ensemble_state, phase_signs

from chslab import pgm
from chslab.budgets import BudgetExceeded, Budgets
from chslab.cli import main
from chslab.haar import exact_moment
from chslab.pgm import PgmParams, pgm_report
from chslab.qla import DensityOperator, inv_sqrt_on_support, support_projector
from chslab.sectors import MAX_NORMALISER, _partitions
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


def _sigma(params):
    """sigma = sum_x rho_x, from the d phased states themselves."""
    return sum(phase_ensemble_state(x, params).to_dense() for x in range(params.d))


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2)])
def test_block_sigma_matches_dense_sum(n, m):
    # sigma is d times the moment's blocks of equal first-register value
    params = PgmParams(n=n, m=m)
    first = np.arange(params.d**params.copies) // params.d**m
    moment = exact_moment(params.d, params.copies).to_dense()
    blocks = params.d * moment * (first[:, None] == first[None, :])
    assert np.abs(_sigma(params) - blocks).max() < 1e-12


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 1)])
def test_sigma_commutes_with_every_phase_pattern(n, m):
    params = PgmParams(n=n, m=m)
    sigma = _sigma(params)
    for x in range(params.d):
        diag = np.kron(phase_signs(x, params.d), np.ones(params.d**m))
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


def _per_label_reference(params):
    """q_mean, guess and POVM completeness from d separate states and sandwiches."""
    d, dim = params.d, params.d**params.copies
    sigma = _sigma(params)
    inv_root = inv_sqrt_on_support(sigma)
    null_completion = (np.eye(dim) - support_projector(sigma)[0]) / d
    povm_sum = np.zeros((dim, dim), dtype=complex)
    overlap = success = 0.0
    for x in range(d):
        rho_x = phase_ensemble_state(x, params).to_dense()
        sandwich = inv_root @ rho_x @ inv_root
        overlap += np.trace(rho_x @ sandwich).real
        element = sandwich + null_completion
        povm_sum += element
        success += np.trace(element @ rho_x).real
    return {
        "q_mean": overlap / d,
        "guess_probability": success / d,
        "completeness_error": np.abs(povm_sum - np.eye(dim)).max(),
        "inv_sqrt_norm_measured": np.linalg.norm(inv_root, 2),
    }


@pytest.mark.parametrize(
    "n,m",
    [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (4, 1), (1, 2), (1, 3), (1, 7)],
)
def test_report_matches_the_per_label_reference(n, m):
    params = PgmParams(n=n, m=m)
    reference = _per_label_reference(params)
    report = pgm_report(params)
    for key, value in reference.items():
        assert abs(report.quantities[key] - value) <= 1e-12, key
    q_mean, guess = reference["q_mean"], reference["guess_probability"]
    assert report.bounds["sqrt_q"] == pytest.approx(math.sqrt(q_mean), abs=1e-12)
    rate = report.bounds["indistinguishability_rate"]
    if rate:
        assert report.quantities["fitted_constant"] == pytest.approx(guess / rate, abs=1e-12)


@pytest.mark.parametrize("m", [2, 8])
def test_overlap_bound_and_norm_formula_across_n(m):
    # the closed form reaches far past the dense budget; the norm grows like sqrt(C)
    for n in range(1, 41):
        report = pgm_report(PgmParams(n=n, m=m))
        d = 2**n
        assert report.flags["q_le_bound"], n
        assert report.quantities["q_mean"] <= (m + 1) / d * (1 + 1e-12), n
        formula = math.sqrt(math.comb(d + m, m + 1) * (m + 1) / d)
        assert report.bounds["inv_sqrt_norm_formula"] == formula
        assert report.quantities["inv_sqrt_norm_measured"] == pytest.approx(formula, rel=1e-15)
        assert report.flags["inv_sqrt_norm_matches_formula"], n
        assert report.flags["povm_complete"] and report.quantities["completeness_error"] < 1e-15


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2)])
def test_report_builds_no_dense_moment_and_flags_its_own_q(monkeypatch, n, m):
    def refused(*args, **kwargs):
        raise AssertionError("pgm_report built a dense or d-dimensional operator")

    # a dense moment is written by to_dense, whichever module builds it
    monkeypatch.setattr(DensityOperator, "to_dense", refused)
    monkeypatch.setattr(np.linalg, "eigh", refused)
    monkeypatch.setattr(DensityOperator, "from_dense", classmethod(refused))
    report = pgm_report(PgmParams(n=n, m=m))
    # every flag that mentions Q tests the published q_mean
    q_mean = report.quantities["q_mean"]
    assert report.bounds["sqrt_q"] == math.sqrt(q_mean)
    assert report.flags["q_le_bound"] == (q_mean <= report.bounds["q_bound"] + ATOL_CHAIN)
    assert report.flags["guess_le_sqrt_q"] == (
        report.quantities["guess_probability"] <= math.sqrt(q_mean) + ATOL_CHAIN
    )


def test_report_checks_the_shape_budget_and_the_float_range(capsys):
    # p(2) = 2 shapes fit a budget of 2, p(3) = 3 do not; the p(101) ~ 2e8
    # shapes of m = 100 on 128 letters are counted only up to one past the budget
    pgm_report(PgmParams(n=7, m=1), Budgets(max_type_count=2))
    with pytest.raises(
        BudgetExceeded, match=r"m\+1=3 into at most 3 parts \(enumerated .*\): 3 types exceed"
    ):
        pgm_report(PgmParams(n=7, m=2), Budgets(max_type_count=2))
    assert main(["pgm", "--n", "7", "--m", "100"]) == 2
    assert re.fullmatch(
        r"chs-lab pgm: pgm_report: the partitions of m\+1=101 into at most 101 parts "
        r"\(enumerated up to one past the budget\): 100001 types exceed enumeration "
        r"budget 100000\n",
        capsys.readouterr().err,
    )
    # two letters: the 50 shapes of m+1 = 99 into at most 2 parts fit a budget of 50
    pgm_report(PgmParams(n=1, m=98), Budgets(max_type_count=50))
    with pytest.raises(BudgetExceeded, match=r"m\+1=100 into at most 2 parts .*: 51 types"):
        pgm_report(PgmParams(n=1, m=99), Budgets(max_type_count=50))
    # a budget past the machine int range enumerates every shape
    report = pgm_report(PgmParams(n=1, m=3))
    for cap in (2**63, 10**400):
        assert pgm_report(PgmParams(n=1, m=3), Budgets(max_type_count=cap)) == report
    assert main(["pgm", "--n", "1", "--m", "3", "--max-type-count", str(10**21)]) == 0
    assert '"q_le_bound": true' in capsys.readouterr().out
    # C(2^1022, 1) = 2^1022 is the largest normaliser whose reciprocal is a normal float
    assert pgm_report(PgmParams(n=1022, m=0)).flags["q_le_bound"]
    for n, m in [(1023, 0), (512, 1), (10**12, 1)]:
        with pytest.raises(ValueError, match=f"n={n} is too large for m={m}"):
            pgm_report(PgmParams(n=n, m=m))
    assert main(["pgm", "--n", "1023", "--m", "0"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("chs-lab pgm: n=1023 is too large")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
def test_a_raised_budget_does_not_raise_the_walks_memory():
    # The walk holds nothing per shape. Holding every shape until the budget
    # check instead, 3e5 of the shapes of m+1 = 101 raised the peak RSS by
    # ~43 MiB (numpy 2.4), and folding them into (shapes, r, r) arrays in
    # batches by ~22 MiB; one number per shape, the rise is ~0.7 MiB. An
    # over-budget walk is refused before it starts, so the raised budget
    # admits all 329,931 shapes of m+1 = 53. VmHWM is the fresh process's
    # own peak, in KiB.
    code = (
        "import re\n"
        "from chslab.budgets import Budgets\n"
        "from chslab.pgm import PgmParams, pgm_report\n"
        "def peak():\n"
        "    return int(re.search(r'VmHWM:\\s*(\\d+)', open('/proc/self/status').read())[1])\n"
        "pgm_report(PgmParams(n=2, m=1))\n"
        "before = peak()\n"
        "pgm_report(PgmParams(n=7, m=52), Budgets(max_type_count=330_000))\n"
        "print(peak() - before)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert int(result.stdout) < 4 * 1024


def test_shape_count_is_the_walk_capped_one_past_the_budget():
    for size in range(16):
        for max_parts in range(1, size + 2):
            walked = sum(1 for _ in _partitions(size, max_parts))
            for cap in (1, walked - 1, walked, walked + 1, 2**53 + 1, 10**40):
                if cap >= 1:
                    assert pgm._shape_count(size, max_parts, cap) == min(walked, cap)
    assert pgm._shape_count(101, 101, 10**90) == 214_481_126  # p(101)
    # a floor refuses before anything the size of m is built
    for max_parts in (2, 3, 10**12):
        assert pgm._shape_count(10**12, max_parts, 100_001) == 100_001
    assert pgm._shape_count(10**12, 1, 100_001) == 1


def test_an_over_budget_walk_is_refused_before_any_shape(monkeypatch):
    def walked(*args):
        raise AssertionError("walked the shapes of a refused report")

    monkeypatch.setattr(pgm, "_partitions", walked)
    for n, m in [(7, 100), (20, 1_000_000)]:
        with pytest.raises(BudgetExceeded, match="100001 types exceed enumeration budget"):
            pgm_report(PgmParams(n=n, m=m))
    with pytest.raises(BudgetExceeded, match="1000001 types exceed"):
        pgm_report(PgmParams(n=7, m=100), Budgets(max_type_count=10**6))


def test_cli_runs_twenty_qubits_under_the_default_budgets(capsys):
    assert main(["pgm", "--n", "20", "--m", "8"]) == 0
    assert '"q_le_bound": true' in capsys.readouterr().out


def test_more_copies_than_letters_walk_only_the_shapes_with_sectors(capsys):
    # m+1 = 101 copies of one qubit: 51 shapes of at most 2 parts, out of p(101) ~ 2e8
    assert main(["pgm", "--n", "1", "--m", "100"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flags"] and all(report["flags"].values())


@pytest.mark.parametrize("n,m", [(1, 100), (2, 60), (3, 12), (1, 45)])
def test_walked_shapes_stand_for_every_sector(n, m):
    d = 2**n
    sectors = sum(
        math.perm(d, len(shape)) // math.prod(math.factorial(c) for c in Counter(shape).values())
        for shape in _partitions(m + 1, min(m + 1, d))
    )
    assert sectors == math.comb(d + m, m + 1)


def test_a_walk_that_misses_a_shape_is_refused(monkeypatch):
    def all_but_the_first(size, max_parts):
        shapes = _partitions(size, max_parts)
        next(shapes)
        yield from shapes

    monkeypatch.setattr(pgm, "_partitions", all_but_the_first)
    with pytest.raises(RuntimeError, match=r"stand for 112 sectors, not C\(2\^n\+m, m\+1\) = 120"):
        pgm_report(PgmParams(n=3, m=2))


def test_normaliser_is_the_binomial_within_the_float_range():
    for n in range(1, 12):
        for m in [*range(40), 300, 2000]:
            exact = math.comb(2**n + m, m + 1)
            assert pgm._normaliser(n, m) == (exact if exact <= MAX_NORMALISER else None)
    assert pgm._normaliser(1022, 0) == 2**1022 and pgm._normaliser(1023, 0) is None
    # C(2^20 + 10^6, 10^6 + 1) has ~2e6 bits, which math.comb takes tens of seconds to form
    assert pgm._normaliser(20, 10**6) is None
