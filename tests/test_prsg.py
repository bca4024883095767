import math

import numpy as np
import pytest

from chslab.budgets import BudgetExceeded, Budgets
from chslab.haar import exact_moment
from chslab.prsg import (
    HybridSpec,
    PrsParams,
    _real_ideal_td,
    generate,
    hybrid_state,
    impossibility_attack,
    multi_key_report,
    single_key_report,
)
from chslab.qla import DensityOperator, PureState, gram_trace_distance, trace_distance
from chslab.runner import rng_for
from chslab.typestates import apply_phase


def test_params_invariants():
    with pytest.raises(ValueError):
        PrsParams(lam=3, n=2, ell=1, t=0)  # n < lam
    with pytest.raises(ValueError):
        PrsParams(lam=1, n=2, ell=0, t=0)
    with pytest.raises(ValueError):
        HybridSpec(9, PrsParams(lam=1, n=2, ell=1, t=0))


def test_generate_examples():
    plus = PureState((1,), {(0,): 2**-0.5, (1,): 2**-0.5})
    assert generate(0, 1, plus).amplitudes == plus.amplitudes
    minus = generate(1, 1, plus)
    assert minus.amplitudes[(1,)] == pytest.approx(-(2**-0.5))
    rng = rng_for(1)
    from chslab.haar import sample_haar

    theta = sample_haar(3, rng)
    out = generate(3, 2, theta)
    assert sum(abs(a) ** 2 for a in out.amplitudes.values()) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        generate(4, 2, theta)  # key outside 2 bits
    with pytest.raises(ValueError):
        generate(1, 2, theta.tensor(theta))  # multi-register input


def test_hybrid1_matches_independent_moment_route():
    # Route B: take the exact (ell+t)-copy moment and twirl each member by
    # every key through apply_phase; must equal the enumeration-built hybrid 1.
    params = PrsParams(lam=2, n=3, ell=1, t=1)
    h1 = hybrid_state(HybridSpec(1, params))
    members = []
    for prob, state in exact_moment(1 << params.n, params.ell + params.t).ensemble:
        for k in range(1 << params.lam):
            members.append(
                (prob / (1 << params.lam), apply_phase(k, params.lam, state, range(params.ell)))
            )
    route_b = DensityOperator.from_ensemble(members)
    assert gram_trace_distance(h1, route_b) < 1e-9


def test_hybrid_equivalences_exact():
    params = PrsParams(lam=2, n=3, ell=1, t=1)
    h2 = hybrid_state(HybridSpec(2, params))
    h3 = hybrid_state(HybridSpec(3, params))
    assert gram_trace_distance(h2, h3) < 1e-10
    h5 = hybrid_state(HybridSpec(5, params))
    h6 = hybrid_state(HybridSpec(6, params))
    assert gram_trace_distance(h5, h6) < 1e-10


def test_gram_matches_dense_for_hybrid_distance():
    params = PrsParams(lam=2, n=3, ell=1, t=1)
    h1 = hybrid_state(HybridSpec(1, params))
    h8 = hybrid_state(HybridSpec(8, params))
    assert gram_trace_distance(h1, h8) == pytest.approx(trace_distance(h1, h8), abs=1e-8)


def test_single_key_report_one_copy_no_common():
    report = single_key_report(PrsParams(lam=2, n=3, ell=1, t=0))
    assert report.quantities["td_real_ideal"] == pytest.approx(0.0, abs=1e-12)


def test_single_key_report_chain_and_triangle():
    report = single_key_report(PrsParams(lam=2, n=3, ell=1, t=1))
    q = report.quantities
    assert q["td_real_ideal"] == pytest.approx(0.14583333333333334, abs=1e-10)
    assert q["td_real_ideal"] <= q["sum_consecutive"] + 1e-9
    assert report.flags["td_le_sum_of_steps"]
    assert report.flags["h2_h3_equivalent"] and report.flags["h5_h6_equivalent"]
    assert report.bounds["rate_h1_h2"] == pytest.approx(4 / 4)


def test_single_key_report_empty_conditioned_set():
    # One key bit cannot give three distinct prefixes, so the chain is skipped
    # but its fields stay in the schema as empty values.
    report = single_key_report(PrsParams(lam=1, n=3, ell=1, t=2))
    assert report.quantities["td_h1_h2"] is None
    assert any("chain unavailable" in note for note in report.notes)
    assert report.quantities["td_real_ideal"] > 0
    full = single_key_report(PrsParams(lam=2, n=3, ell=1, t=2))
    assert set(full.quantities) == set(report.quantities)


def test_empty_conditioned_set_raises_from_hybrid():
    with pytest.raises(ValueError, match="empty conditioned set"):
        hybrid_state(HybridSpec(2, PrsParams(lam=1, n=3, ell=1, t=2)))


def test_sampled_mode_approaches_exact():
    params = PrsParams(lam=2, n=3, ell=1, t=0)
    rng = rng_for(12)
    sampled = hybrid_state(HybridSpec(1, params), exact=False, rng=rng, trials=3000)
    exact = hybrid_state(HybridSpec(1, params))
    assert gram_trace_distance(sampled, exact) < 0.1
    with pytest.raises(ValueError):
        hybrid_state(HybridSpec(1, params), exact=False)


def test_sampled_mode_covers_all_hybrids():
    params = PrsParams(lam=2, n=3, ell=1, t=1)
    rng = rng_for(13)
    for index in range(1, 9):
        state = hybrid_state(HybridSpec(index, params), exact=False, rng=rng, trials=40)
        assert abs(sum(p for p, _ in state.ensemble) - 1.0) < 1e-9


def test_two_parameter_rate_fit_describes_the_sweep():
    # The claimed decay rates, with O(1) fitted constants, reproduce every
    # measured distance within a modest envelope.
    points = {}
    for lam in (1, 2, 3):
        for n in (3, 4):
            for t in (1, 2):
                points[(lam, n, 1, t)] = _real_ideal_td(lam, n, 1, t)
    keys = sorted(points)
    design = np.array(
        [
            [(t + e) ** (2 * e) / 2**lam, ((t + e) ** 2 + t * e) / 2**n]
            for (lam, n, e, t) in keys
        ]
    )
    values = np.array([points[k] for k in keys])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    assert (coef > 0).all() and (coef < 5).all()
    fitted = design @ coef
    ratios = values / fitted
    assert ratios.max() < 1.6 and ratios.min() > 1 / 1.6


def test_real_ideal_distance_is_recomputed_under_each_budget():
    # A value computed under the default budgets must not answer a later call
    # whose budget forbids the enumeration.
    assert _real_ideal_td(2, 3, 1, 1) == pytest.approx(0.14583333333333334, abs=1e-12)
    with pytest.raises(BudgetExceeded):
        _real_ideal_td(2, 3, 1, 1, Budgets(max_type_count=10))
    single_key_report(PrsParams(lam=2, n=3, ell=1, t=1))
    with pytest.raises(BudgetExceeded):
        single_key_report(PrsParams(lam=2, n=3, ell=1, t=1), Budgets(max_type_count=10))


def test_multikey_reduces_to_single_key():
    report = multi_key_report(PrsParams(lam=2, n=3, ell=1, t=1, p=1))
    assert report.quantities["td_real_ideal"] == pytest.approx(
        _real_ideal_td(2, 3, 1, 1), abs=1e-12
    )


def test_multikey_chain_monotonicity():
    report = multi_key_report(PrsParams(lam=2, n=3, ell=1, t=1, p=2))
    assert report.flags["links_le_single_key"]
    assert report.flags["td_le_sum_of_links"]
    assert report.quantities["td_xi0_xi1"] <= report.quantities["single_key_td_j0"] + 1e-9
    assert report.quantities["td_xi1_xi2"] <= report.quantities["single_key_td_j1"] + 1e-9


def test_multikey_triangle_inequality_no_common_copies():
    report = multi_key_report(PrsParams(lam=2, n=3, ell=1, t=0, p=2))
    total = report.quantities["td_real_ideal"]
    assert total <= report.quantities["sum_links"] + 1e-9


def test_impossibility_attack_small_cases():
    for lam, expected_rank1 in ((1, 16), (2, 16)):
        report = impossibility_attack(PrsParams(lam=lam, n=2, ell=1, t=1))
        assert report.quantities["tr_pi_rho0"] == pytest.approx(1.0, abs=1e-9)
        assert report.quantities["rank_rho1_measured"] == expected_rank1
        assert report.bounds["rank_rho1_formula"] == expected_rank1
        ratio = report.quantities["rank_rho0_measured"] / expected_rank1
        assert report.quantities["tr_pi_rho1"] <= ratio + 1e-9
        assert report.flags["rank_rho0_le_formula"]
    # the formula-level bound at lam=1 is vacuous but still reported
    report = impossibility_attack(PrsParams(lam=1, n=2, ell=1, t=1))
    assert report.bounds["rank_rho0_formula"] == 2 * math.comb(5, 2)


def test_impossibility_attack_budget():
    with pytest.raises(BudgetExceeded):
        impossibility_attack(PrsParams(lam=1, n=6, ell=2, t=2), Budgets(max_dense_dim=4096))
