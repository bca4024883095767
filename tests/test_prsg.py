import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sector_reference import hybrid_mixture

from chslab.budgets import DEFAULT_BUDGETS, BudgetExceeded, Budgets
from chslab.ensembles import HybridSpec, generate, hybrid_state
from chslab.haar import exact_moment, rng_for
from chslab.hybrids import single_key_report
from chslab.prsg import PrsParams, multi_key_report
from chslab.qla import (
    DensityOperator,
    PureState,
    gram_trace_distance,
    support_projector,
    trace_distance,
)
from chslab.rank_attack import impossibility_attack
from chslab.runner import ExperimentConfig, run
from chslab.tolerances import ATOL_CHAIN, REL_RANK_CUTOFF
from chslab.typestates import apply_phase, enumerate_types, keyed_members


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


def test_fewer_strings_than_registers_reports_only_the_direct_distance():
    # Three registers over two strings: no collision-free type of size 3 exists,
    # so hybrids 5 to 7 are empty although hybrid 2 is not (t = 0).
    params = PrsParams(lam=1, n=1, ell=3, t=0)
    report = single_key_report(params)
    expected = gram_trace_distance(
        hybrid_state(HybridSpec(1, params)), hybrid_state(HybridSpec(8, params))
    )
    assert report.quantities["td_real_ideal"] == pytest.approx(expected, abs=1e-12)
    assert report.quantities["td_h1_h2"] is None and report.quantities["sum_consecutive"] is None
    assert any("chain unavailable" in note for note in report.notes)
    hybrid_state(HybridSpec(2, params))
    for index in (5, 6, 7):
        with pytest.raises(ValueError, match="empty conditioned set") as ensemble:
            hybrid_state(HybridSpec(index, params))
        with pytest.raises(ValueError) as sector:
            hybrid_mixture(HybridSpec(index, params))
        assert str(sector.value) == str(ensemble.value)


def test_two_parameter_rate_fit_describes_the_sweep():
    # The claimed decay rates, with O(1) fitted constants, reproduce every
    # measured distance within a modest envelope.
    points = {}
    for lam in (1, 2, 3):
        for n in (3, 4):
            for t in (1, 2):
                report = single_key_report(PrsParams(lam=lam, n=n, ell=1, t=t))
                points[(lam, n, 1, t)] = report.quantities["td_real_ideal"]
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
    params, chain = PrsParams(lam=2, n=3, ell=1, t=1), PrsParams(lam=2, n=3, ell=1, t=0, p=2)
    td = single_key_report(params).quantities["td_real_ideal"]
    assert td == pytest.approx(0.14583333333333334, abs=1e-12)
    with pytest.raises(BudgetExceeded):
        single_key_report(params, Budgets(max_type_count=10))
    multi_key_report(chain)
    with pytest.raises(BudgetExceeded):
        multi_key_report(chain, Budgets(max_type_count=10))
    assert single_key_report(params).quantities["td_real_ideal"] == td


@pytest.mark.parametrize("n", [30, 52, 56, 60, 340])
def test_lam_free_steps_match_their_closed_forms_past_float_resolution(n):
    # H4->H5, H6->H7 and H7->H8 are collision probabilities of order s^2 / 2^n,
    # far below one ulp of the normalisers at large n; each difference must
    # still come out whole, not as the rounding noise of two rounded blocks.
    N, ell, t = 2**n, 1, 2
    s = ell + t
    exact = {
        "td_h4_h5": 1 - Fraction(math.comb(N, s), math.comb(N + s - 1, s)),
        "td_h6_h7": 1 - Fraction(math.comb(N - ell, t), math.comb(N, t)),
        "td_h7_h8": 1
        - Fraction(
            math.comb(N, ell) * math.comb(N, t),
            math.comb(N + ell - 1, ell) * math.comb(N + t - 1, t),
        ),
    }
    report = single_key_report(PrsParams(8, n, ell, t), Budgets(max_type_count=10**400))
    for key, value in exact.items():
        assert abs(Fraction(report.quantities[key]) - value) <= 1e-12 * value, key
    if n == 56:
        td = report.quantities["td_real_ideal"]
        assert td == pytest.approx(0.0039011637369791804, rel=1e-14, abs=0)


def test_multikey_reduces_to_single_key():
    # At p = 1 the chain is the single-key experiment: its one link, its
    # single-key bound and the total are the real/ideal distance, which the
    # ensemble route gives too.
    report = multi_key_report(PrsParams(lam=2, n=3, ell=1, t=1, p=1))
    params = PrsParams(lam=2, n=3, ell=1, t=1)
    single = single_key_report(params).quantities["td_real_ideal"]
    ensembles = gram_trace_distance(
        hybrid_state(HybridSpec(1, params)), hybrid_state(HybridSpec(8, params))
    )
    assert single == pytest.approx(ensembles, abs=1e-12)
    for key in ("td_real_ideal", "td_xi0_xi1", "single_key_td_j0"):
        assert report.quantities[key] == pytest.approx(single, abs=1e-12)


@pytest.mark.parametrize("lam, n, ell, t", [(2, 3, 1, 1), (1, 2, 2, 0), (2, 3, 2, 1)])
def test_one_key_routes_ignore_the_key_count(lam, n, ell, t):
    # H1 and H8 are the one-key chain's ends, built by the chain builder,
    # which reads the key count off the space: p = 3 changes no output.
    one, three = PrsParams(lam, n, ell, t), PrsParams(lam, n, ell, t, p=3)
    assert single_key_report(one).to_json() == single_key_report(three).to_json()
    assert impossibility_attack(one).to_json() == impossibility_attack(three).to_json()
    for index in range(1, 9):
        x, y = (hybrid_mixture(HybridSpec(index, params)) for params in (one, three))
        assert x.normaliser == y.normaliser
        assert x.labels.tobytes() == y.labels.tobytes()
        assert x.weights.tobytes() == y.weights.tobytes()


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
        assert report.quantities["tr_pi_rho1"] == report.bounds["rank_ratio"]
        assert report.flags["rank_rho0_le_formula"]
    # the formula-level bound at lam=1 is vacuous but still reported
    report = impossibility_attack(PrsParams(lam=1, n=2, ell=1, t=1))
    assert report.bounds["rank_rho0_formula"] == 2 * math.comb(5, 2)


@pytest.mark.parametrize(
    "config, budgets",
    [
        ((2, 3, 1, 2), DEFAULT_BUDGETS),
        ((2, 4, 1, 2), DEFAULT_BUDGETS),
        ((3, 3, 2, 0), DEFAULT_BUDGETS),
        ((1, 3, 3, 1), DEFAULT_BUDGETS),
        ((2, 5, 1, 2), DEFAULT_BUDGETS),
        ((4, 510, 1, 1), Budgets(max_type_count=10**400)),
    ],
)
def test_attack_accepts_rho1_with_the_ratio_of_measured_ranks(config, budgets):
    # rho0's support lies inside rho1's, where rho1 is maximally mixed, so
    # Tr(Pi rho1) is rank(rho0) / rank(rho1): one correctly rounded ratio of
    # ints. At (2, 3, 1, 2) that is 256/288 = 8/9, and at (3, 3, 2, 0) 36/36.
    # The advantage is (rank1 - rank0) / rank1, one more such ratio.
    quantities = impossibility_attack(PrsParams(*config), budgets).quantities
    rank0, rank1 = quantities["rank_rho0_measured"], quantities["rank_rho1_measured"]
    assert quantities["tr_pi_rho1"] == rank0 / rank1
    assert quantities["advantage"] == (rank1 - rank0) / rank1


def test_the_attack_solves_no_eigenvector(monkeypatch):
    # Both ranks are counts of the chain ends' key classes: nothing is solved.
    def no_work(*args, **kwargs):
        raise AssertionError("the rank attack solved an eigenproblem")

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, no_work)
    report = run(ExperimentConfig("impossibility", {"lam": 2, "n": 3, "ell": 1, "t": 2}))
    assert report.quantities["tr_pi_rho1"] == 8 / 9
    assert report.quantities["tr_pi_rho0"] == 1.0
    assert all(report.flags.values())


def test_attack_at_large_n_counts_the_exact_ranks():
    # At N = 2^40 both ranks are 71-digit ints, counted on the relation classes.
    N = 2**40
    report = impossibility_attack(PrsParams(16, 40, 3, 3), Budgets(max_type_count=10**90))
    quantities = report.quantities
    assert quantities["rank_rho0_measured"] == (
        49071971259879752724948463395295107550165766521933187115830931194118144
    )
    assert quantities["rank_rho1_measured"] == math.comb(N + 2, 3) ** 2
    assert quantities["tr_pi_rho0"] == 1.0
    assert all(report.flags.values())


@pytest.mark.parametrize("config", [(64, 94, 1, 2), (32, 62, 3, 3)])
def test_attack_advantage_is_one_rounding_below_the_distance(config):
    # Rounding rank0 / rank1 first and subtracting it from 1 cancels: that
    # read 0.0 at (64, 94, 1, 2), where the exact advantage is 5.42e-20, and
    # 2.2118911147e-09 at (32, 62, 3, 3), above td_real_ideal = 2.2118911130e-09,
    # which the Helstrom bound forbids.
    params, budgets = PrsParams(*config), Budgets(max_type_count=10**120)
    quantities = impossibility_attack(params, budgets).quantities
    rank0, rank1 = quantities["rank_rho0_measured"], quantities["rank_rho1_measured"]
    assert quantities["advantage"] == float(Fraction(rank1 - rank0, rank1)) > 0
    td = single_key_report(params, budgets).quantities["td_real_ideal"]
    assert quantities["advantage"] <= td


@settings(max_examples=20, deadline=None)
@given(
    lam=st.integers(1, 3),
    n_extra=st.integers(0, 2),
    ell=st.integers(1, 3),
    t=st.integers(1, 3),
)
def test_real_ideal_distance_is_symmetric_and_bounds_the_attack(lam, n_extra, ell, t):
    # Pi_sym is invariant under Z_k on every register, so keying the ell
    # generated copies leaves the state of keying the t common copies, up to
    # the order of the register groups: the distance is symmetric in (ell, t).
    # By Helstrom, no measurement, the rank attack's included, beats it.
    budgets = Budgets(max_type_count=10**12)
    params = PrsParams(lam, lam + n_extra, ell, t)
    td = single_key_report(params, budgets).quantities["td_real_ideal"]
    swapped = single_key_report(PrsParams(lam, lam + n_extra, t, ell), budgets)
    assert abs(td - swapped.quantities["td_real_ideal"]) <= 1e-12
    assert impossibility_attack(params, budgets).quantities["advantage"] <= td + ATOL_CHAIN


def test_impossibility_attack_budget():
    # C(67, 4) = 766,480 sectors exceed the type-enumeration budget.
    with pytest.raises(BudgetExceeded):
        impossibility_attack(PrsParams(lam=1, n=6, ell=2, t=2), Budgets(max_dense_dim=4096))


def _dense_attack(params: PrsParams, budgets: Budgets = DEFAULT_BUDGETS):
    """The rank attack on dense N^(ell+t) matrices, common copies first.

    The independent route for ``impossibility_attack``: rho0 from the keyed
    PureState ensemble, rho1 from the Kronecker product of the exact moments,
    one full-size support projector. Returns the measured quantities and the
    four flags.
    """
    lam, n, ell, t = params.lam, params.n, params.ell, params.t
    N = 1 << n
    size = t + ell
    budgets.check_dense_dim(N**size, "impossibility_attack")
    types = [T.elements for T in enumerate_types(N, size, budgets)]
    phase_targets = tuple(range(t, t + ell))
    members = keyed_members(n, lam, (phase_targets,), types, 1.0 / len(types))
    rho0 = DensityOperator((n,) * size, ensemble=tuple(members)).to_dense(budgets)
    rho1 = np.kron(
        exact_moment(N, t, budgets).to_dense(budgets) if t else np.eye(1),
        exact_moment(N, ell, budgets).to_dense(budgets),
    )
    projector, rank0 = support_projector(rho0, REL_RANK_CUTOFF)
    rank1 = int((np.linalg.eigvalsh(rho1) > REL_RANK_CUTOFF / N**size).sum())
    tr_rho0 = float(np.real(np.trace(projector @ rho0)))
    tr_rho1 = float(np.real(np.trace(projector @ rho1)))
    rank0_formula = 2**lam * math.comb(2**n + ell + t - 1, ell + t)
    rank1_formula = math.comb(2**n + ell - 1, ell) * math.comb(2**n + t - 1, t)
    quantities = {
        "tr_pi_rho0": tr_rho0,
        "tr_pi_rho1": tr_rho1,
        "rank_rho0_measured": rank0,
        "rank_rho1_measured": rank1,
    }
    flags = {
        "tr_pi_rho0_is_one": abs(tr_rho0 - 1.0) <= ATOL_CHAIN,
        "tr_pi_rho1_le_rank_ratio": tr_rho1 <= rank0 / rank1_formula + ATOL_CHAIN,
        "rank_rho0_le_formula": rank0 <= rank0_formula,
        "rank_rho1_matches_formula": rank1 == rank1_formula,
    }
    return quantities, flags


# Every (lam, n, ell, t) whose dense matrices have at most 512 rows.
_SMALL_ATTACKS = [
    (lam, n, ell, size - ell)
    for n in range(1, 10)
    for size in range(1, 10)
    if (1 << n) ** size <= 512
    for lam in range(1, n + 1)
    for ell in range(1, size + 1)
]


@settings(max_examples=20, deadline=None)
@given(config=st.sampled_from(_SMALL_ATTACKS))
def test_sector_rank_attack_matches_dense_reference(config):
    params = PrsParams(*config)
    quantities, flags = _dense_attack(params)
    report = impossibility_attack(params)
    for key in ("rank_rho0_measured", "rank_rho1_measured"):
        assert type(report.quantities[key]) is int
        assert report.quantities[key] == quantities[key], key
    for key in ("tr_pi_rho0", "tr_pi_rho1"):
        assert report.quantities[key] == pytest.approx(quantities[key], abs=1e-12), key
    assert report.flags == flags


def test_impossibility_attack_beyond_the_dense_dimension():
    # N^(ell+t) = 32768 exceeds the default dense budget; the blocks do not.
    params = PrsParams(lam=2, n=5, ell=1, t=2)
    with pytest.raises(BudgetExceeded):
        _dense_attack(params)
    report = impossibility_attack(params)
    assert report.quantities["rank_rho1_measured"] == report.bounds["rank_rho1_formula"]
    assert all(report.flags.values())
