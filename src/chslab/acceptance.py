"""Acceptance suite: every headline claim as one exact finite-size check.

``CRITERIA`` is the ordered table of criteria: each name maps to a function
returning ``(passed, detail)``. ``run_criterion`` runs and times one entry,
and ``run_all`` runs them in order, printing one PASS/FAIL line per criterion
and a summary. The ``chs-lab acceptance`` command and
``tests/test_acceptance.py`` both drive this table, so the command line and
the test suite agree by construction; a new criterion is one new entry.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .commitments import (
    CommitmentParams,
    accept_probability,
    binding_experiment,
    builtin_adversaries,
    honest_commit,
    per_copy_fidelity,
)
from .ensembles import HybridSpec, hybrid_state
from .haar import (
    HaarSampler,
    exact_moment,
    rng_for,
    sample_haar,
    sampled_moment_distance,
    symmetric_projector,
)
from .pgm import PgmParams, pgm_report
from .hybrids import single_key_report
from .prsg import PrsParams, multi_key_report
from .qla import gram_trace_distance
from .rank_attack import impossibility_attack
from .runner import ExperimentConfig, run
from .tolerances import ATOL_CHAIN, ATOL_CROSS_PATH, ATOL_IDENTITY
from .typestates import (
    OrderedTuple,
    TypeVector,
    is_l_fold_prefix_cf,
    key_average,
    sample_type_conditioned,
    split_average,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    duration_s: float


# ---------------------------------------------------------------------------


def haar_moment_oracle() -> tuple[bool, str]:
    """Monte-Carlo moments converge to the exact oracle; oracle is the symmetric projector."""
    start = time.perf_counter()
    worst_td, worst_proj = 0.0, 0.0
    samples = 100_000
    for N, t in ((2, 2), (4, 2), (4, 3)):
        n = N.bit_length() - 1
        vecs = HaarSampler(n, rng_seed=101).statevectors(samples)
        worst_td = max(worst_td, sampled_moment_distance(vecs, t))
        exact = exact_moment(N, t).to_dense()
        projector = symmetric_projector(N, t) / math.comb(N + t - 1, t)
        worst_proj = max(worst_proj, float(np.abs(exact - projector).max()))
    elapsed = time.perf_counter() - start
    ok = worst_td <= 0.02 and worst_proj <= ATOL_CROSS_PATH and elapsed < 60.0
    return ok, (
        f"max TD(monte-carlo, exact)={worst_td:.4f} (<=0.02), "
        f"max |exact - sym projector|={worst_proj:.2e} (<=1e-8), {elapsed:.1f}s (<60s)"
    )


def type_split_identity() -> tuple[bool, str]:
    """Key-averaged projector equals the split average on prefix-cf types; fails off them."""
    rng = rng_for(202)
    grid = [
        (lam, m, t, ell)
        for lam in (2, 3)
        for m in (0, 1)
        for t in (2, 3)
        for ell in (1, 2)
        if ell <= t
    ]
    worst = 0.0
    for i in range(50):
        lam, m, t, ell = grid[i % len(grid)]
        T = sample_type_conditioned(
            1 << (lam + m),
            t,
            lambda ty: is_l_fold_prefix_cf(ty, ell),
            rng,
            prefix_bits=lam,
        )
        d = gram_trace_distance(key_average(T, ell, lam), split_average(T, ell))
        worst = max(worst, d)
    # negative control: two elements sharing the 2-bit prefix
    bad = TypeVector((0b000, 0b001, 0b110), width=3, prefix_bits=2)
    violation = gram_trace_distance(
        key_average(bad, 1, 2, check=False), split_average(bad, 1)
    )
    ok = worst <= ATOL_IDENTITY and violation > 1e-3
    return ok, (
        f"max TD(lhs, rhs)={worst:.2e} over 50 prefix-cf types (<=1e-10), "
        f"non-cf control violates by {violation:.3f} (>1e-3)"
    )


def permutation_average() -> tuple[bool, str]:
    """Exact key average of |v><sigma(v)| matches the block criterion for every sigma."""
    import itertools

    from .typestates import permutation_average_verdict, PermutationVerdict

    rng = rng_for(303)
    lam, m = 6, 1
    tuples_checked = 0
    for t in (2, 3, 4):
        for rep in range(7 if t < 4 else 6):
            ell = 1 + (rep % t) if t > 1 else 1
            ell = min(ell, t)
            T = sample_type_conditioned(
                1 << (lam + m),
                t,
                lambda ty: is_l_fold_prefix_cf(ty, ell),
                rng,
                prefix_bits=lam,
            )
            order = tuple(int(x) for x in rng.permutation(T.elements))
            v = OrderedTuple(order, T.width, lam)
            kept = 0
            for sigma in itertools.permutations(range(t)):
                verdict = permutation_average_verdict(v, sigma, ell, lam)
                kept += verdict is PermutationVerdict.IDENTITY_KEPT
            if kept != math.factorial(ell) * math.factorial(t - ell):
                return False, (
                    f"t={t}, ell={ell}: {kept} kept permutations, expected "
                    f"{math.factorial(ell) * math.factorial(t - ell)}"
                )
            tuples_checked += 1
    return True, (
        f"{tuples_checked} random prefix-cf tuples, all sigma in S_t for t<=4: "
        "averaged-matrix verdict matches the set criterion everywhere"
    )


def hybrid_equivalences() -> tuple[bool, str]:
    """The two zero-distance hybrid steps are numerically zero everywhere tested."""
    worst23, worst56 = 0.0, 0.0
    for lam, n, ell, t in ((2, 3, 1, 1), (2, 3, 1, 2), (3, 3, 1, 1), (3, 4, 2, 1)):
        params = PrsParams(lam=lam, n=n, ell=ell, t=t)
        h2 = hybrid_state(HybridSpec(2, params))
        h3 = hybrid_state(HybridSpec(3, params))
        worst23 = max(worst23, gram_trace_distance(h2, h3))
        h5 = hybrid_state(HybridSpec(5, params))
        h6 = hybrid_state(HybridSpec(6, params))
        worst56 = max(worst56, gram_trace_distance(h5, h6))
    ok = worst23 < ATOL_IDENTITY and worst56 < ATOL_IDENTITY
    return ok, (
        f"max TD(H2,H3)={worst23:.2e}, max TD(H5,H6)={worst56:.2e} "
        "over 4 parameter sets (<1e-10)"
    )


def security_trend() -> tuple[bool, str]:
    """Real/ideal distance falls with the key length and respects the chain bound."""
    tds = []
    triangle_ok = True
    chain_notes = []
    for lam in (1, 2, 3, 4):
        report = single_key_report(PrsParams(lam=lam, n=6, ell=1, t=2))
        tds.append(report.quantities["td_real_ideal"])
        if "td_le_sum_of_steps" in report.flags:
            triangle_ok &= report.flags["td_le_sum_of_steps"]
        else:
            chain_notes.append(f"lam={lam}: conditioned set empty, chain skipped")
    for lam, n, ell, t in ((2, 3, 1, 1), (2, 3, 1, 2)):
        report = single_key_report(PrsParams(lam=lam, n=n, ell=ell, t=t))
        triangle_ok &= report.flags["td_le_sum_of_steps"]
    monotone = all(tds[i + 1] <= tds[i] + ATOL_CHAIN for i in range(len(tds) - 1))
    ok = monotone and tds[-1] <= 0.1 and triangle_ok
    trend = " -> ".join(f"{x:.4f}" for x in tds)
    note = f" ({'; '.join(chain_notes)})" if chain_notes else ""
    return ok, (
        f"TD at n=6, ell=1, t=2 over lam=1..4: {trend} "
        f"(monotone={monotone}, final<=0.1, triangle holds={triangle_ok}){note}"
    )


def multi_key_chain() -> tuple[bool, str]:
    """Every chain link is at most the single-key distance at the inflated copy count."""
    report = multi_key_report(PrsParams(lam=2, n=3, ell=1, t=1, p=2))
    links = [
        (report.quantities["td_xi0_xi1"], report.quantities["single_key_td_j0"]),
        (report.quantities["td_xi1_xi2"], report.quantities["single_key_td_j1"]),
    ]
    ok = report.flags["links_le_single_key"] and report.flags["td_le_sum_of_links"]
    detail = ", ".join(f"{a:.6f}<={b:.6f}" for a, b in links)
    return ok, f"p=2, lam=2, n=3, ell=1, t=1: links {detail} (within 1e-9)"


def rank_attack() -> tuple[bool, str]:
    """Support projection accepts the real state always and the ideal state rarely enough."""
    details = []
    ok = True
    for lam, n, ell, t in ((1, 2, 1, 1), (2, 2, 1, 1), (2, 5, 1, 2)):
        report = impossibility_attack(PrsParams(lam=lam, n=n, ell=ell, t=t))
        ok &= all(report.flags.values())
        details.append(
            f"lam={lam}, n={n}, t={t}: Tr(Pi rho0)={report.quantities['tr_pi_rho0']:.9f}, "
            f"Tr(Pi rho1)={report.quantities['tr_pi_rho1']:.4f}"
            f"<={report.bounds['rank_ratio']:.4f}, "
            f"rank(rho1)={report.quantities['rank_rho1_measured']}"
        )
    return ok, "; ".join(details)


def commitment_binding() -> tuple[bool, str]:
    """Perfect correctness, the per-copy fidelity cap, and the sum-binding bound."""
    worst_honest = 0.0
    worst_excess = -1.0
    fidelity_ok = True
    rng = rng_for(808)
    for lam, n in ((1, 2), (2, 4)):
        cap = 2.0 ** -(n - lam)
        for trial in range(100):
            theta = sample_haar(n, rng)
            params = CommitmentParams(lam=lam, n=n, p=1, theta=theta)
            fidelity_ok &= per_copy_fidelity(params) <= cap + ATOL_CHAIN
        for p in (1, 2, 4):
            theta = sample_haar(n, rng)
            params = CommitmentParams(lam=lam, n=n, p=p, theta=theta)
            reports = {
                name: binding_experiment(adv, params)
                for name, adv in builtin_adversaries(params, rng).items()
            }
            worst_honest = max(
                worst_honest,
                abs(reports["honest-0"].quantities["p0"] - 1.0),
                abs(reports["honest-1"].quantities["p1"] - 1.0),
            )
            for report in reports.values():
                excess = report.quantities["p0_plus_p1"] - report.bounds["sum_binding_bound"]
                worst_excess = max(worst_excess, excess)
            if p <= 2 and n <= 2:
                committed = honest_commit(0, params)
                worst_honest = max(
                    worst_honest, abs(accept_probability(0, committed, params) - 1.0)
                )
    ok = worst_honest <= 1e-10 and fidelity_ok and worst_excess <= ATOL_CHAIN
    return ok, (
        f"honest accept off by {worst_honest:.2e} (<=1e-10), per-copy fidelity under "
        f"2^-(n-lam) for 100 samples x 2 sets: {fidelity_ok}, max bound excess "
        f"{worst_excess:.2e} (<=1e-9) over 4 adversaries x p in (1,2,4)"
    )


def hiding_crosscheck() -> tuple[bool, str]:
    """The hiding distance equals the multi-key distance with one copy per key."""
    from .commitments import hiding_distance

    report = hiding_distance(lam=2, n=3, p=1, t=1)
    diff = report.quantities["route_difference"]
    return diff <= ATOL_CHAIN, (
        f"lam=2, n=3, p=1, t=1: hiding={report.quantities['td_hiding']:.9f}, "
        f"multikey route={report.quantities['td_multikey_route']:.9f}, "
        f"difference={diff:.2e} (<=1e-9)"
    )


def pgm_bound() -> tuple[bool, str]:
    """Overlap quantity under (m+1)/d and the closed-form inverse-root norm."""
    start = time.perf_counter()
    details = []
    ok = True
    for n, m in ((1, 1), (2, 1), (2, 2), (3, 1)):
        report = pgm_report(PgmParams(n=n, m=m))
        ok &= report.flags["q_le_bound"]
        ok &= report.flags["inv_sqrt_norm_matches_formula"]
        details.append(
            f"(n={n},m={m}): Q={report.quantities['q_mean']:.6f}"
            f"<={report.bounds['q_bound']:.6f}"
        )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    return ok, "; ".join(details) + f"; norms match to 1e-8; {elapsed:.1f}s (<120s)"


def determinism() -> tuple[bool, str]:
    """Repeating any experiment with the same seed is byte-identical."""
    configs = [
        ExperimentConfig("prsg-td", {"lam": 2, "n": 3, "ell": 1, "t": 1}, seed=7),
        ExperimentConfig("multikey-td", {"lam": 2, "n": 3, "ell": 1, "t": 1, "p": 2}, seed=7),
        ExperimentConfig("impossibility", {"lam": 1, "n": 2, "ell": 1, "t": 1}, seed=7),
        ExperimentConfig(
            "commit-binding", {"lam": 1, "n": 2, "p": 2, "adversary": "half-angle"}, seed=7
        ),
        ExperimentConfig("commit-hiding", {"lam": 2, "n": 3, "p": 1, "t": 1}, seed=7),
        ExperimentConfig("pgm", {"n": 2, "m": 1}, seed=7),
        ExperimentConfig("typestats", {"lam": 4, "ell": 1, "t": 3, "trials": 2000}, seed=7),
    ]
    for config in configs:
        first = run(config).canonical_bytes()
        second = run(config).canonical_bytes()
        if first != second:
            return False, f"{config.experiment}: repeated run differs byte-wise"
    return True, f"{len(configs)} experiments re-run from scratch, all byte-identical"


CRITERIA: dict[str, Callable[[], tuple[bool, str]]] = {
    "haar-moment-oracle": haar_moment_oracle,
    "type-split-identity": type_split_identity,
    "permutation-average": permutation_average,
    "hybrid-equivalences": hybrid_equivalences,
    "security-trend": security_trend,
    "multi-key-chain": multi_key_chain,
    "rank-attack": rank_attack,
    "commitment-binding": commitment_binding,
    "hiding-crosscheck": hiding_crosscheck,
    "pgm-bound": pgm_bound,
    "determinism": determinism,
}


def run_criterion(name: str) -> CriterionResult:
    """Run the criterion ``name`` from ``CRITERIA`` and time it."""
    start = time.perf_counter()
    passed, detail = CRITERIA[name]()
    return CriterionResult(name, passed, detail, time.perf_counter() - start)


def run_all(echo=print) -> list[CriterionResult]:
    results = []
    for name in CRITERIA:
        result = run_criterion(name)
        results.append(result)
        tag = "PASS" if result.passed else "FAIL"
        echo(f"{tag}  {result.name:24s} [{result.duration_s:7.1f}s]  {result.detail}")
    failures = [r for r in results if not r.passed]
    echo(
        f"{len(results) - len(failures)}/{len(results)} acceptance criteria passed"
        + (f"; FAILED: {', '.join(r.name for r in failures)}" if failures else "")
    )
    return results
