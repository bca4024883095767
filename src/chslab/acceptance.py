"""Acceptance suite: every headline claim as one exact finite-size check.

Each criterion is a function returning a ``CriterionResult``; ``run_all``
executes them in order and prints one PASS/FAIL line per criterion. The
``chs-lab acceptance`` command and ``tests/test_acceptance.py`` both drive
this module, so the command line and the test suite agree by construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import prsg
from .commitments import (
    CommitmentParams,
    accept_probability,
    binding_experiment,
    builtin_adversaries,
    commit_copy,
    honest_commit,
)
from .haar import (
    HaarSampler,
    exact_moment,
    sample_haar,
    sampled_moment_distance,
    symmetric_projector,
)
from .pgm import PgmParams, pgm_report
from .prsg import HybridSpec, PrsParams, hybrid_state, multi_key_report, single_key_report
from .qla import (
    DensityOperator,
    fidelity,
    gram_trace_distance,
    partial_trace_pure,
)
from .runner import ExperimentConfig, rng_for, run
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


def _timed(name: str, fn: Callable[[], tuple[bool, str]]) -> CriterionResult:
    start = time.perf_counter()
    passed, detail = fn()
    return CriterionResult(name, passed, detail, time.perf_counter() - start)


# ---------------------------------------------------------------------------


def haar_moment_oracle() -> CriterionResult:
    """Monte-Carlo moments converge to the exact oracle; oracle is the symmetric projector."""

    def check():
        start = time.perf_counter()
        worst_td, worst_proj = 0.0, 0.0
        samples = 100_000
        for N, t in ((2, 2), (4, 2), (4, 3)):
            n = N.bit_length() - 1
            vecs = HaarSampler(n, rng_seed=101).statevectors(samples)
            exact = exact_moment(N, t).to_dense()
            worst_td = max(worst_td, sampled_moment_distance(vecs, t, exact))
            projector = symmetric_projector(N, t) / math.comb(N + t - 1, t)
            worst_proj = max(worst_proj, float(np.abs(exact - projector).max()))
        elapsed = time.perf_counter() - start
        ok = worst_td <= 0.02 and worst_proj <= ATOL_CROSS_PATH and elapsed < 60.0
        return ok, (
            f"max TD(monte-carlo, exact)={worst_td:.4f} (<=0.02), "
            f"max |exact - sym projector|={worst_proj:.2e} (<=1e-8), {elapsed:.1f}s (<60s)"
        )

    return _timed("haar-moment-oracle", check)


def type_split_identity() -> CriterionResult:
    """Key-averaged projector equals the split average on prefix-cf types; fails off them."""

    def check():
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

    return _timed("type-split-identity", check)


def permutation_average() -> CriterionResult:
    """Exact key average of |v><sigma(v)| matches the block criterion for every sigma."""

    def check():
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

    return _timed("permutation-average", check)


def hybrid_equivalences() -> CriterionResult:
    """The two zero-distance hybrid steps are numerically zero everywhere tested."""

    def check():
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

    return _timed("hybrid-equivalences", check)


def security_trend() -> CriterionResult:
    """Real/ideal distance falls with the key length and respects the chain bound."""

    def check():
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

    return _timed("security-trend", check)


def multi_key_chain() -> CriterionResult:
    """Every chain link is at most the single-key distance at the inflated copy count."""

    def check():
        report = multi_key_report(PrsParams(lam=2, n=3, ell=1, t=1, p=2))
        links = [
            (report.quantities["td_xi0_xi1"], report.quantities["single_key_td_j0"]),
            (report.quantities["td_xi1_xi2"], report.quantities["single_key_td_j1"]),
        ]
        ok = report.flags["links_le_single_key"] and report.flags["td_le_sum_of_links"]
        detail = ", ".join(f"{a:.6f}<={b:.6f}" for a, b in links)
        return ok, f"p=2, lam=2, n=3, ell=1, t=1: links {detail} (within 1e-9)"

    return _timed("multi-key-chain", check)


def rank_attack() -> CriterionResult:
    """Support projection accepts the real state always and the ideal state rarely enough."""

    def check():
        details = []
        ok = True
        for lam, n, ell, t in ((1, 2, 1, 1), (2, 2, 1, 1)):
            report = prsg.impossibility_attack(PrsParams(lam=lam, n=n, ell=ell, t=t))
            ok &= report.flags["tr_pi_rho0_is_one"]
            ok &= report.flags["tr_pi_rho1_le_rank_ratio"]
            ok &= report.flags["rank_rho1_matches_formula"]
            details.append(
                f"lam={lam}: Tr(Pi rho0)={report.quantities['tr_pi_rho0']:.9f}, "
                f"Tr(Pi rho1)={report.quantities['tr_pi_rho1']:.4f}"
                f"<={report.bounds['rank_ratio']:.4f}, "
                f"rank(rho1)={report.quantities['rank_rho1_measured']}"
            )
        return ok, "; ".join(details)

    return _timed("rank-attack", check)


def commitment_binding() -> CriterionResult:
    """Perfect correctness, the per-copy fidelity cap, and the sum-binding bound."""

    def check():
        worst_honest = 0.0
        worst_excess = -1.0
        fidelity_ok = True
        rng = rng_for(808)
        for lam, n in ((1, 2), (2, 4)):
            cap = 2.0 ** -(n - lam)
            for trial in range(100):
                theta = sample_haar(n, rng)
                params = CommitmentParams(lam=lam, n=n, p=1, theta=theta)
                red0 = DensityOperator.from_dense(
                    partial_trace_pure(commit_copy(0, params), [0]), (n,)
                )
                red1 = DensityOperator.from_dense(
                    partial_trace_pure(commit_copy(1, params), [0]), (n,)
                )
                fidelity_ok &= fidelity(red0, red1) <= cap + ATOL_CHAIN
            for p in (1, 2, 4):
                theta = sample_haar(n, rng)
                params = CommitmentParams(lam=lam, n=n, p=p, theta=theta)
                catalog = builtin_adversaries(params, rng)
                honest0 = binding_experiment(catalog["honest-0"], params)
                honest1 = binding_experiment(catalog["honest-1"], params)
                worst_honest = max(
                    worst_honest,
                    abs(honest0.quantities["p0"] - 1.0),
                    abs(honest1.quantities["p1"] - 1.0),
                )
                for adv in catalog.values():
                    report = binding_experiment(adv, params)
                    excess = (
                        report.quantities["p0_plus_p1"] - report.bounds["sum_binding_bound"]
                    )
                    worst_excess = max(worst_excess, excess)
                if p <= 2 and n <= 2:
                    committed = DensityOperator.from_pure(honest_commit(0, params))
                    worst_honest = max(
                        worst_honest, abs(accept_probability(0, committed, params) - 1.0)
                    )
        ok = worst_honest <= 1e-10 and fidelity_ok and worst_excess <= ATOL_CHAIN
        return ok, (
            f"honest accept off by {worst_honest:.2e} (<=1e-10), per-copy fidelity under "
            f"2^-(n-lam) for 100 samples x 2 sets: {fidelity_ok}, max bound excess "
            f"{worst_excess:.2e} (<=1e-9) over 4 adversaries x p in (1,2,4)"
        )

    return _timed("commitment-binding", check)


def hiding_crosscheck() -> CriterionResult:
    """The hiding distance equals the multi-key distance with one copy per key."""

    def check():
        from .commitments import hiding_distance

        theta = sample_haar(3, rng_for(909))
        report = hiding_distance(CommitmentParams(lam=2, n=3, p=1, theta=theta), t=1)
        diff = report.quantities["route_difference"]
        return diff <= ATOL_CHAIN, (
            f"lam=2, n=3, p=1, t=1: hiding={report.quantities['td_hiding']:.9f}, "
            f"multikey route={report.quantities['td_multikey_route']:.9f}, "
            f"difference={diff:.2e} (<=1e-9)"
        )

    return _timed("hiding-crosscheck", check)


def pgm_bound() -> CriterionResult:
    """Overlap quantity under (m+1)/d and the closed-form inverse-root norm."""

    def check():
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

    return _timed("pgm-bound", check)


def determinism() -> CriterionResult:
    """Repeating any experiment with the same seed is byte-identical."""

    def check():
        configs = [
            ExperimentConfig("prsg-td", {"lam": 2, "n": 3, "ell": 1, "t": 1}, seed=7),
            ExperimentConfig("multikey-td", {"lam": 2, "n": 3, "ell": 1, "t": 1, "p": 2}, seed=7),
            ExperimentConfig("impossibility", {"lam": 1, "n": 2, "ell": 1, "t": 1}, seed=7),
            ExperimentConfig(
                "commit-binding", {"lam": 1, "n": 2, "p": 2, "adversary": "half-angle"}, seed=7
            ),
            ExperimentConfig("commit-hiding", {"lam": 2, "n": 3, "p": 1, "t": 1}, seed=7),
            ExperimentConfig("pgm", {"n": 2, "m": 1}, seed=7),
            ExperimentConfig("typestats", {"lam": 4, "ell": 1, "t": 3}, seed=7, trials=2000),
        ]
        for config in configs:
            first = run(config).canonical_bytes()
            second = run(config).canonical_bytes()
            if first != second:
                return False, f"{config.experiment}: repeated run differs byte-wise"
        return True, f"{len(configs)} experiments re-run from scratch, all byte-identical"

    return _timed("determinism", check)


ALL_CRITERIA: list[Callable[[], CriterionResult]] = [
    haar_moment_oracle,
    type_split_identity,
    permutation_average,
    hybrid_equivalences,
    security_trend,
    multi_key_chain,
    rank_attack,
    commitment_binding,
    hiding_crosscheck,
    pgm_bound,
    determinism,
]


def run_all(echo=print) -> list[CriterionResult]:
    results = []
    for criterion in ALL_CRITERIA:
        result = criterion()
        results.append(result)
        tag = "PASS" if result.passed else "FAIL"
        echo(f"{tag}  {result.name:24s} [{result.duration_s:7.1f}s]  {result.detail}")
    failures = [r for r in results if not r.passed]
    echo(
        f"{len(results) - len(failures)}/{len(results)} acceptance criteria passed"
        + (f"; FAILED: {', '.join(r.name for r in failures)}" if failures else "")
    )
    return results
