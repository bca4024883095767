"""The ``typestats`` experiment: how often a sampled type is prefix collision-free.

A module of its own, imported by ``runner.execute`` only for this experiment,
so that no other run compiles it.
"""

from __future__ import annotations

import math

from .budgets import Budgets
from .haar import rng_for
from .reporting import ExperimentReport
from .typestates import estimate_cf_probability, exact_cf_probability


def typestats_report(params: dict, seed: int, budgets: Budgets) -> ExperimentReport:
    """The ``typestats`` experiment: the sampled collision-free probability against its rate.

    ``params`` holds ``lam``, ``m_suffix``, ``ell``, ``t`` and ``trials``. Where
    at most 20,000 types exist, the exact probability is reported too, and the
    estimate is checked against it.
    """
    lam, m_suffix, ell, t, trials = (params[k] for k in ("lam", "m_suffix", "ell", "t", "trials"))
    if lam < 1 or ell < 1 or t < 1 or m_suffix < 0:
        raise ValueError("need lam >= 1, ell >= 1, t >= 1, m_suffix >= 0")
    rng = rng_for(seed)
    estimate = estimate_cf_probability(lam, m_suffix, ell, t, trials, rng, budgets)
    # the plug-in standard error: 0 when every draw agrees
    stderr = math.sqrt(estimate * (1 - estimate) / trials)
    # Collision-rate readings of the per-pair probability: the source text
    # prints O(1/2^n - 2 ell); the surrounding argument needs O(1/(2^n - 2 ell)).
    reading_literal = 1.0 / 2**lam - 2 * ell
    reading_intended = 1.0 / (2**lam - 2 * ell) if 2**lam > 2 * ell else float("inf")
    rate = t ** (2 * ell) / 2**lam
    quantities = {
        "cf_probability_estimate": estimate,
        "standard_error": stderr,
        "miss_probability": 1.0 - estimate,
        "per_pair_collision_reading_literal": reading_literal,
        "per_pair_collision_reading_intended": reading_intended,
    }
    bounds = {
        "miss_rate_t2l_over_2lam": rate,
        "fitted_constant": (1.0 - estimate) / rate if rate > 0 else float("nan"),
    }
    exact_count = math.comb((1 << (lam + m_suffix)) + t - 1, t)
    flags = {}
    if exact_count <= 20_000:
        exact = exact_cf_probability(lam, m_suffix, ell, t, budgets)
        quantities["cf_probability_exact"] = exact
        # the binomial sigma at the exact probability: the plug-in one is ~0
        # when every draw agrees, and would fail the flag on honest runs
        sigma = math.sqrt(exact * (1 - exact) / trials)
        flags["estimate_within_4_sigma_of_exact"] = abs(exact - estimate) <= 4 * sigma + 1e-9
    else:
        quantities["cf_probability_exact"] = None
    return ExperimentReport(
        experiment="typestats",
        params=params,
        quantities=quantities,
        bounds=bounds,
        flags=flags,
        notes=[
            "the per-pair collision probability is printed as O(1/2^n - 2l) in the "
            "source; the intended reading O(1/(2^n - 2l)) is the one tested"
        ],
    )
