"""Experiment runner: config validation, dispatch and sweeps.

Every experiment is a pure function of (params, seed, budgets); the seed fully
determines all randomized outputs through counter-based substreams, so
re-running any config reproduces every numeric field bit-exactly. Reports are
serialized without wall-clock timing, which keeps the artifacts byte-identical
across repeated runs. The runner writes nothing: ``run`` returns the report and
``sweep`` the reports and their CSV table, and the caller decides where they go.

Each experiment's layer (``prsg``, ``commitments`` or ``pgm``) is imported when
``execute`` dispatches to it, not when this module loads: every ``chs-lab``
invocation is a fresh process that compiles each module it imports, and a
``prsg-td`` run has no use for the commitment or PGM code.
"""

from __future__ import annotations

import math
import time
from contextlib import suppress
from dataclasses import dataclass, field, replace

from . import typestates
from .budgets import DEFAULT_BUDGETS, Budgets, _as_index, parse_int
from .haar import rng_for, sample_haar
from .reporting import ExperimentReport, combined_csv


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    budgets: Budgets = DEFAULT_BUDGETS

    def __post_init__(self):
        # an int or numpy integer, stored as an int; a bool, float or string is refused
        object.__setattr__(self, "seed", _as_index(self.seed, "seed"))


# Parameter schemas: name -> (type, default); default None means required.
SCHEMAS: dict[str, dict[str, tuple[type, object]]] = {
    "prsg-td": {"lam": (int, None), "n": (int, None), "ell": (int, 1), "t": (int, 0)},
    "multikey-td": {
        "lam": (int, None),
        "n": (int, None),
        "ell": (int, 1),
        "t": (int, 0),
        "p": (int, 2),
    },
    "impossibility": {"lam": (int, None), "n": (int, None), "ell": (int, 1), "t": (int, 1)},
    "commit-binding": {
        "lam": (int, None),
        "n": (int, None),
        "p": (int, 1),
        "adversary": (str, "honest-0"),
    },
    "commit-hiding": {"lam": (int, None), "n": (int, None), "p": (int, 1), "t": (int, 1)},
    "pgm": {"n": (int, None), "m": (int, 1)},
    "typestats": {
        "lam": (int, None),
        "m_suffix": (int, 0),
        "ell": (int, 1),
        "t": (int, 2),
        "trials": (int, 10_000),
    },
}


def _checked_value(experiment: str, name: str, kind: type, value):
    """``value`` as ``kind``, without rounding, truncating or reinterpreting it.

    An int parameter takes an int or numpy integer (as the seed does), an
    integral float, or a string of an int (the form the command line passes);
    booleans and anything non-integral are rejected.
    """
    what = f"{experiment} parameter {name!r}"
    if kind is int:
        if isinstance(value, str):
            return parse_int(value, what)
        if isinstance(value, float) and value.is_integer():
            return int(value)
        with suppress(ValueError):
            return _as_index(value, name)
    elif isinstance(value, kind):
        return value
    raise ValueError(f"{what} must be {kind.__name__}, got {value!r}")


# Other names an experiment runs under; its report carries the name it was run as.
ALIASES = {"hybrid-scan": "prsg-td"}


def schema_of(experiment: str) -> dict[str, tuple[type, object]]:
    name = ALIASES.get(experiment, experiment)
    if name not in SCHEMAS:
        raise ValueError(
            f"unknown experiment {experiment!r}; choose from {sorted([*SCHEMAS, *ALIASES])}"
        )
    return SCHEMAS[name]


def validate_params(experiment: str, params: dict) -> dict:
    schema = schema_of(experiment)
    unknown = set(params) - set(schema)
    if unknown:
        raise ValueError(f"unknown parameters for {experiment}: {sorted(unknown)}")
    resolved = {}
    for name, (kind, default) in schema.items():
        if name in params:
            resolved[name] = _checked_value(experiment, name, kind, params[name])
        elif default is None:
            raise ValueError(f"{experiment} requires parameter {name!r}")
        else:
            resolved[name] = default
    return resolved


def _run_typestats(params: dict, seed: int, budgets: Budgets) -> ExperimentReport:
    lam, m_suffix, ell, t, trials = (params[k] for k in ("lam", "m_suffix", "ell", "t", "trials"))
    if lam < 1 or ell < 1 or t < 1 or m_suffix < 0:
        raise ValueError("need lam >= 1, ell >= 1, t >= 1, m_suffix >= 0")
    rng = rng_for(seed)
    estimate = typestates.estimate_cf_probability(lam, m_suffix, ell, t, trials, rng, budgets)
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
        exact = typestates.exact_cf_probability(lam, m_suffix, ell, t, budgets)
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


def _run_commit_binding(params: dict, seed: int, budgets: Budgets) -> ExperimentReport:
    from . import commitments

    rng = rng_for(seed)
    theta = sample_haar(params["n"], rng, budgets)
    cparams = commitments.CommitmentParams(
        lam=params["lam"], n=params["n"], p=params["p"], theta=theta
    )
    catalog = commitments.builtin_adversaries(cparams, rng)
    name = params["adversary"]
    if name not in catalog:
        raise ValueError(f"unknown adversary {name!r}; choose from {sorted(catalog)}")
    return commitments.binding_experiment(catalog[name], cparams, budgets)


def execute(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch one experiment; the report is not yet serialized."""
    params = validate_params(config.experiment, config.params)
    seed, budgets = config.seed, config.budgets
    experiment = ALIASES.get(config.experiment, config.experiment)
    if experiment in ("prsg-td", "multikey-td", "impossibility"):
        from . import prsg

        report = {
            "prsg-td": prsg.single_key_report,
            "multikey-td": prsg.multi_key_report,
            "impossibility": prsg.impossibility_attack,
        }[experiment](prsg.PrsParams(**params), budgets)
    elif experiment == "commit-binding":
        report = _run_commit_binding(params, seed, budgets)
    elif experiment == "commit-hiding":
        from . import commitments

        report = commitments.hiding_distance(**params, budgets=budgets)
    elif experiment == "pgm":
        from . import pgm

        report = pgm.pgm_report(pgm.PgmParams(**params), budgets)
    elif experiment == "typestats":
        report = _run_typestats(params, seed, budgets)
    else:  # unreachable after validate_params
        raise ValueError(config.experiment)
    report.experiment = config.experiment
    report.seed = seed
    return report


def run(config: ExperimentConfig) -> ExperimentReport:
    """Execute and stamp the wall-clock duration, which no serialization carries."""
    start = time.perf_counter()
    report = execute(config)
    report.duration_s = time.perf_counter() - start
    return report


def _sweep_one(config: ExperimentConfig) -> ExperimentReport:
    try:
        return run(config)
    except Exception as err:  # noqa: BLE001 - a sweep marks failures and continues
        return ExperimentReport(
            experiment=config.experiment,
            params=dict(config.params),
            quantities={},
            flags={"run_completed": False},
            notes=[f"run failed: {err}"],
            seed=config.seed,
        )


def sweep(
    base: ExperimentConfig, axis: str, values: list
) -> tuple[list[ExperimentReport], str]:
    """One run per axis value, in order; failures are marked and the sweep continues.

    Every config is validated before the first run starts, so bad input, an
    empty ``values`` included, fails the whole sweep with a ``ValueError``.
    The runs execute one at a time, so the budgets of one run bound the
    sweep's memory too. The returned CSV table combines all rows.
    """
    if axis not in schema_of(base.experiment):
        raise ValueError(f"axis {axis!r} is not a parameter of {base.experiment}")
    if not values:
        raise ValueError(f"sweep of {axis!r} needs at least one value")
    configs = [replace(base, params={**base.params, axis: value}) for value in values]
    for config in configs:
        validate_params(config.experiment, config.params)
    reports = [_sweep_one(config) for config in configs]
    return reports, combined_csv(reports)
