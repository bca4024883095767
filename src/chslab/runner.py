"""Experiment runner: config validation, dispatch, sweeps, serialization.

Every experiment is a pure function of (params, seed, budgets); the seed fully
determines all randomized outputs through counter-based substreams, so
re-running any config reproduces every numeric field bit-exactly. Reports are
serialized without wall-clock timing by default, which keeps the artifacts
byte-identical across repeated runs (pass ``include_timing`` for a local,
non-canonical copy).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

from . import commitments, pgm, prsg, typestates
from .budgets import DEFAULT_BUDGETS, Budgets
from .haar import _as_index, rng_for, sample_haar
from .reporting import ExperimentReport, combined_csv


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    trials: int = 10_000
    output_path: str | None = None
    format: str = "json"
    budgets: Budgets = DEFAULT_BUDGETS

    def __post_init__(self):
        # an int or numpy integer, stored as an int; a bool, float or string is refused
        object.__setattr__(self, "seed", _as_index(self.seed, "seed"))
        if self.format not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.format!r}")


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
    },
}


def _checked_value(experiment: str, name: str, kind: type, value):
    """``value`` as ``kind``, without rounding, truncating or reinterpreting it.

    An int parameter takes an int, an integral float, or a string of an int
    (the form ``chs-lab sweep`` passes from the command line); booleans and
    anything non-integral are rejected.
    """
    if kind is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                pass
    elif isinstance(value, kind):
        return value
    raise ValueError(
        f"{experiment} parameter {name!r} must be {kind.__name__}, got {value!r}"
    )


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


def _run_typestats(params: dict, seed: int, trials: int, budgets: Budgets) -> ExperimentReport:
    lam, m_suffix, ell, t = params["lam"], params["m_suffix"], params["ell"], params["t"]
    if lam < 1 or ell < 1 or t < 1 or m_suffix < 0:
        raise ValueError("need lam >= 1, ell >= 1, t >= 1, m_suffix >= 0")
    rng = rng_for(seed)
    estimate = typestates.estimate_cf_probability(lam, m_suffix, ell, t, trials, rng, budgets)
    stderr = math.sqrt(max(estimate * (1 - estimate), 1e-12) / trials)
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
        flags["estimate_within_4_sigma_of_exact"] = abs(exact - estimate) <= 4 * stderr + 1e-9
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
    if experiment == "prsg-td":
        report = prsg.single_key_report(prsg.PrsParams(**params), budgets)
    elif experiment == "multikey-td":
        report = prsg.multi_key_report(prsg.PrsParams(**params), budgets)
    elif experiment == "impossibility":
        report = prsg.impossibility_attack(prsg.PrsParams(**params), budgets)
    elif experiment == "commit-binding":
        report = _run_commit_binding(params, seed, budgets)
    elif experiment == "commit-hiding":
        report = commitments.hiding_distance(**params, budgets=budgets)
    elif experiment == "pgm":
        report = pgm.pgm_report(pgm.PgmParams(**params), budgets)
    elif experiment == "typestats":
        report = _run_typestats(params, seed, config.trials, budgets)
    else:  # unreachable after validate_params
        raise ValueError(config.experiment)
    report.experiment = config.experiment
    report.seed = seed
    return report


def run(config: ExperimentConfig) -> ExperimentReport:
    """Execute, stamp timing, and serialize to ``output_path`` when given."""
    start = time.perf_counter()
    report = execute(config)
    report.duration_s = time.perf_counter() - start
    if config.output_path:
        payload = report.to_json() if config.format == "json" else report.to_csv()
        with open(config.output_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
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
    sweep's memory too. The returned CSV combines all rows; it is also written
    to ``base.output_path`` when set.
    """
    if axis not in schema_of(base.experiment):
        raise ValueError(f"axis {axis!r} is not a parameter of {base.experiment}")
    if not values:
        raise ValueError(f"sweep of {axis!r} needs at least one value")
    configs = [
        replace(base, params={**base.params, axis: value}, output_path=None)
        for value in values
    ]
    for config in configs:
        validate_params(config.experiment, config.params)
    reports = [_sweep_one(config) for config in configs]
    table = combined_csv(reports)
    if base.output_path:
        with open(base.output_path, "w", encoding="utf-8") as handle:
            handle.write(table)
    return reports, table
