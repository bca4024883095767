"""Experiment runner: config validation, dispatch and sweeps.

Every experiment is a pure function of (params, seed, budgets); the seed fully
determines all randomized outputs through counter-based substreams, so
re-running any config reproduces every numeric field bit-exactly. Reports are
serialized without wall-clock timing, which keeps the artifacts byte-identical
across repeated runs. The runner writes nothing: ``run`` returns the report and
``sweep`` the reports and their CSV table, and the caller decides where they go.

Each experiment's layer is imported when ``execute`` dispatches to it, not
when this module loads: ``hybrids`` (the single-key hybrid chain) for
``prsg-td`` and ``hybrid-scan``, ``prsg`` (the multi-key chain) for
``multikey-td``, ``rank_attack`` for ``impossibility``, ``commitments`` for
``commit-binding`` and ``commit-hiding``, ``pgm`` for ``pgm`` and
``typestats`` for ``typestats``. Every ``chs-lab`` invocation is a fresh
process that compiles each module it imports, so a ``multikey-td`` run
compiles no single-key hybrid, attack, commitment, PGM or sampling code.
"""

from __future__ import annotations

import time
from contextlib import suppress
from dataclasses import dataclass, field, replace

from .budgets import DEFAULT_BUDGETS, Budgets, _as_index, parse_int
from .reporting import ExperimentReport, combined_csv


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment to run.

    Fields: ``experiment``, a name in ``SCHEMAS`` or ``ALIASES``; ``params``,
    its parameters (checked against the schema by ``validate_params``);
    ``seed``, the integer that keys every random stream of the run; and
    ``budgets``, the resource budgets the run is checked against.
    """

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


def execute(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch one experiment; the report is not yet serialized."""
    params = validate_params(config.experiment, config.params)
    seed, budgets = config.seed, config.budgets
    experiment = ALIASES.get(config.experiment, config.experiment)
    if experiment == "prsg-td":
        from . import hybrids, prsg

        report = hybrids.single_key_report(prsg.PrsParams(**params), budgets)
    elif experiment == "multikey-td":
        from . import prsg

        report = prsg.multi_key_report(prsg.PrsParams(**params), budgets)
    elif experiment == "impossibility":
        from . import prsg, rank_attack

        report = rank_attack.impossibility_attack(prsg.PrsParams(**params), budgets)
    elif experiment == "commit-binding":
        from . import commitments

        report = commitments.binding_report(params, seed, budgets)
    elif experiment == "commit-hiding":
        from . import commitments

        report = commitments.hiding_distance(**params, budgets=budgets)
    elif experiment == "pgm":
        from . import pgm

        report = pgm.pgm_report(pgm.PgmParams(**params), budgets)
    elif experiment == "typestats":
        from . import typestats

        report = typestats.typestats_report(params, seed, budgets)
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
