"""Command-line entry point.

    chs-lab <experiment> [--lam 2 --n 3 ...] --seed S [--out PATH] [--format json|csv]
    chs-lab sweep <experiment> --axis NAME --values 1,2,3 [fixed params...] [--out PATH]
    chs-lab acceptance

A sweep prints one CSV table with a row per value; it takes no --format or
--timing, and refuses a flag that is not a parameter of its experiment. The
experiment's parameters can also come from a JSON object in a file (--config
FILE); explicit flags override file values. A file that cannot be read, is not
a JSON object or holds a key that is not a parameter of the experiment is
refused with exit code 2. ``--out`` writes exactly the text that is printed,
and a path that cannot be written is refused with exit code 2 as well.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .budgets import BudgetExceeded, Budgets, parse_int
from .reporting import format_float
from .runner import ALIASES, SCHEMAS, ExperimentConfig, run, schema_of, sweep


def _int_flag(text: str) -> int:
    """An integer flag's value; a refusal is argparse's one-line usage error."""
    try:
        return parse_int(text, "the value")
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=_int_flag, default=0, help="64-bit seed; fixes all randomness"
    )
    parser.add_argument("--out", type=str, default=None, help="also write the printed text here")
    parser.add_argument("--config", type=str, default=None, help="JSON object of parameters")
    for budget in fields(Budgets):
        parser.add_argument(f"--{budget.name.replace('_', '-')}", type=_int_flag, default=None)


def _add_param_flags(parser: argparse.ArgumentParser, names) -> None:
    """One untyped flag per parameter; ``runner.validate_params`` converts every value."""
    for name in names:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chs-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for experiment in SCHEMAS:
        aliases = [alias for alias, target in ALIASES.items() if target == experiment]
        p = sub.add_parser(experiment, aliases=aliases, help=f"run the {experiment} experiment")
        _add_param_flags(p, SCHEMAS[experiment])
        _add_common(p)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--timing", action="store_true", help="print wall-clock duration")
    p_sweep = sub.add_parser("sweep", help="run one experiment across a parameter axis")
    p_sweep.add_argument("experiment", choices=sorted([*SCHEMAS, *ALIASES]))
    p_sweep.add_argument("--axis", required=True, help="parameter to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    _add_param_flags(p_sweep, sorted({n for schema in SCHEMAS.values() for n in schema}))
    _add_common(p_sweep)
    sub.add_parser("acceptance", help="run the full acceptance suite")
    return parser


def _merge_config_file(args: argparse.Namespace, experiment: str) -> dict:
    """Flag values over the ``--config`` file's; bad files and foreign flags raise ValueError."""
    names = schema_of(experiment)
    # a sweep parses every experiment's flags before it knows its experiment
    flags = {n: getattr(args, n, None) for schema in SCHEMAS.values() for n in schema}
    flags = {name: value for name, value in flags.items() if value is not None}
    foreign = [f"--{name.replace('_', '-')}" for name in sorted(flags) if name not in names]
    if foreign:
        raise ValueError(f"not parameters of {experiment}: {', '.join(foreign)}")
    from_file = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                from_file = json.load(handle)
        except OSError as err:
            raise ValueError(f"cannot read config {args.config!r}: {err.strerror or err}") from None
        except ValueError as err:
            raise ValueError(f"config {args.config!r} is not valid JSON: {err}") from None
        if not isinstance(from_file, dict):
            raise ValueError(f"config {args.config!r} must hold a JSON object of parameters")
        unknown = sorted(set(from_file) - set(names))
        if unknown:
            raise ValueError(
                f"config {args.config!r} has keys that are not {experiment} parameters: {unknown}"
            )
    merged = {**from_file, **flags}
    return {name: merged[name] for name in names if name in merged}


def _config(args: argparse.Namespace, experiment: str) -> ExperimentConfig:
    """The flags, ``--config`` file, seed and budget limits of one run or sweep."""
    params = _merge_config_file(args, experiment)
    limits = {budget.name: getattr(args, budget.name) for budget in fields(Budgets)}
    budgets = Budgets(**{name: limit for name, limit in limits.items() if limit is not None})
    return ExperimentConfig(experiment, params, args.seed, budgets)


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to ``out`` when given, then print it; a bad path raises ``ValueError``."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            raise ValueError(f"cannot write {out!r}: {err.strerror or err}") from None
    sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "acceptance":
        from .acceptance import run_all

        results = run_all()
        return 0 if all(r.passed for r in results) else 1

    if args.command == "sweep":
        values = args.values.split(",")
        try:
            if "" in values:
                raise ValueError(f"--values {args.values!r} has an empty entry")
            reports, table = sweep(_config(args, args.experiment), args.axis, values)
            _emit(table, args.out)
        except ValueError as err:
            sys.stderr.write(f"chs-lab sweep: {err}\n")
            return 2
        return 0 if all(r.passed() for r in reports) else 1

    experiment = args.command
    try:
        report = run(_config(args, experiment))
        _emit(report.to_csv() if args.format == "csv" else report.to_json(), args.out)
    except (ValueError, BudgetExceeded) as err:
        sys.stderr.write(f"chs-lab {experiment}: {err}\n")
        return 2
    if args.timing:
        sys.stderr.write(f"wall clock: {format_float(report.duration_s)}s\n")
    return 0 if report.passed() else 1


if __name__ == "__main__":
    raise SystemExit(main())
