"""Command-line entry point.

    chs-lab <experiment> [--lam 2 --n 3 ...] --seed S [--out PATH] [--format json|csv]
    chs-lab sweep <experiment> --axis NAME --values 1,2,3 [fixed params...] [--out PATH]
    chs-lab acceptance

A sweep prints one CSV table with a row per value; it takes no --format or
--timing. The experiment's parameters can also come from a JSON object in a
file (--config FILE); explicit flags override file values. A file that cannot
be read, is not a JSON object or holds a key that is not a parameter of the
experiment is refused with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .budgets import BudgetExceeded, Budgets
from .reporting import format_float
from .runner import ALIASES, SCHEMAS, ExperimentConfig, run, schema_of, sweep


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="64-bit seed; fixes all randomness")
    parser.add_argument("--trials", type=int, default=10_000, help="Monte-Carlo trial count")
    parser.add_argument("--out", type=str, default=None, help="report output path")
    parser.add_argument("--config", type=str, default=None, help="JSON object of parameters")
    parser.add_argument("--max-dense-dim", type=int, default=None)
    parser.add_argument("--max-type-count", type=int, default=None)
    parser.add_argument("--max-subset-pairs", type=int, default=None)


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
    """Flag values over the ``--config`` file's; a bad file raises ``ValueError``."""
    names = schema_of(experiment)
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
    params = {}
    for name in names:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            params[name] = flag_value
        elif name in from_file:
            params[name] = from_file[name]
    return params


def _budgets(args: argparse.Namespace) -> Budgets:
    overrides = {}
    if args.max_dense_dim is not None:
        overrides["max_dense_dim"] = args.max_dense_dim
    if args.max_type_count is not None:
        overrides["max_type_count"] = args.max_type_count
    if args.max_subset_pairs is not None:
        overrides["max_subset_pairs"] = args.max_subset_pairs
    return Budgets(**overrides) if overrides else Budgets()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "acceptance":
        from .acceptance import run_all

        results = run_all()
        return 0 if all(r.passed for r in results) else 1

    if args.command == "sweep":
        experiment = args.experiment
        values = args.values.split(",")
        try:
            if "" in values:
                raise ValueError(f"--values {args.values!r} has an empty entry")
            base = ExperimentConfig(
                experiment=experiment,
                params=_merge_config_file(args, experiment),
                seed=args.seed,
                trials=args.trials,
                output_path=args.out,
                format="csv",
                budgets=_budgets(args),
            )
            reports, table = sweep(base, args.axis, values)
        except ValueError as err:
            sys.stderr.write(f"chs-lab sweep: {err}\n")
            return 2
        sys.stdout.write(table)
        return 0 if all(r.passed() for r in reports) else 1

    experiment = args.command
    try:
        config = ExperimentConfig(
            experiment=experiment,
            params=_merge_config_file(args, experiment),
            seed=args.seed,
            trials=args.trials,
            output_path=args.out,
            format=args.format,
            budgets=_budgets(args),
        )
        report = run(config)
    except (ValueError, BudgetExceeded) as err:
        sys.stderr.write(f"chs-lab {experiment}: {err}\n")
        return 2
    sys.stdout.write(report.to_csv() if args.format == "csv" else report.to_json())
    if args.timing:
        sys.stderr.write(f"wall clock: {format_float(report.duration_s)}s\n")
    return 0 if report.passed() else 1


if __name__ == "__main__":
    raise SystemExit(main())
