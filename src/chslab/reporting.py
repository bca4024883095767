"""Experiment reports with deterministic serialization.

Reports carry the configuration echo, named computed quantities, the bound
values they are compared against, and pass/fail flags, each flag named after
the inequality it checks. Serialization is canonical: floats are rendered with
17 significant digits and stored as JSON strings so no parser rounds them, and
the wall-clock duration is kept out of the canonical payload so that two runs
with the same seed produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

ARTIFACT_VERSION = "0.1.0"


def format_float(value) -> str:
    """17 significant digits: enough to round-trip any IEEE double."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


@dataclass
class ExperimentReport:
    """One experiment's result.

    Fields: ``experiment`` and ``params``, the configuration echo;
    ``quantities``, the named computed values; ``bounds``, the values they are
    compared against; ``flags``, pass/fail per checked inequality; ``notes``,
    free text; ``seed``, which ``runner.run`` sets (None for a report built
    outside it); ``version``, the artifact version; and ``duration_s``, the
    wall-clock time, which the canonical payload leaves out.
    """

    experiment: str
    params: dict
    quantities: dict
    bounds: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    seed: int | None = None
    version: str = ARTIFACT_VERSION
    duration_s: float | None = None

    def passed(self) -> bool:
        return all(self.flags.values())

    def canonical_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "version": self.version,
            "seed": self.seed,
            "params": {k: self.params[k] for k in self.params},
            "quantities": {k: format_float(v) for k, v in self.quantities.items()},
            "bounds": {k: format_float(v) for k, v in self.bounds.items()},
            "flags": {k: bool(v) for k, v in self.flags.items()},
            "notes": list(self.notes),
            "all_flags_pass": self.passed(),
        }

    def to_json(self) -> str:
        return json.dumps(self.canonical_dict(), indent=2) + "\n"

    def canonical_bytes(self) -> bytes:
        return self.to_json().encode("utf-8")

    def csv_columns(self) -> dict[str, str]:
        row: dict[str, str] = {
            "experiment": self.experiment,
            "seed": "" if self.seed is None else str(self.seed),
        }
        for k, v in self.params.items():
            row[f"param_{k}"] = str(v)
        for k, v in self.quantities.items():
            row[k] = format_float(v)
        for k, v in self.bounds.items():
            row[f"bound_{k}"] = format_float(v)
        for k, v in self.flags.items():
            row[f"flag_{k}"] = "pass" if v else "fail"
        row["all_flags_pass"] = "pass" if self.passed() else "fail"
        return row

    def to_csv(self) -> str:
        return combined_csv([self])


def combined_csv(reports: list[ExperimentReport]) -> str:
    """One table for a sweep; the column set is the union over rows."""
    rows = [r.csv_columns() for r in reports]
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(row.get(col, "") for col in columns))
    return "\n".join(lines) + "\n"
