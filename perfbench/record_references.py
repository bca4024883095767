"""Record the reference reports the benchmark checks every sample against.

    python3 perfbench/record_references.py

Runs every workload once in traced mode (which produces every report the
workload has, replays included) at several seeds, at both the full and the
smoke sizes, and writes ``references.json``. A quantity that differs between
seeds by more than the check's tolerance is marked seed-dependent: its value
is then not compared, but its report's flags still must pass. The committed
file was recorded from the commit that introduced the benchmark; a change that
claims to keep every report quantity must not re-record it.
"""

from __future__ import annotations

import json

from run import HERE, WORKLOADS, _differs, sample

SEEDS = (0, 1, 2)


def reference_entries(runs: list[list[dict]]) -> list[dict]:
    entries = []
    for reports in zip(*runs):
        first = reports[0]
        loose = sorted(
            key
            for section in ("quantities", "bounds")
            for key, value in first[section].items()
            if any(_differs(other[section][key], value) for other in reports[1:])
        )
        entries.append({
            "experiment": first["experiment"],
            "params": first["params"],
            "replay": first["experiment"].startswith("replay-"),
            "quantities": first["quantities"],
            "bounds": first["bounds"],
            "flags": sorted(first["flags"]),
            "seed_dependent": loose,
        })
    return entries


def main() -> None:
    references = {}
    for size in ("full", "smoke"):
        references[size] = {}
        for workload in WORKLOADS:
            runs = [sample(workload, seed, "trace", size == "smoke")["reports"] for seed in SEEDS]
            references[size][workload] = reference_entries(runs)
            print(f"{size} {workload}: {len(runs[0])} reports")
    with open(HERE / "references.json", "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
