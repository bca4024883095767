"""The benchmark's own smoke test.

    python3 perfbench/smoke.py

Runs every workload once at the reduced (smoke) sizes through ``run.py``, in
both modes, and checks the result line against the schema ``BENCHMARK.json``
declares. Then three negative controls: a perturbed reference value and a
failing flag must each count as one failed report, and the benchmark must
exit non-zero without a result in a directory that holds only the benchmark.
Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, WORKLOADS, check_sample, load_references, sample

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def fail(message: str) -> None:
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result_line(workload: str, trace: int) -> None:
    proc = run_benchmark(workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{workload}: reports failed the check:\n{proc.stdout}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{workload}: attempted={result['attempted']!r}")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail(f"{workload}: metrics differ from BENCHMARK.json: {set(metrics) ^ set(declared)}")
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"} or entry["unit"] != declared[name]:
            fail(f"{workload}: metric {name} is {entry}")
        if not isinstance(entry["value"], (int, float)):
            fail(f"{workload}: metric {name} is not a number")
    print(f"smoke: {workload} --trace {trace} ok ({result['attempted']} reports checked)")


def negative_controls() -> None:
    references = load_references(smoke=True)["trend-sweep"]
    reports = sample("trend-sweep", 3, "trace", smoke=True)["reports"]
    if check_sample(reports, references, traced=True):
        fail("the unperturbed reports do not pass")

    perturbed = json.loads(json.dumps(references))
    key, value = next(iter(perturbed[1]["quantities"].items()))
    perturbed[1]["quantities"][key] = repr(float(value) + 1e-9)
    if len(check_sample(reports, perturbed, traced=True)) != 1:
        fail("a reference value perturbed by 1e-9 did not fail exactly one report")

    flipped = json.loads(json.dumps(reports))
    flag = next(iter(flipped[1]["flags"]))
    flipped[1]["flags"][flag] = False
    if len(check_sample(flipped, references, traced=True)) != 1:
        fail("a failing flag did not fail exactly one report")

    owed = sum(not ref["replay"] for ref in references)
    if len(check_sample(None, references, traced=False)) != owed:
        fail("a sample that raised did not fail every report it owed")
    print("smoke: negative controls ok")


def bare_directory() -> None:
    """Only BENCHMARK.json and the benchmark: no program to measure."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(WORKLOADS[0], 0, cwd=Path(tmp))
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"smoke: bare directory exits {proc.returncode} without a result")


def main() -> None:
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_result_line(workload, trace)
    negative_controls()
    bare_directory()
    print("smoke: all ok")


if __name__ == "__main__":
    main()
