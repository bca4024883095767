"""chs-lab benchmark: cold-cache workloads, checked against recorded references.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Every sample is a fresh interpreter
(``workloads.py``) that imports ``chslab`` from the checkout's ``src``, so the
program's process-global caches start cold in every sample, as they do for a
user's ``chs-lab`` invocation. Samples run one after another while the next
one is expected to finish within ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics ``run_s``, ``setup_s`` and
``peak_rss_mb`` (medians over the samples). The two times are given at the
reference host speed: each sample times a fixed gauge on its own CPU while it
runs and scales its wall time by the gauge (``workloads.SpeedGauge``), because
a shared host's speed drifts by more than the bounds for minutes at a time.
The wall times are printed beside them. ``--trace 1`` alternates untraced
and traced samples and reports the per-layer metrics (medians over the traced
samples) and the tracing overhead. Every report of every sample is checked
against ``references.json``; the fail rate is ``failed / attempted`` and the
command exits 1 when it is not zero. The last line of standard output is the
JSON result; the lines before it are the same numbers for a reader, plus the
environment record. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("trend-sweep", "multikey-chain", "dense-checks")
SEED_INDEPENDENT = {"trend-sweep", "multikey-chain"}
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Import-only samples before each workload sample, spread over the run so
# that one slow stretch of a shared host does not set the median.
SETUP_PER_ROUND = 3
TOLERANCE = 1e-12
# Every sample ends by this many seconds after the command started, so a hung
# sample still lets the command exit within three minutes.
HARD_STOP_S = 170

# One BLAS thread everywhere, so that no BLAS thread pool competes with the
# sample for the cores of a small shared host.
PINNED_ENV = {
    "CHS_LAB_PARALLELISM": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchmarkError(RuntimeError):
    """A sample could not run or did not finish."""


def sample(workload: str, seed: int, mode: str, smoke: bool, timeout: float = HARD_STOP_S) -> dict:
    """Run one fresh-interpreter sample; its wall time is stored as ``wall_s``."""
    command = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode] + (["--smoke"] if smoke else [])
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"{workload} {mode} sample timed out after {timeout:.0f}s") from err
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchmarkError(f"{workload} {mode} sample exited {proc.returncode}:\n{tail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def load_references(smoke: bool) -> dict:
    with open(HERE / "references.json", encoding="utf-8") as handle:
        return json.load(handle)["smoke" if smoke else "full"]


def _differs(actual: str, expected: str) -> bool:
    if actual == expected:
        return False
    if "" in (actual, expected):
        return True
    a, e = float(actual), float(expected)
    if math.isnan(a) or math.isnan(e) or math.isinf(a) or math.isinf(e):
        return True
    return abs(a - e) > TOLERANCE


def report_problems(report: dict, reference: dict) -> list[str]:
    """Why a report fails: a failing flag, or a quantity off its reference."""
    if report["experiment"] != reference["experiment"] or report["params"] != reference["params"]:
        return [f"expected {reference['experiment']} {reference['params']}"]
    problems = [f"flag {name} fails" for name, ok in report["flags"].items() if not ok]
    problems += [f"flag {name} missing" for name in reference["flags"]
                 if name not in report["flags"]]
    loose = set(reference["seed_dependent"])
    for section in ("quantities", "bounds"):
        for key, expected in reference[section].items():
            actual = report[section].get(key)
            if actual is None:
                problems.append(f"{key} missing")
            elif key not in loose and _differs(actual, expected):
                problems.append(f"{key}={actual}, reference {expected}")
    return problems


def check_sample(reports: list[dict] | None, references: list[dict], traced: bool) -> list[str]:
    """One failure line per failed report; ``reports`` is None when the sample raised."""
    expected = [ref for ref in references if traced or not ref["replay"]]
    if reports is None:
        return [f"{ref['experiment']} {ref['params']}: sample raised" for ref in expected]
    failures = []
    for i, ref in enumerate(expected):
        problems = ["not produced"] if i >= len(reports) else report_problems(reports[i], ref)
        if problems:
            failures.append(f"{ref['experiment']} {ref['params']}: {'; '.join(problems)}")
    failures += [f"unexpected report {r['experiment']}" for r in reports[len(expected):]]
    return failures


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclass
class Measurement:
    metrics: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)  # samples behind each metric
    run_samples: list = field(default_factory=list)  # untraced run_s, in order
    walls: dict = field(default_factory=dict)  # wall-time medians, for the reader
    attempted: int = 0  # reports and checks
    failures: list = field(default_factory=list)  # one line per failed report
    environment: dict = field(default_factory=dict)


def measure(args) -> Measurement:
    """Samples until the time is up."""
    start = time.perf_counter()
    deadline, hard_stop = start + args.seconds, start + HARD_STOP_S
    references = load_references(args.smoke)[args.workload]
    modes = ("run", "trace") if args.trace else ("run",)
    setups, runs, rss, e2e, layers, walls = [], [], [], [], [], []
    setup_walls, run_walls, nets, ticks = [], [], [], []
    out = Measurement(run_samples=runs)

    completed = True
    while completed:
        wall = 0.0
        if not args.trace:
            for _ in range(SETUP_PER_ROUND):
                result = sample(args.workload, args.seed, "setup", args.smoke,
                                hard_stop - time.perf_counter())
                setups.append(result["setup_s"])
                setup_walls.append(result["setup_wall_s"])
        for mode in modes:
            traced = mode == "trace"
            out.attempted += sum(traced or not ref["replay"] for ref in references)
            try:
                result = sample(args.workload, args.seed, mode, args.smoke,
                                hard_stop - time.perf_counter())
            except BenchmarkError as err:
                # A sample that raised fails every report it owed.
                print(f"sample failed: {err}", file=sys.stderr)
                out.failures += check_sample(None, references, traced)
                completed = False
                break
            wall += result["wall_s"]
            out.failures += check_sample(result["reports"], references, traced)
            setups.append(result["setup_s"])
            setup_walls.append(result["setup_wall_s"])
            if mode == "run":
                runs.append(result["run_s"])
                run_walls.append(result["run_wall_s"])
                nets.append(result["run_net_s"])
                ticks.append(result["run_tick_s"])
                rss.append(result["peak_rss_mb"])
                out.environment = result["environment"]
            else:
                e2e.append(result["e2e_s"])
                layers.append(result["layers"])
                write_spans(args, result["spans"])
        walls.append(wall)
        completed = completed and time.perf_counter() + max(walls) <= deadline
    if not runs or (args.trace and not layers):
        raise BenchmarkError("no sample completed")

    if args.trace:
        out.metrics = {name: statistics.median(x[name] for x in layers) for name in layers[0]}
        out.metrics["trace.overhead_s"] = statistics.median(e2e) - statistics.median(nets)
        out.counts = dict.fromkeys(out.metrics, len(layers))
    else:
        per_sample = {"run_s": runs, "setup_s": setups, "peak_rss_mb": rss}
        out.metrics = {name: statistics.median(values) for name, values in per_sample.items()}
        out.counts = {name: len(values) for name, values in per_sample.items()}
    out.walls = {"run_wall_s": statistics.median(run_walls),
                 "setup_wall_s": statistics.median(setup_walls),
                 "gauge_tick_s": statistics.median(ticks)}
    return out


def write_spans(args, spans: list) -> None:
    """Spans of the last traced sample, for a reader who wants the timeline."""
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}.json"
    path.write_text(json.dumps({"seed": args.seed, "spans": spans}) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else ref[5:]
    return ref


def tail_percentile(count: int) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    if count <= 10:
        return "no percentile has ten samples beyond it"
    return f"p{math.floor(100 * (count - 10) / count)} is the highest with ten beyond it"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        m = measure(args)
    except (BenchmarkError, OSError, ValueError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}"
          + (" (exact workload: the result does not depend on the seed)"
             if args.workload in SEED_INDEPENDENT else " (the seed drives the shared state, the "
             "adversary's rotation and HaarSampler)"))
    env = m.environment
    print(f"environment: nproc={os.cpu_count()} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} commit={git_commit()} pinned={PINNED_ENV}")
    print(f"untraced run_s per sample: {m.run_samples}")
    print("wall-time medians (not at the reference speed): "
          + ", ".join(f"{name} = {value!r} s" for name, value in m.walls.items()))
    units = LAYER_UNITS if args.trace else END_TO_END
    for name, value in m.metrics.items():
        print(f"{name} = {value!r} {units[name]} "
              f"(median of {m.counts[name]} samples; {tail_percentile(m.counts[name])})")
    failed = len(m.failures)
    print(f"fail_rate = {failed / m.attempted!r} ({failed} of {m.attempted} reports and checks)")
    for failure in m.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failed,
        "attempted": m.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in m.metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
