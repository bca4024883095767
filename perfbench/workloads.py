"""One benchmark sample of one workload, in a fresh interpreter.

    python3 perfbench/workloads.py --workload NAME --seed N --mode {setup,run,trace} [--smoke]

``run.py`` starts this file once per sample with ``PYTHONPATH`` set to the
checkout's ``src``, so every sample starts with cold process-global caches,
as a user's ``chs-lab`` invocation does. The last line of standard output is
one JSON object:

- ``setup_wall_s``: seconds to ``import chslab`` (numpy comes with it), and
  ``setup_s``, the same at the reference host speed (see ``SpeedGauge``);
- ``run_wall_s``: seconds from the first call into ``chslab`` to the last
  serialized report; ``run_net_s``, the same without the gauge's own ticks;
  and ``run_s``, the net time at the reference host speed;
- ``setup_tick_s`` and ``run_tick_s``: the median gauge tick behind each;
- ``peak_rss_mb``: this process's max RSS;
- ``reports``: every report's canonical dict, which ``run.py`` checks
  against the recorded references;
- ``layers`` and ``spans`` (``trace`` mode): per-layer metrics and the spans
  recorded around calls into the public functions of each ``chslab`` layer.

The seed reaches the program only through ``ExperimentConfig.seed`` and
``HaarSampler``. Nothing here imports or clears private state of ``chslab``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import math
import platform
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_BINDING = [
    ("commit-binding", {"lam": 2, "n": 4, "p": 4, "adversary": adversary})
    for adversary in ("honest-0", "honest-1", "half-angle", "random-rotation")
]

# Workload sizes. The smoke sizes take the same code paths in a few seconds.
SIZES = {
    "full": {
        "trend-sweep": {"n": 5, "ell": 1, "t": 2, "lams": [1, 2, 3, 4], "replay_lam": 2},
        "multikey-chain": {"lam": 2, "n": 4, "ell": 1, "t": 1, "p": 3},
        "dense-checks": {
            "configs": [
                ("pgm", {"n": 4, "m": 1}),
                ("pgm", {"n": 3, "m": 2}),
                ("commit-hiding", {"lam": 2, "n": 3, "p": 2, "t": 1}),
                ("impossibility", {"lam": 2, "n": 3, "ell": 1, "t": 2}),
                *_BINDING,
            ],
            "haar_cases": [(2, 2), (4, 2), (4, 3)],
            "haar_samples": 100_000,
        },
    },
    "smoke": {
        "trend-sweep": {"n": 3, "ell": 1, "t": 2, "lams": [1, 2, 3], "replay_lam": 2},
        "multikey-chain": {"lam": 2, "n": 3, "ell": 1, "t": 1, "p": 2},
        "dense-checks": {
            "configs": [
                ("pgm", {"n": 2, "m": 1}),
                ("commit-hiding", {"lam": 1, "n": 2, "p": 1, "t": 1}),
                ("impossibility", {"lam": 1, "n": 2, "ell": 1, "t": 1}),
                *[(e, {**p, "lam": 1, "n": 2, "p": 2}) for e, p in _BINDING],
            ],
            "haar_cases": [(2, 2)],
            "haar_samples": 100_000,
        },
    },
}

# The haar-moment-oracle criterion's limit on TD(sampled, exact).
HAAR_TD_LIMIT = 0.02

# The layer each dense-checks experiment dispatches to through runner.run.
DENSE_LAYER = {
    "pgm": "pgm.report",
    "commit-hiding": "commitments.hiding",
    "commit-binding": "commitments.binding",
    "impossibility": "prsg.impossibility",
}


class Tracer:
    """Spans and counts kept in memory; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount=1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def find(self, name: str) -> int:
        return next(i for i, span in enumerate(self.spans) if span[0] == name)

    def duration(self, index: int) -> float:
        return self.spans[index][2] - self.spans[index][1]

    def children_time(self, index: int) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent == index)


def serialize(tr: Tracer, reports) -> list[dict]:
    """JSON text of every report, parsed back for the reference check."""
    with tr.span("reporting.serialize"):
        texts = [report.to_json() for report in reports]
    tr.count("reporting.bytes", sum(len(text) for text in texts))
    return [json.loads(text) for text in texts]


# ---------------------------------------------------------------------------
# Layer calls shared by the replays
# ---------------------------------------------------------------------------


def build_hybrid(tr: Tracer, index: int, params):
    from chslab import prsg

    with tr.span("prsg.hybrid_state"):
        state = prsg.hybrid_state(prsg.HybridSpec(index, params))
    tr.count("prsg.builds")
    tr.count("prsg.members", len(state.ensemble))
    tr.count("prsg.amplitudes", sum(len(s.amplitudes) for _, s in state.ensemble))
    return state


def gram(tr: Tracer, a, b) -> float:
    from chslab import gram_trace_distance

    with tr.span("qla.gram_trace_distance"):
        value = gram_trace_distance(a, b)
    tr.count("qla.gram_calls")
    tr.count("qla.gram_members", len(a.ensemble) + len(b.ensemble))
    return value


def moment(tr: Tracer, N: int, t: int):
    from chslab import exact_moment

    with tr.span("haar.exact_moment"):
        return exact_moment(N, t)


def tensor_all(tr: Tracer, parts):
    from chslab import tensor

    state = parts[0]
    for part in parts[1:]:
        with tr.span("qla.tensor"):
            state = tensor(state, part)
    return state


def replay_report(tr: Tracer, experiment: str, params: dict, quantities: dict) -> dict:
    """Replayed distances are serialized and checked like any report."""
    from chslab import ExperimentReport

    return serialize(tr, [ExperimentReport(experiment, params, quantities)])[0]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

_STEPS = [(1, 2), (2, 3), (3, 4)]
_LAM_FREE_PAIRS = [(4, 5), (5, 6), (6, 7), (7, 8)]


def trend_sweep(size: dict, seed: int, tr: Tracer) -> list[dict]:
    """runner.sweep of prsg-td over lam; the traced run replays the cold report."""
    from dataclasses import replace

    from chslab import runner
    from chslab.reporting import combined_csv

    base = runner.ExperimentConfig(
        "prsg-td", {"n": size["n"], "ell": size["ell"], "t": size["t"]}, seed=seed
    )
    if not tr.enabled:
        reports, _ = runner.sweep(base, "lam", size["lams"])
        return serialize(tr, reports)

    # What sweep does in one process, with one span per report.
    reports = []
    with tr.span("e2e"):
        for lam in size["lams"]:
            with tr.span(f"runner.run lam={lam}"):
                reports.append(runner.run(replace(base, params={**base.params, "lam": lam})))
        with tr.span("reporting.serialize"):
            tr.count("reporting.bytes", len(combined_csv(reports)))
        out = serialize(tr, reports)
    out.append(replay_single_key(size, tr))
    cf_filter(size, tr)
    return out


def replay_single_key(size: dict, tr: Tracer) -> dict:
    """The 13 builds and 8 Gram calls single_key_report makes on a cold cache."""
    from chslab.prsg import PrsParams

    lam, n, ell, t = size["replay_lam"], size["n"], size["ell"], size["t"]
    params = PrsParams(lam=lam, n=n, ell=ell, t=t)
    lam_free = PrsParams(lam=1, n=n, ell=ell, t=t)
    quantities = {}
    with tr.span("replay"):
        states = {1: build_hybrid(tr, 1, params), 8: build_hybrid(tr, 8, params)}
        quantities["td_real_ideal"] = gram(tr, states[1], states.pop(8))
        for i, j in _STEPS:
            states[j] = build_hybrid(tr, j, params)
            quantities[f"td_h{i}_h{j}"] = gram(tr, states.pop(i), states[j])
        states.clear()
        for i, j in _LAM_FREE_PAIRS:
            a, b = build_hybrid(tr, i, lam_free), build_hybrid(tr, j, lam_free)
            quantities[f"td_h{i}_h{j}"] = gram(tr, a, b)
            del a, b
        return replay_report(
            tr, "replay-prsg-td", {"lam": lam, "n": n, "ell": ell, "t": t}, quantities
        )


def cf_filter(size: dict, tr: Tracer) -> None:
    """The prefix collision-free filter the conditioned hybrids H2 and H3 each run."""
    from chslab import is_l_fold_prefix_cf
    from chslab.typestates import enumerate_types

    lam, n, ell, t = size["replay_lam"], size["n"], size["ell"], size["t"]
    with tr.span("typestates.cf_filter"):
        for T in enumerate_types(1 << n, ell + t, prefix_bits=lam):
            tr.count("typestates.types")
            if is_l_fold_prefix_cf(T, ell):
                tr.count("typestates.cf_types")


def multikey_chain(size: dict, seed: int, tr: Tracer) -> list[dict]:
    """One multikey-td report; the traced run replays what public calls reach."""
    from chslab import runner

    config = runner.ExperimentConfig("multikey-td", dict(size), seed=seed)
    with tr.span("e2e"):
        with tr.span("runner.run multikey-td"):
            report = runner.run(config)
        out = serialize(tr, [report])
    if tr.enabled:
        del report
        out.append(replay_multikey(size, tr))
    return out


def replay_multikey(size: dict, tr: Tracer) -> dict:
    """The single-key cross-checks and the last link xi_{p-1} -> xi_p.

    xi_{p-1} is p-1 exact ell-copy moments times the single-key real state H1;
    xi_p is p exact ell-copy moments times the exact t-copy moment.
    """
    from chslab.prsg import PrsParams

    lam, n, ell, t, p = (size[k] for k in ("lam", "n", "ell", "t", "p"))
    N = 1 << n
    quantities = {}
    with tr.span("replay"):
        for j in range(p):
            params = PrsParams(lam=lam, n=n, ell=ell, t=(p - j - 1) * ell + t)
            real, ideal = build_hybrid(tr, 1, params), build_hybrid(tr, 8, params)
            quantities[f"single_key_td_j{j}"] = gram(tr, real, ideal)
            del real, ideal
        keyed = build_hybrid(tr, 1, PrsParams(lam=lam, n=n, ell=ell, t=t))
        before = tensor_all(tr, [moment(tr, N, ell) for _ in range(p - 1)] + [keyed])
        after = tensor_all(
            tr, [moment(tr, N, ell) for _ in range(p)] + ([moment(tr, N, t)] if t else [])
        )
        quantities[f"td_xi{p - 1}_xi{p}"] = gram(tr, before, after)
        del keyed, before, after
        return replay_report(tr, "replay-multikey-td", dict(size), quantities)


def dense_checks(size: dict, seed: int, tr: Tracer) -> list[dict]:
    """Dense and sampling paths: pgm, commitments, the rank attack, Haar moments."""
    from chslab import runner

    reports = []
    with tr.span("e2e"):
        for experiment, params in size["configs"]:
            with tr.span(DENSE_LAYER[experiment]):
                reports.append(runner.run(runner.ExperimentConfig(experiment, params, seed=seed)))
        out = serialize(tr, reports)
        out.append(haar_check(size, seed, tr))
    return out


def haar_check(size: dict, seed: int, tr: Tracer) -> dict:
    """Seeded copy of the haar-moment-oracle criterion."""
    import numpy as np

    from chslab import ExperimentReport, HaarSampler, symmetric_projector
    from chslab.tolerances import ATOL_CROSS_PATH

    samples = size["haar_samples"]
    quantities, flags = {}, {}
    for N, t in size["haar_cases"]:
        with tr.span("haar.sampler"):
            vecs = HaarSampler(N.bit_length() - 1, rng_seed=seed).statevectors(samples)
        tr.count("haar.samples", samples)
        with tr.span("haar.moment_check"):
            power = vecs
            for _ in range(t - 1):
                power = np.einsum("bi,bj->bij", power, vecs).reshape(samples, -1)
            sampled = power.T @ power.conj() / samples
            exact = moment(tr, N, t).to_dense()
            diff = np.linalg.eigvalsh(0.5 * (sampled + sampled.conj().T) - exact)
            td = 0.5 * float(np.abs(diff).sum())
            projector = symmetric_projector(N, t) / math.comb(N + t - 1, t)
            residual = float(np.abs(exact - projector).max())
        quantities[f"td_sampled_exact_N{N}_t{t}"] = td
        quantities[f"exact_minus_projector_N{N}_t{t}"] = residual
        flags[f"td_le_limit_N{N}_t{t}"] = td <= HAAR_TD_LIMIT
        flags[f"exact_is_projector_N{N}_t{t}"] = residual <= ATOL_CROSS_PATH
    report = ExperimentReport("haar-moment-oracle", {"samples": samples}, quantities, flags=flags)
    report.seed = seed
    return serialize(tr, [report])[0]


WORKLOADS = {
    "trend-sweep": trend_sweep,
    "multikey-chain": multikey_chain,
    "dense-checks": dense_checks,
}


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced sample
# ---------------------------------------------------------------------------

TIMED_SPANS = {
    "prsg.assembly_s": "prsg.hybrid_state",
    "typestates.cf_filter_s": "typestates.cf_filter",
    "qla.gram_s": "qla.gram_trace_distance",
    "qla.tensor_s": "qla.tensor",
    "prsg.multikey_report_s": "runner.run multikey-td",
    "haar.sampler_s": "haar.sampler",
    "haar.moment_check_s": "haar.moment_check",
    "haar.exact_moment_s": "haar.exact_moment",
    "pgm.report_s": "pgm.report",
    "commitments.hiding_s": "commitments.hiding",
    "commitments.binding_s": "commitments.binding",
    "prsg.impossibility_s": "prsg.impossibility",
    "reporting.serialize_s": "reporting.serialize",
}
COUNTS = [
    "prsg.builds",
    "prsg.members",
    "prsg.amplitudes",
    "typestates.types",
    "typestates.cf_types",
    "qla.gram_calls",
    "qla.gram_members",
    "haar.samples",
    "reporting.bytes",
]
LAYER_UNITS = {
    **dict.fromkeys(TIMED_SPANS, "s"),
    **dict.fromkeys(COUNTS, "count"),
    "pgm.dense_dim": "count",
    "reporting.bytes": "B",
    "typestates.cf_ratio": "ratio",
    "prsg.report_cold_s": "s",
    "prsg.report_warm_s": "s",
    "trace.coverage": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(workload: str, size: dict, tr: Tracer) -> dict:
    """Per-layer metrics; a layer the workload does not reach reads 0.

    ``trace.coverage`` is the share of an explained interval that the layer
    spans directly inside it account for; ``trace.unattributed_s`` is the rest:
    - trend-sweep: the replayed cold report, explained by its builds, Gram
      calls and serialization;
    - multikey-chain: the multikey-td report through runner.run, explained by
      the replayed single-key cross-checks and last link (the other links are
      built by private helpers that no public call reaches);
    - dense-checks: the whole workload, one layer span per call.
    """
    metrics = {name: tr.total(span) for name, span in TIMED_SPANS.items()}
    metrics.update({name: tr.counts[name] for name in COUNTS})
    types = tr.counts["typestates.types"]
    metrics["typestates.cf_ratio"] = tr.counts["typestates.cf_types"] / types if types else 0.0
    metrics["pgm.dense_dim"] = max(
        ((1 << p["n"]) ** (p["m"] + 1) for e, p in size.get("configs", []) if e == "pgm"), default=0
    )
    metrics["prsg.report_cold_s"] = metrics["prsg.report_warm_s"] = 0.0
    if workload == "trend-sweep":
        cold = size["replay_lam"]
        warm = [lam for lam in size["lams"] if lam > cold]
        metrics["prsg.report_cold_s"] = tr.total(f"runner.run lam={cold}")
        warm_total = sum(tr.total(f"runner.run lam={lam}") for lam in warm)
        metrics["prsg.report_warm_s"] = warm_total / len(warm)
        explained = tr.duration(tr.find("replay"))
        attributed = tr.children_time(tr.find("replay"))
    elif workload == "multikey-chain":
        explained = metrics["prsg.multikey_report_s"]
        attributed = tr.children_time(tr.find("replay"))
    else:
        explained = tr.duration(tr.find("e2e"))
        attributed = tr.children_time(tr.find("e2e"))
    metrics["trace.coverage"] = attributed / explained
    metrics["trace.unattributed_s"] = explained - attributed
    return metrics


# ---------------------------------------------------------------------------
# Host speed gauge
# ---------------------------------------------------------------------------

GAUGE_PERIOD_S = 0.2
# Ticks taken just before and just after each timed interval, so that an
# interval shorter than one period still has a speed reading.
GAUGE_EDGE_TICKS = 5
# The gauge tick on a host at the reference speed. Times at the reference
# speed are wall times scaled by REFERENCE_TICK_S / (the ticks around them).
REFERENCE_TICK_S = 0.002


def gauge_work() -> None:
    """Fixed pure-Python work of about 2 ms: integer arithmetic and a dict of lists.

    It belongs to the benchmark, not to the program, so it is the same work on
    every commit and only the host's speed moves its time.
    """
    total = 0
    for i in range(8000):
        total += i * i
    table = {}
    for i in range(3000):
        table[i, i & 7] = [i]
    for key in table:
        table[key].append(key[0])


class SpeedGauge:
    """Times ``gauge_work`` on the sample's own CPU while the sample runs.

    A shared host runs this process at speeds up to 1.6x apart, for stretches
    of a second to several minutes. While ``running``, a SIGALRM handler runs
    one tick every ``GAUGE_PERIOD_S`` (about 1% of the time); the handler waits
    while a long call into C runs, so ticks are not evenly spaced. ``measure``
    scales each stretch between two ticks by the ticks around it, so the
    result follows the speed changes within a sample.
    """

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []  # (start, duration)

    def tick(self, *_) -> None:
        # With the collector off, no tick scans the program's heap, whose size
        # differs between commits.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        gauge_work()
        self.ticks.append((start, time.perf_counter() - start))
        if collecting:
            gc.enable()

    def edge(self) -> None:
        for _ in range(GAUGE_EDGE_TICKS):
            self.tick()

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """The time of [start, end) without ticks, and that time at the reference speed.

        Edge ticks come before ``start`` and after ``end``, so the stretches
        between consecutive ticks cover the interval. Each stretch is scaled
        by the median of the six ticks nearest it, which a single slow tick
        does not move.
        """
        ticks = sorted(self.ticks)
        net = scaled = 0.0
        for j in range(len(ticks) - 1):
            lo, hi = max(sum(ticks[j]), start), min(ticks[j + 1][0], end)
            if hi > lo:
                window = [duration for _, duration in ticks[max(0, j - 2) : j + 4]]
                net += hi - lo
                scaled += (hi - lo) * REFERENCE_TICK_S / statistics.median(window)
        return net, scaled

    def median_tick(self) -> float:
        return statistics.median(duration for _, duration in self.ticks)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def blas_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
    }


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    gauge = SpeedGauge()
    gauge.edge()
    start = time.perf_counter()
    import chslab

    end = time.perf_counter()
    gauge.edge()
    if not Path(chslab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"chslab was imported from {chslab.__file__}, not from {ROOT / 'src'}")
    result = {"setup_wall_s": end - start, "setup_tick_s": gauge.median_tick()}
    _, result["setup_s"] = gauge.measure(start, end)
    if args.mode != "setup":
        size = SIZES["smoke" if args.smoke else "full"][args.workload]
        tr = Tracer(args.mode == "trace")
        # The traced sample runs without the gauge, so that no tick lands in a span.
        gauge = SpeedGauge()
        gauge.edge()
        with gauge.running() if not tr.enabled else nullcontext():
            start = time.perf_counter()
            reports = WORKLOADS[args.workload](size, args.seed, tr)
            end = time.perf_counter()
        gauge.edge()
        result["run_wall_s"] = end - start
        result["run_net_s"], result["run_s"] = gauge.measure(start, end)
        result["run_tick_s"] = gauge.median_tick()
        result["reports"] = reports
        if tr.enabled:
            result["e2e_s"] = tr.duration(tr.find("e2e"))
            result["layers"] = layer_metrics(args.workload, size, tr)
            result["spans"] = tr.spans
        else:
            result["environment"] = environment()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
