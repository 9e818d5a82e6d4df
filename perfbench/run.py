"""The repo's benchmark: one command, three workloads, every metric by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig4a-sweep --seed 42 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with nothing
instrumented; ``--trace 1`` runs the same workload with layer spans and
prints the per-layer split instead.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is a report with the host facts and the digest of the
simulated outputs.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import servework
import simwork
from layertrace import LayerTracer, layer_of, per_call_overhead_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("fig4a-sweep", "fig4b-medium", "serve-mixed")
DEFAULT_SEEDS = {"fig4a-sweep": simwork.FIG4A_SEED, "fig4b-medium": simwork.FIG4B_SEED, "serve-mixed": 0}

#: end-to-end metrics, every workload: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
)

SCHEDULERS = ("hotpotato", "pcmig", "qos")
LAYERS = ("experiments", "sched", "core", "sim", "thermal", "workload", "power", "traffic", "parallel")
SERVE_KINDS = ("peak", "tau", "simulate", "metrics")

#: per-layer metrics, every workload (zero where the layer does not run)
PER_LAYER = tuple(
    [
        (f"sched.{kind}.{metric}", unit)
        for kind in SCHEDULERS
        for metric, unit in (
            ("decide.calls", "count"),
            ("decide.s", "s"),
            ("decide.p99_us", "us"),
            ("arrival.s", "s"),
        )
    ]
    + [
        ("core.refresh.calls", "count"),
        ("core.refresh.s", "s"),
        ("core.admit.calls", "count"),
        ("core.admit.s", "s"),
        ("core.peak_batch.calls", "count"),
        ("core.peak_batch.candidates", "count"),
        ("core.peak_batch.s", "s"),
        ("core.memo_hit_ratio", "ratio"),
        ("sim.intervals", "count"),
        ("sim.host_us_per_interval", "us"),
        ("sim.engine.self_s", "s"),
        ("sim.thread_power_w.calls", "count"),
        ("sim.thread_power_w.s", "s"),
        ("sim.dtm.s", "s"),
        ("sim.dtm_triggers", "count"),
        ("sim.migrations", "count"),
        ("thermal.step.calls", "count"),
        ("thermal.step.s", "s"),
        ("thermal.step_spectral.s", "s"),
        ("thermal.steady_state.calls", "count"),
        ("thermal.steady_state.s", "s"),
        ("thermal.calibrate.s", "s"),
        ("thermal.dynamics_build.s", "s"),
        ("workload.time_per_instruction.s", "s"),
        ("power.core_power_w.s", "s"),
        ("traffic.arrivals.s", "s"),
        ("parallel.run_cells.s", "s"),
        ("parallel.overhead_s", "s"),
    ]
    + [(f"serve.{kind}.{metric}", unit) for kind in SERVE_KINDS for metric, unit in (("busy_s", "s"), ("server_p99_ms", "ms"))]
    + [
        ("serve.peak.client_p99_ms", "ms"),
        ("serve.wait_p99_ms", "ms"),
        ("serve.loop_busy_frac", "ratio"),
        ("serve.cache.peak_memo_hit_ratio", "ratio"),
        ("serve.batch.coalesced_ratio", "ratio"),
        ("obs.tracing_overhead_pct", "%"),
        ("loadgen.late_p99_ms", "ms"),
        ("loadgen.backlog_growth", "count"),
        ("trace.wall_s", "s"),
    ]
    + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
)


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolation quantile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# -- host facts ------------------------------------------------------------------


def host_facts() -> dict:
    import numpy

    try:
        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# -- workloads ---------------------------------------------------------------------


def run_sim(name: str, seed: int, trace: bool, tiny: bool):
    """Returns (metrics, attempted, failed, report)."""
    setups = simwork.setup_times(ROOT)
    if not tiny:
        # lazy imports, first-use caches and allocator growth are set-up,
        # not sweep time: run the tiny form of the workload once, untimed
        _sim_body(name, seed, True, None)
    tracer = LayerTracer() if trace else None
    start = time.perf_counter()
    if tracer is None:
        run = _sim_body(name, seed, tiny, None)
    else:
        tracer.install()
        try:
            with tracer.root(f"experiments.{name}"):
                run = _sim_body(name, seed, tiny, tracer)
        finally:
            tracer.uninstall()
    wall_s = time.perf_counter() - start
    report = {"setup_samples_s": setups, "cells_s": run.cell_s, "ops_s": run.op_s, "digest": run.digest}
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "p50_ms": quantile(run.op_s, 0.5) * 1e3,
            "p99_ms": quantile(run.op_s, 0.99) * 1e3,
        }
    else:
        metrics = sim_layers(tracer, run.digest, f"experiments.{name}")
        report["spans"] = {
            span: {"calls": stat.calls, "total_s": stat.total_s, "self_s": stat.self_s}
            for span, stat in sorted(tracer.stats.items())
        }
    return metrics, run.attempted, run.failed, report


def _sim_body(name: str, seed: int, tiny: bool, tracer: Optional[LayerTracer]):
    if name == "fig4a-sweep":
        wrap = (lambda fn: tracer.wrap(fn, "experiments.cell")) if tracer is not None else None
        return simwork.run_fig4a(seed, tiny, wrap)
    return simwork.run_fig4b(tiny)


def sim_layers(tracer, digest: dict, root: str) -> Dict[str, float]:
    """The per-layer metrics of a traced simulation run."""
    stats = tracer.stats

    def total(span: str) -> float:
        return stats[span].total_s if span in stats else 0.0

    def calls(span: str) -> int:
        return stats[span].calls if span in stats else 0

    out: Dict[str, float] = {}
    for kind in SCHEDULERS:
        decide = stats.get(f"sched.{kind}.decide")
        out[f"sched.{kind}.decide.calls"] = calls(f"sched.{kind}.decide")
        out[f"sched.{kind}.decide.s"] = total(f"sched.{kind}.decide")
        out[f"sched.{kind}.decide.p99_us"] = quantile(decide.samples, 0.99) * 1e6 if decide else 0.0
        out[f"sched.{kind}.arrival.s"] = total(f"sched.{kind}.arrival")
    for span in ("core.refresh", "core.admit", "core.peak_batch", "sim.thread_power_w", "thermal.step", "thermal.steady_state"):
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.s"] = total(span)
    out["core.peak_batch.candidates"] = stats["core.peak_batch"].units if "core.peak_batch" in stats else 0
    lookups = tracer.memo_hits + tracer.memo_misses
    out["core.memo_hit_ratio"] = tracer.memo_hits / lookups if lookups else 0.0
    intervals = calls("thermal.step")
    out["sim.intervals"] = intervals
    out["sim.host_us_per_interval"] = total("sim.engine") / intervals * 1e6 if intervals else 0.0
    out["sim.engine.self_s"] = stats["sim.engine"].self_s if "sim.engine" in stats else 0.0
    out["sim.dtm.s"] = total("sim.dtm")
    out["sim.dtm_triggers"] = digest.get("dtm_triggers", 0)
    out["sim.migrations"] = digest.get("migrations", 0)
    for span in (
        "thermal.step_spectral", "thermal.calibrate", "thermal.dynamics_build",
        "workload.time_per_instruction", "power.core_power_w", "traffic.arrivals", "parallel.run_cells",
    ):
        out[f"{span}.s"] = total(span)
    out["parallel.overhead_s"] = stats["parallel.run_cells"].self_s if "parallel.run_cells" in stats else 0.0
    wall = total(root)
    out["trace.wall_s"] = wall
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for span, stat in stats.items():
        self_by_layer[layer_of(span)] += stat.self_s
    if abs(sum(self_by_layer.values()) - wall) > 1e-6 * max(wall, 1.0):
        raise RuntimeError(f"layer self times {self_by_layer} do not sum to the traced wall {wall}")
    for layer, seconds in self_by_layer.items():
        out[f"layer.{layer}.self_s"] = seconds
    cost_s = tracer.wrapped_calls() * per_call_overhead_s()
    out["obs.tracing_overhead_pct"] = cost_s / (wall - cost_s) * 100.0 if wall > cost_s else 0.0
    return out


def run_serve(seed: int, seconds: float, trace: bool, inject_failures: int):
    """Returns (metrics, attempted, failed, report, backlog kept up)."""
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    try:
        run = servework.run(ROOT, seed, seconds, trace, inject_failures, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    outcomes = run.outcomes
    failed_ids = [
        index for index, (request, outcome) in enumerate(zip(run.tape, outcomes))
        if not servework.response_ok(request.kind, outcome.status, outcome.body)
    ]
    end = max(outcome.done for outcome in outcomes)
    growth = servework.backlog_growth(run)

    def latencies(kind: str) -> List[float]:
        return [o.latency_s for r, o in zip(run.tape, outcomes) if kind in ("all", r.kind)]

    report = {
        "setup_samples_s": run.setup_s,
        "rate_per_s": run.rate_per_s,
        "connections": run.connections,
        "statuses": {str(code): sum(o.status == code for o in outcomes) for code in sorted({o.status for o in outcomes})},
        "failed_request_ids": failed_ids[:20],
        "latency_ms": {
            kind: {f"p{int(q * 100)}": quantile(latencies(kind), q) * 1e3 for q in (0.5, 0.9, 0.95, 0.99)}
            for kind in ("all",) + SERVE_KINDS
        },
        "backlog_growth": growth,
        "backlog_growth_limit": servework.backlog_limit(run),
    }
    if trace:
        metrics = serve_layers(run, end, growth)
    else:
        metrics = {
            "setup_s": statistics.median(run.setup_s),
            "wall_s": end - run.started,
            "peak_rss_mb": run.server_rss_mb,
            "p50_ms": quantile(latencies("all"), 0.5) * 1e3,
            "p99_ms": quantile(latencies("all"), 0.99) * 1e3,
        }
    return metrics, len(outcomes), len(failed_ids), report, growth <= servework.backlog_limit(run)


def serve_layers(run, end: float, growth: float) -> Dict[str, float]:
    """The per-layer metrics of a traced serve run (server spans + /metrics)."""
    out: Dict[str, float] = {}
    by_rid: Dict[int, float] = {}
    durations: Dict[str, List[float]] = {kind: [] for kind in SERVE_KINDS}
    peak_batch = [s for s in run.spans if s["name"] == "batch.peak_batch" and run.started <= s["start_s"] <= end]
    for span in run.spans:
        path = str(span.get("attrs", {}).get("path", ""))
        kind = span["name"].split(".", 1)[1] if span["name"].startswith("http.") else None
        if "rid=" not in path or kind not in durations:
            continue
        durations[kind].append(span["duration_s"])
        by_rid[int(path.rsplit("rid=", 1)[1])] = span["duration_s"]
    for kind in SERVE_KINDS:
        out[f"serve.{kind}.busy_s"] = sum(durations[kind])
        out[f"serve.{kind}.server_p99_ms"] = quantile(durations[kind], 0.99) * 1e3
    peak_latencies = [o.latency_s for r, o in zip(run.tape, run.outcomes) if r.kind == "peak"]
    out["serve.peak.client_p99_ms"] = quantile(peak_latencies, 0.99) * 1e3
    waits = [run.outcomes[rid].latency_s - server_s for rid, server_s in by_rid.items()]
    out["serve.wait_p99_ms"] = quantile(waits, 0.99) * 1e3
    out["serve.loop_busy_frac"] = run.server_cpu_s / (end - run.started)
    metrics = run.metrics

    def delta(name: str) -> float:
        return metrics.get(f"repro_serve_{name}", 0.0) - run.metrics_before.get(f"repro_serve_{name}", 0.0)

    lookups = delta("cache_peak_memo_hits") + delta("cache_peak_memo_misses")
    out["serve.cache.peak_memo_hit_ratio"] = delta("cache_peak_memo_hits") / lookups if lookups else 0.0
    requests = delta("batch_requests")
    out["serve.batch.coalesced_ratio"] = delta("batch_coalesced") / requests if requests else 0.0
    out["core.peak_batch.calls"] = len(peak_batch)
    out["core.peak_batch.candidates"] = sum(int(s.get("attrs", {}).get("candidates", 0)) for s in peak_batch)
    out["core.peak_batch.s"] = sum(s["duration_s"] for s in peak_batch)
    out["core.memo_hit_ratio"] = out["serve.cache.peak_memo_hit_ratio"]
    out["loadgen.late_p99_ms"] = quantile([o.dispatched - o.due for o in run.outcomes], 0.99) * 1e3
    out["loadgen.backlog_growth"] = growth
    out["trace.wall_s"] = end - run.started
    return out


# -- main ----------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: the figure's own)")
    parser.add_argument("--seconds", type=float, default=40.0, help="length of the serve request tape")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="sim workloads at smoke-test scale (not a measurement)")
    parser.add_argument(
        "--inject-failures", type=int, default=0, metavar="N",
        help="serve-mixed: send N requests for an unknown tenant (tests the failure count)",
    )
    args = parser.parse_args(argv)
    # a terminated run still stops the processes it started (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    trace = bool(args.trace)

    if args.workload == "serve-mixed":
        metrics, attempted, failed, report, extra_ok = run_serve(
            seed, args.seconds, trace, args.inject_failures
        )
    else:
        metrics, attempted, failed, report = run_sim(args.workload, seed, trace, args.tiny)
        extra_ok = True

    names = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0 and extra_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit} for name, unit in names},
    }
    report.update(workload=args.workload, seed=seed, seconds=args.seconds, trace=trace, tiny=args.tiny, host=host_facts())
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
