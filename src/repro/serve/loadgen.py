"""Seeded load generator and latency harness for ``repro.serve``.

``python -m repro.serve.loadgen`` boots an in-process
:class:`~repro.serve.http.ThermalServer` on an ephemeral port, registers
a tenant fleet (several tenants per distinct chip configuration, so the
cross-tenant caches actually get exercised), replays a seeded Poisson
arrival stream of mixed requests (``peak`` / ``tau`` / ``simulate`` /
``metrics``) over real TCP connections, and writes ``BENCH_serve.json``
with p50/p95/p99 latency (estimated by the same
:meth:`~repro.obs.metrics.Histogram.quantile` implementation the
``/metrics`` exposition uses), throughput, and the cache counters
scraped from the server's own ``/metrics`` endpoint.  ``--trace-waterfall
PATH`` enables span tracing on the server and exports a self-contained
trace-waterfall HTML of the run.

Arrival times and request contents are fully determined by the seed; the
measured latencies are of course wall-clock.  Candidates are drawn from a
small per-configuration pool shared by every tenant of that
configuration — the steady-state behaviour of a fleet re-evaluating a
recurring set of placements, and the regime where the shared Algorithm-1
memo pays off (hit counters land in the report).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._cli import EXIT_ERROR, EXIT_OK, run_cli
from ..obs.export import parse_openmetrics, write_trace_waterfall
from ..obs.metrics import Histogram
from ..traffic import TRAFFIC_PATTERNS, build_process
from .http import ThermalServer
from .service import ServeConfig

__all__ = ["LoadgenConfig", "run_loadgen"]

#: request mix (kind, weight); weights need not sum to 1.
_DEFAULT_MIX: Tuple[Tuple[str, float], ...] = (
    ("peak", 0.6),
    ("tau", 0.2),
    ("simulate", 0.1),
    ("metrics", 0.1),
)


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation run, fully determined by ``seed``."""

    n_tenants: int = 4
    #: distinct chip configurations (tenants round-robin across them);
    #: configurations differ in DTM threshold, so they hold distinct
    #: dynamics entries in the :class:`~repro.serve.cache.ServeCache`.
    n_distinct_configs: int = 2
    n_requests: int = 200
    arrival_rate_per_s: float = 400.0
    #: candidate placements per configuration, shared by its tenants
    pool_size: int = 8
    mesh_width: int = 4
    mesh_height: int = 4
    seed: int = 0
    #: arrival process shaping the request tape (``docs/traffic.md``);
    #: the default Poisson tape is byte-identical to pre-traffic releases
    traffic: str = "poisson"
    #: simulated horizon of one ``simulate`` request [s]
    simulate_horizon_s: float = 0.02
    #: enable span tracing on the server under load
    trace: bool = False
    #: with ``trace``, write a trace-waterfall HTML here after the run
    trace_waterfall_path: Optional[str] = None


def _build_requests(
    config: LoadgenConfig, tenants: List[str], pools: List[List[List[float]]]
) -> List[Tuple[float, str, str, Optional[Dict[str, Any]]]]:
    """The seeded request tape: (arrival offset, kind, path, payload)."""
    rng = np.random.default_rng(config.seed)
    kinds = [kind for kind, _ in _DEFAULT_MIX]
    weights = np.asarray([weight for _, weight in _DEFAULT_MIX])
    weights = weights / weights.sum()
    # The arrival process draws its base stream from the same rng that
    # seeds the per-request draws below, so the default Poisson tape is
    # byte-identical to the pre-traffic inline exponential/cumsum code.
    process = build_process(
        config.traffic,
        config.arrival_rate_per_s,
        horizon_s=config.n_requests / config.arrival_rate_per_s,
    )
    offsets = process.sample_times(config.n_requests, rng, seed=config.seed)
    tape: List[Tuple[float, str, str, Optional[Dict[str, Any]]]] = []
    for index in range(config.n_requests):
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        tenant_index = int(rng.integers(len(tenants)))
        tenant = tenants[tenant_index]
        pool = pools[tenant_index % config.n_distinct_configs]
        power = pool[int(rng.integers(len(pool)))]
        if kind == "metrics":
            tape.append((float(offsets[index]), kind, "/metrics", None))
        elif kind == "peak":
            payload = {"tenant": tenant, "power": power}
            tape.append((float(offsets[index]), kind, "/v1/peak", payload))
        elif kind == "tau":
            n = len(power)
            seq = [list(np.roll(power, shift)) for shift in range(0, n, n // 4)]
            payload = {"tenant": tenant, "power_seq": seq}
            tape.append((float(offsets[index]), kind, "/v1/tau", payload))
        else:
            payload = {
                "tenant": tenant,
                "scheduler": "hotpotato",
                "max_time_s": config.simulate_horizon_s,
                "workload": {"kind": "homogeneous", "seed": int(rng.integers(1 << 16))},
            }
            tape.append((float(offsets[index]), kind, "/v1/simulate", payload))
    return tape


async def _http_request(
    host: str, port: int, method: str, path: str, payload: Optional[Dict[str, Any]]
) -> Tuple[int, bytes]:
    """One request over a fresh TCP connection; returns (status, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        response_body = await reader.readexactly(length) if length else b""
        return status, response_body
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _quantile_summary(values: Sequence[float]) -> Histogram:
    """The latencies folded into a log-bucketed histogram.

    The report's p50/p95/p99 come from :meth:`Histogram.quantile` — the
    same estimator behind the server's ``/metrics`` exposition, so
    loadgen numbers and scraped numbers are directly comparable.
    """
    histogram = Histogram("loadgen.latency_s", timing=True)
    for value in values:
        histogram.observe(value)
    return histogram


async def _run(
    config: LoadgenConfig, server: ThermalServer
) -> Tuple[Dict[str, Any], List[Any]]:
    """Drive the request tape against ``server``; return (report, spans).

    The server is constructed by :func:`run_loadgen` *before* the event
    loop starts (its ``__init__`` may open a trace sink), and the span
    waterfall is exported there after the loop exits — no file I/O ever
    runs inside the loop (the ``async-blocking-call`` lint gate).
    """
    await server.start()
    assert server.port is not None
    host, port = server.config.host, server.port
    try:
        tenants: List[str] = []
        for index in range(config.n_tenants):
            distinct = index % config.n_distinct_configs
            name = f"tenant-{index}"
            status, _ = await _http_request(
                host,
                port,
                "POST",
                "/v1/tenants",
                {
                    "name": name,
                    "config": {
                        "mesh_width": config.mesh_width,
                        "mesh_height": config.mesh_height,
                        "dtm_threshold_c": 70.0 + 5.0 * distinct,
                    },
                },
            )
            if status != 200:
                raise RuntimeError(f"tenant creation failed with HTTP {status}")
            tenants.append(name)
        n_cores = config.mesh_width * config.mesh_height
        rng = np.random.default_rng(config.seed + 1)
        pools = [
            [
                [float(p) for p in rng.uniform(0.5, 2.0, n_cores)]
                for _ in range(config.pool_size)
            ]
            for _ in range(config.n_distinct_configs)
        ]
        tape = _build_requests(config, tenants, pools)

        loop = asyncio.get_running_loop()
        started_s = loop.time()
        latencies: Dict[str, List[float]] = {}
        statuses: Dict[int, int] = {}

        async def fire(offset_s: float, kind: str, path: str, payload):
            delay_s = started_s + offset_s - loop.time()
            if delay_s > 0:
                await asyncio.sleep(delay_s)
            method = "GET" if payload is None else "POST"
            sent_s = time.perf_counter()
            status, _body = await _http_request(host, port, method, path, payload)
            latencies.setdefault(kind, []).append(time.perf_counter() - sent_s)
            statuses[status] = statuses.get(status, 0) + 1

        await asyncio.gather(*(fire(*entry) for entry in tape))
        duration_s = loop.time() - started_s

        _status, metrics_body = await _http_request(host, port, "GET", "/metrics", None)
        metrics = parse_openmetrics(metrics_body.decode("utf-8"))
        spans = list(server.tracer)
    finally:
        await server.close()

    all_latencies = [value for values in latencies.values() for value in values]
    overall = _quantile_summary(all_latencies)
    report: Dict[str, Any] = {
        "benchmark": "repro.serve.loadgen",
        "config": {
            "n_tenants": config.n_tenants,
            "n_distinct_configs": config.n_distinct_configs,
            "n_requests": config.n_requests,
            "arrival_rate_per_s": config.arrival_rate_per_s,
            "mesh": [config.mesh_width, config.mesh_height],
            "seed": config.seed,
            "traffic": config.traffic,
        },
        "duration_s": duration_s,
        "throughput_rps": config.n_requests / duration_s if duration_s else 0.0,
        "latency_s": {
            "p50": overall.quantile(0.5),
            "p95": overall.quantile(0.95),
            "p99": overall.quantile(0.99),
            "mean": overall.mean,
            "max": overall.max,
        },
        "latency_by_kind_s": {
            kind: {
                "n": histogram.count,
                "p50": histogram.quantile(0.5),
                "p95": histogram.quantile(0.95),
                "p99": histogram.quantile(0.99),
            }
            for kind, histogram in sorted(
                (kind, _quantile_summary(values))
                for kind, values in latencies.items()
            )
        },
        "http_statuses": {str(code): count for code, count in sorted(statuses.items())},
        "cache": {
            name: metrics[metric]
            for name, metric in (
                ("peak_memo_hits", "repro_serve_cache_peak_memo_hits"),
                ("peak_memo_misses", "repro_serve_cache_peak_memo_misses"),
                ("dynamics_hits", "repro_serve_cache_dynamics_hits"),
                ("dynamics_misses", "repro_serve_cache_dynamics_misses"),
            )
            if metric in metrics
        },
    }
    if config.trace:
        report["trace"] = {
            "spans": len(spans),
            "waterfall": config.trace_waterfall_path,
        }
    return report, spans


def run_loadgen(config: Optional[LoadgenConfig] = None) -> Dict[str, Any]:
    """Run one load-generation pass and return the report dict."""
    config = config if config is not None else LoadgenConfig()
    server = ThermalServer(
        ServeConfig(
            port=0,
            max_tenants=max(64, config.n_tenants),
            trace_spans=config.trace,
        )
    )
    report, spans = asyncio.run(_run(config, server))
    if config.trace and config.trace_waterfall_path:
        write_trace_waterfall(
            config.trace_waterfall_path,
            spans,
            title=f"loadgen: {config.n_requests} requests, "
            f"{config.n_tenants} tenants (seed {config.seed})",
        )
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; writes the benchmark report JSON."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Measure repro.serve latency/throughput (docs/serve.md).",
    )
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--rate", type=float, default=400.0, help="arrivals/s")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--traffic",
        choices=[p for p in TRAFFIC_PATTERNS if p != "trace"],
        default="poisson",
        help="arrival process for the request tape (docs/traffic.md)",
    )
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument(
        "--trace-waterfall",
        metavar="PATH",
        help="enable span tracing and export a waterfall HTML to PATH",
    )
    args = parser.parse_args(argv)
    if args.requests < 1 or args.tenants < 1:
        print("error: --requests and --tenants must be positive", file=sys.stderr)
        return EXIT_ERROR
    report = run_loadgen(
        LoadgenConfig(
            n_tenants=args.tenants,
            n_requests=args.requests,
            arrival_rate_per_s=args.rate,
            seed=args.seed,
            traffic=args.traffic,
            trace=args.trace_waterfall is not None,
            trace_waterfall_path=args.trace_waterfall,
        )
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"{args.requests} requests in {report['duration_s']:.2f}s "
        f"({report['throughput_rps']:.0f} rps), "
        f"p50={report['latency_s']['p50'] * 1000.0:.2f}ms "
        f"p99={report['latency_s']['p99'] * 1000.0:.2f}ms -> {args.out}"
    )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(run_cli(main))
