"""``python -m repro.serve`` — run the thermal-scheduling service.

Binds the asyncio server and serves until interrupted.  Follows the
shared CLI contract of :mod:`repro._cli` (exit 0 on a clean shutdown,
2 on usage errors).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional, Sequence

from .._cli import EXIT_OK, run_cli
from .http import ThermalServer
from .service import ServeConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Thermal-scheduling-as-a-service (see docs/serve.md).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8787, help="TCP port (0 = ephemeral)"
    )
    parser.add_argument(
        "--max-tenants", type=int, default=64, help="tenant capacity"
    )
    parser.add_argument(
        "--simulate-max-time",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="hard ceiling on one /v1/simulate horizon [simulated s]",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable request-span tracing (GET /debug/traces)",
    )
    parser.add_argument(
        "--trace-capacity",
        type=int,
        default=4096,
        help="span ring-buffer capacity (with --trace)",
    )
    parser.add_argument(
        "--trace-path",
        metavar="JSONL",
        help="stream finished spans to this JSONL file (with --trace)",
    )
    parser.add_argument(
        "--slo-latency",
        type=float,
        metavar="SECONDS",
        help="default per-tenant latency SLO target (unset = no SLO)",
    )
    parser.add_argument(
        "--slo-budget",
        type=float,
        default=0.01,
        metavar="FRACTION",
        help="allowed fraction of requests over the SLO target",
    )
    return parser


async def _serve(server: ThermalServer) -> None:
    await server.start()
    host = server.config.host
    print(f"repro.serve listening on http://{host}:{server.port}")
    await server.serve_forever()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns an ``EXIT_*`` code."""
    args = _build_parser().parse_args(argv)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_tenants=args.max_tenants,
        simulate_max_time_s=args.simulate_max_time,
        trace_spans=args.trace,
        trace_capacity=args.trace_capacity,
        trace_path=args.trace_path,
        slo_latency_s=args.slo_latency,
        slo_error_budget=args.slo_budget,
    )
    # Constructed before the loop starts: ``__init__`` may open a trace
    # sink (``--trace-path``), which must not block the running loop.
    server = ThermalServer(config)
    try:
        asyncio.run(_serve(server))
    except KeyboardInterrupt:
        pass
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(run_cli(main))
