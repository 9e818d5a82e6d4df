"""The ``serve-mixed`` workload: ``python -m repro.serve`` under open-loop load.

The server runs in its own process.  This module registers the tenants,
then plays a seeded Poisson tape of mixed requests at a fixed rate over
a pool of keep-alive connections (one per CPU), and checks every
response.

The generator is open loop: a request is due at its tape offset whether
or not earlier requests have finished, and its latency is timed from
when it was due, so a stalled server is charged for the requests queued
behind the stall.  The generator records how late it itself dispatched
each request, and fails the run if the backlog (requests due but not
answered) grows through the run.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from simwork import program_env

#: request mix (kind, share): the repo's loadgen mix
MIX = (("peak", 0.6), ("tau", 0.2), ("simulate", 0.1), ("metrics", 0.1))
KINDS = tuple(kind for kind, _ in MIX)
RATE_PER_S = 30.0
N_TENANTS = 4
N_CONFIGS = 2
POOL_SIZE = 8
MESH = 4
SIMULATE_HORIZON_S = 0.02
#: fail when the mean backlog of the last quarter exceeds the first
#: quarter's by more than this many seconds' worth of arrivals
BACKLOG_GROWTH_LIMIT_S = 0.25
SETUP_REPEATS = 3
#: tenant used by injected failures: never registered, so answered 404
MISSING_TENANT = "tenant-missing"


@dataclass
class Request:
    offset_s: float
    kind: str
    method: str
    path: str
    body: bytes


@dataclass
class Outcome:
    status: int = 0
    body: bytes = b""
    #: perf_counter instants
    due: float = 0.0
    dispatched: float = 0.0
    done: float = 0.0

    @property
    def latency_s(self) -> float:
        return self.done - self.due


@dataclass
class ServeRun:
    setup_s: List[float]
    outcomes: List[Outcome]
    tape: List[Request]
    started: float
    #: requests due but unanswered, sampled as each one falls due
    backlog: List[int]
    server_rss_mb: float
    server_cpu_s: float
    metrics: Dict[str, float]
    #: /metrics scraped after warm-up, before the tape
    metrics_before: Dict[str, float]
    rate_per_s: float
    #: keep-alive connections the generator used (one per CPU)
    connections: int
    spans: List[dict] = field(default_factory=list)


def tenant_configs() -> List[Tuple[str, dict]]:
    """4 tenants round-robin over 2 chip configs (distinct DTM thresholds)."""
    return [
        (
            f"tenant-{i}",
            {
                "mesh_width": MESH,
                "mesh_height": MESH,
                "dtm_threshold_c": 70.0 + 5.0 * (i % N_CONFIGS),
            },
        )
        for i in range(N_TENANTS)
    ]


def build_tape(seed: int, seconds: float, rate_per_s: float, inject_failures: int = 0) -> List[Request]:
    """The seeded request tape; ``inject_failures`` peak requests name a
    tenant that does not exist."""
    rng = np.random.default_rng(seed)
    # a Poisson process conditioned on n arrivals in [0, seconds]: sorted
    # uniform instants, so every tape spans the same time
    n = max(1, int(round(rate_per_s * seconds)))
    offsets = np.sort(rng.uniform(0.0, seconds, n))
    pools = [
        [rng.uniform(0.5, 2.0, MESH * MESH).round(6).tolist() for _ in range(POOL_SIZE)]
        for _ in range(N_CONFIGS)
    ]
    shares = np.array([share for _, share in MIX])
    tenants = [name for name, _ in tenant_configs()]
    tape: List[Request] = []
    injected = 0
    for index in range(n):
        kind = KINDS[int(rng.choice(len(KINDS), p=shares / shares.sum()))]
        tenant_index = int(rng.integers(len(tenants)))
        tenant = tenants[tenant_index]
        power = pools[tenant_index % N_CONFIGS][int(rng.integers(POOL_SIZE))]
        if kind == "peak" and injected < inject_failures:
            tenant = MISSING_TENANT
            injected += 1
        if kind == "metrics":
            method, path, payload = "GET", "/metrics", None
        elif kind == "peak":
            method, path, payload = "POST", "/v1/peak", {"tenant": tenant, "power": power}
        elif kind == "tau":
            seq = [np.roll(power, shift).tolist() for shift in range(0, len(power), len(power) // 4)]
            method, path, payload = "POST", "/v1/tau", {"tenant": tenant, "power_seq": seq}
        else:
            method, path = "POST", "/v1/simulate"
            payload = {
                "tenant": tenant,
                "scheduler": "hotpotato",
                "max_time_s": SIMULATE_HORIZON_S,
                "workload": {"kind": "homogeneous", "seed": int(rng.integers(1 << 16))},
            }
        body = b"" if payload is None else json.dumps(payload).encode()
        tape.append(Request(float(offsets[index]), kind, method, f"{path}?rid={index}", body))
    return tape


def response_ok(kind: str, status: int, body: bytes) -> bool:
    """Whether one response is a correct answer to a request of ``kind``."""
    if status != 200:
        return False
    if kind == "metrics":
        return body.rstrip().endswith(b"# EOF")
    try:
        payload = json.loads(body)
    except ValueError:
        return False

    def finite(value) -> bool:
        return isinstance(value, (int, float)) and math.isfinite(value)

    if kind == "peak":
        return finite(payload.get("t_peak_c"))
    if kind == "tau":
        tau = payload.get("tau_s", "absent")
        return finite(payload.get("t_peak_c")) and (tau is None or (finite(tau) and tau > 0))
    return finite(payload.get("sim_time_s"))


# -- the server process --------------------------------------------------------


_SERVE_MAIN = (
    "import runpy, signal; signal.signal(signal.SIGINT, signal.default_int_handler); "
    "runpy.run_module('repro.serve', run_name='__main__', alter_sys=True)"
)


class Server:
    """One ``python -m repro.serve`` process on an ephemeral port."""

    def __init__(self, root: Path, log_path: Path, trace_path: Optional[Path] = None):
        # ``python -m repro.serve``, with SIGINT restored first: a process
        # started in the background inherits SIGINT ignored, and the
        # server shuts down cleanly (flushing its span sink) only on SIGINT
        cmd = [sys.executable, "-c", _SERVE_MAIN, "--port", "0"]
        if trace_path is not None:
            cmd += ["--trace", "--trace-capacity", "256", "--trace-path", str(trace_path)]
        # the server's stderr (including its shutdown noise) goes to a log
        # that is only shown when it fails to start
        self.log_path = log_path
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=str(root), env=program_env(root), stdout=subprocess.PIPE, stderr=log
            )
        self.port = 0

    def wait_listening(self) -> None:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            self.stop()
            log = self.log_path.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"repro.serve did not start: {line!r}\n{log}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def call(self, method: str, path: str, payload=None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            body = None if payload is None else json.dumps(payload)
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def register_tenants(self) -> None:
        for name, config in tenant_configs():
            status, body = self.call("POST", "/v1/tenants", {"name": name, "config": config})
            if status != 200:
                raise RuntimeError(f"tenant {name} not created: HTTP {status} {body!r}")

    def _proc_file(self, name: str) -> str:
        return Path(f"/proc/{self.proc.pid}/{name}").read_text()

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """Interrupt the server and wait until it has exited."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def start_server(root: Path, scratch: Path, trace_path: Optional[Path] = None) -> Tuple[Server, float]:
    """Spawn a server and register the tenants; returns it with its set-up time."""
    start = time.perf_counter()
    server = Server(root, scratch / f"server-{os.getpid()}.log", trace_path)
    try:
        server.wait_listening()
        server.register_tenants()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


def warm_up(server: Server, tape: List[Request]) -> None:
    """Answer one request of each kind per tenant before timing: first-use
    cache fills are set-up, not steady-state latency."""
    seen = set()
    for request in tape:
        tenant = json.loads(request.body).get("tenant") if request.body else None
        key = (request.kind, tenant)
        if key in seen or tenant == MISSING_TENANT:
            continue
        seen.add(key)
        server.call(request.method, request.path.split("?")[0], json.loads(request.body) if request.body else None)


# -- the open-loop generator ---------------------------------------------------


async def _exchange(reader, writer, request: Request) -> Tuple[int, bytes]:
    head = (
        f"{request.method} {request.path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {len(request.body)}\r\nConnection: keep-alive\r\n\r\n"
    ).encode("latin-1")
    writer.write(head + request.body)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, (await reader.readexactly(length) if length else b"")


async def play(port: int, tape: List[Request], connections: int):
    """Play ``tape`` open loop; returns (outcomes, start instant, backlog samples)."""
    queue: asyncio.Queue = asyncio.Queue()
    outcomes = [Outcome() for _ in tape]
    backlog: List[int] = []
    completed = [0]
    started = time.perf_counter() + 0.05

    async def dispatch() -> None:
        for index, request in enumerate(tape):
            due = started + request.offset_s
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome = outcomes[index]
            outcome.due = due
            outcome.dispatched = time.perf_counter()
            backlog.append(index + 1 - completed[0])
            queue.put_nowait(index)
        for _ in range(connections):
            queue.put_nowait(None)

    async def connection() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while True:
                index = await queue.get()
                if index is None:
                    return
                outcome = outcomes[index]
                try:
                    outcome.status, outcome.body = await _exchange(reader, writer, tape[index])
                except (ConnectionError, asyncio.IncompleteReadError, ValueError, IndexError):
                    outcome.status = 0
                    writer.close()
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                outcome.done = time.perf_counter()
                completed[0] += 1
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    await asyncio.gather(dispatch(), *(connection() for _ in range(connections)))
    return outcomes, started, backlog


def scrape(server: Server) -> Dict[str, float]:
    """The server's /metrics counters, strictly parsed."""
    from repro.obs.export import parse_openmetrics

    status, body = server.call("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered HTTP {status}")
    return parse_openmetrics(body.decode())


def read_spans(path: Path) -> List[dict]:
    """Finished spans from the server's JSONL sink (a torn tail is skipped)."""
    spans = []
    for line in path.read_text().splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record.get("kind") == "span":
            spans.append(record)
    return spans


def run(root: Path, seed: int, seconds: float, trace: bool, inject_failures: int, scratch: Path) -> ServeRun:
    """Set up ``SETUP_REPEATS`` servers (keeping the last) and play the tape."""
    rate = RATE_PER_S
    connections = max(1, os.cpu_count() or 1)
    tape = build_tape(seed, seconds, rate, inject_failures)
    setups: List[float] = []
    server: Optional[Server] = None
    trace_path = scratch / f"spans-{os.getpid()}.jsonl" if trace else None
    spans: List[dict] = []
    try:
        for attempt in range(SETUP_REPEATS):
            last = attempt == SETUP_REPEATS - 1
            server, setup_s = start_server(root, scratch, trace_path if last else None)
            setups.append(setup_s)
            if not last:
                server.stop()
                server = None
        assert server is not None
        warm_up(server, tape)
        metrics_before = scrape(server)
        cpu_before = server.cpu_s()
        outcomes, started, backlog = asyncio.run(play(server.port, tape, connections))
        cpu_s = server.cpu_s() - cpu_before
        metrics = scrape(server)
        rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        if trace_path is not None and trace_path.exists():
            spans = read_spans(trace_path)
            trace_path.unlink()
        (scratch / f"server-{os.getpid()}.log").unlink(missing_ok=True)
    return ServeRun(setups, outcomes, tape, started, backlog, rss_mb, cpu_s, metrics, metrics_before, rate, connections, spans)


def backlog_growth(run: ServeRun) -> float:
    """Mean backlog of the last quarter of the tape minus the first quarter's."""
    quarter = max(1, len(run.backlog) // 4)
    return statistics.fmean(run.backlog[-quarter:]) - statistics.fmean(run.backlog[:quarter])


def backlog_limit(run: ServeRun) -> float:
    """The largest backlog growth that still counts as keeping up."""
    return BACKLOG_GROWTH_LIMIT_S * run.rate_per_s
