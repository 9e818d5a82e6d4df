"""Service-layer benchmark: the numbers behind ``BENCH_serve.json``.

Runs :func:`repro.serve.loadgen.run_loadgen` — an in-process
:class:`~repro.serve.http.ThermalServer` on an ephemeral port, a tenant
fleet spanning two distinct chip configurations, and a seeded Poisson
mix of peak/tau/simulate/metrics requests over real TCP — and writes
the latency/throughput/cache report to ``BENCH_serve.json`` at the
repository root.

Assertions are deliberately loose on wall-clock (shared CI boxes are
noisy) and strict on semantics: every request must succeed, and the
cross-tenant caches must actually get hit — the shared Algorithm-1 memo
is the serve fast path, and a hit count of zero would mean the
fingerprint plumbing regressed even if latency still looks fine.
"""

import json
from pathlib import Path

from repro.serve.loadgen import LoadgenConfig, run_loadgen

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_serve.json"

CONFIG = LoadgenConfig(
    n_tenants=4,
    n_distinct_configs=2,
    n_requests=200,
    arrival_rate_per_s=400.0,
    seed=0,
)


def test_loadgen_writes_artifact():
    report = run_loadgen(CONFIG)

    # every request answered, none dropped
    assert sum(report["http_statuses"].values()) == CONFIG.n_requests
    assert set(report["http_statuses"]) == {"200"}

    # latency quantiles (log-bucketed Histogram estimates) are sane and
    # ordered, and the estimator never exceeds the streaming max
    latency = report["latency_s"]
    assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
    assert latency["p99"] <= latency["max"]
    assert report["throughput_rps"] > 0
    for kind_stats in report["latency_by_kind_s"].values():
        assert 0 < kind_stats["p50"] <= kind_stats["p99"]

    # the cross-tenant fast path fired: shared memo hits and shared
    # dynamics (4 tenants, 2 distinct configurations -> 2 misses)
    cache = report["cache"]
    assert cache["peak_memo_hits"] > 0
    assert cache["dynamics_misses"] == CONFIG.n_distinct_configs
    assert cache["dynamics_hits"] >= CONFIG.n_tenants - CONFIG.n_distinct_configs

    ARTIFACT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    assert json.loads(ARTIFACT.read_text())["benchmark"] == "repro.serve.loadgen"
