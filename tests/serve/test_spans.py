"""End-to-end tracing through the serve stack: propagation, SLO, debug.

The tentpole guarantees under test (``docs/observability.md``):

- tracing is **off by default** and responses are byte-identical with it
  on or off (metamorphic);
- N concurrent ``/v1/peak`` requests yield N request root spans, each
  with one ``batch.peak_batch`` child, and no orphans;
- ``/debug/traces`` serves the span buffer as JSON and waterfall HTML;
- ``/metrics`` exposes per-endpoint/per-tenant latency quantiles and
  buckets;
- a traced loadgen run exports a waterfall HTML.
"""

import asyncio
import json

import pytest

from repro.obs.detect import SpanOrphanDetector
from repro.obs.export import parse_openmetrics
from repro.serve import ServeConfig, ThermalServer
from repro.serve.loadgen import LoadgenConfig, _http_request, run_loadgen

SMALL = {"mesh_width": 2, "mesh_height": 2}

TRACED = ServeConfig(port=0, trace_spans=True)


def run_server(handler, serve_config=None):
    """Boot a server, run ``handler(server, host, port)``, tear down."""

    async def main():
        server = ThermalServer(serve_config or ServeConfig(port=0))
        await server.start()
        try:
            return await handler(server, server.config.host, server.port)
        finally:
            await server.close()

    return asyncio.run(main())


async def _post(host, port, path, payload):
    status, body = await _http_request(host, port, "POST", path, payload)
    return status, json.loads(body) if body else {}


async def _create_tenant(host, port, name, overrides=None, slo=None):
    payload = {"name": name, "config": overrides or SMALL}
    if slo is not None:
        payload["slo"] = slo
    status, body = await _post(host, port, "/v1/tenants", payload)
    assert status == 200, body
    return body


class TestDisabledByDefault:
    def test_default_config_records_nothing(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            status, _ = await _post(
                host, port, "/v1/peak", {"tenant": "t0", "power": [1.0] * 4}
            )
            assert status == 200
            assert not server.tracer.enabled
            assert len(server.tracer) == 0
            assert server.tracer.finished == 0

        run_server(handler)

    def test_responses_byte_identical_with_tracing_on(self):
        """Metamorphic: tracing must not perturb a single response byte."""

        requests = [
            ("POST", "/v1/peak", {"tenant": "t0", "power": [1.0] * 4}),
            (
                "POST",
                "/v1/peak",
                {
                    "tenant": "t0",
                    "candidates": [
                        {"power": [0.5] * 4},
                        {"power_seq": [[2.0] * 4, [0.1] * 4], "tau_s": 0.001},
                    ],
                },
            ),
            (
                "POST",
                "/v1/tau",
                {"tenant": "t0", "power_seq": [[2.0] * 4, [0.1] * 4]},
            ),
            (
                "POST",
                "/v1/simulate",
                {
                    "tenant": "t0",
                    "max_time_s": 0.005,
                    "workload": {"kind": "homogeneous", "seed": 1},
                },
            ),
            ("GET", "/v1/tenants", None),
        ]

        def collect(serve_config):
            async def handler(server, host, port):
                await _create_tenant(host, port, "t0")
                bodies = []
                for method, path, payload in requests:
                    status, body = await _http_request(
                        host, port, method, path, payload
                    )
                    assert status == 200
                    bodies.append(body)
                return bodies

            return run_server(handler, serve_config)

        untraced = collect(ServeConfig(port=0))
        traced = collect(ServeConfig(port=0, trace_spans=True))
        assert untraced == traced


class TestConcurrentPropagation:
    N = 5

    def test_n_requests_n_roots_each_with_one_peak_batch(self):
        """End to end over TCP: N concurrent requests give N ``http.peak``
        roots, each the parent of exactly one ``batch.peak_batch`` span,
        and the span set has no orphans."""

        async def handler(server, host, port):
            for index in range(self.N):
                await _create_tenant(host, port, f"t{index}")
            results = await asyncio.gather(
                *(
                    _post(
                        host,
                        port,
                        "/v1/peak",
                        {"tenant": f"t{index}", "power": [1.0] * 4},
                    )
                    for index in range(self.N)
                )
            )
            assert all(status == 200 for status, _ in results)
            return list(server.tracer)

        spans = run_server(handler, TRACED)
        requests = [s for s in spans if s.name == "http.peak"]
        evaluations = [s for s in spans if s.name == "batch.peak_batch"]
        assert len(requests) == self.N
        assert all(s.parent_id is None for s in requests)
        assert sorted(s.parent_id for s in evaluations) == sorted(
            s.span_id for s in requests
        )
        assert all(s.attrs["candidates"] == 1 for s in evaluations)
        assert SpanOrphanDetector().check(spans) == []

    def test_simulate_attaches_engine_phase_spans(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            status, _ = await _post(
                host,
                port,
                "/v1/simulate",
                {
                    "tenant": "t0",
                    "max_time_s": 0.005,
                    "workload": {"kind": "homogeneous", "seed": 1},
                },
            )
            assert status == 200
            return list(server.tracer)

        spans = run_server(handler, TRACED)
        request = next(s for s in spans if s.name == "http.simulate")
        phases = [s for s in spans if s.name.startswith("phase.")]
        assert phases, "engine phases should surface as spans"
        assert all(s.parent_id == request.span_id for s in phases)
        assert "phase.thermal.step" in {s.name for s in phases}

    def test_cache_eigendecomposition_span_once(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "a")
            await _create_tenant(host, port, "b")  # same config: cache hit
            return list(server.tracer)

        spans = run_server(handler, TRACED)
        eigen = [s for s in spans if s.name == "cache.eigendecomposition"]
        assert len(eigen) == 1
        tenants = [s for s in spans if s.name == "http.tenants"]
        assert eigen[0].parent_id is not None
        assert eigen[0].trace_id in {s.trace_id for s in tenants}


class TestDebugTracesEndpoint:
    def test_json_view(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            await _post(
                host, port, "/v1/peak", {"tenant": "t0", "power": [1.0] * 4}
            )
            status, body = await _http_request(
                host, port, "GET", "/debug/traces?limit=500", None
            )
            assert status == 200
            payload = json.loads(body)
            assert payload["enabled"] is True
            names = {span["name"] for span in payload["spans"]}
            assert "http.peak" in names and "batch.peak_batch" in names

        run_server(handler, TRACED)

    def test_html_view_and_limit(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            status, body = await _http_request(
                host, port, "GET", "/debug/traces?format=html", None
            )
            assert status == 200
            assert body.startswith(b"<!DOCTYPE html>")

            status, body = await _http_request(
                host, port, "GET", "/debug/traces?limit=1", None
            )
            assert len(json.loads(body)["spans"]) == 1

            status, _ = await _http_request(
                host, port, "GET", "/debug/traces?limit=zero", None
            )
            assert status == 400
            status, _ = await _http_request(
                host, port, "GET", "/debug/traces?format=yaml", None
            )
            assert status == 400

        run_server(handler, TRACED)

    def test_disabled_tracer_serves_empty(self):
        async def handler(server, host, port):
            status, body = await _http_request(
                host, port, "GET", "/debug/traces", None
            )
            assert status == 200
            payload = json.loads(body)
            assert payload == {
                "enabled": False,
                "buffered": 0,
                "dropped": 0,
                "spans": [],
            }

        run_server(handler)


class TestLatencyMetrics:
    def test_per_endpoint_and_tenant_quantiles_exposed(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            for _ in range(3):
                await _post(
                    host,
                    port,
                    "/v1/peak",
                    {"tenant": "t0", "power": [1.0] * 4},
                )
            status, body = await _http_request(
                host, port, "GET", "/metrics", None
            )
            assert status == 200
            return parse_openmetrics(body.decode())

        metrics = run_server(handler)
        p50 = metrics["repro_serve_http_latency_peak_p50"]
        p99 = metrics["repro_serve_http_latency_peak_p99"]
        assert 0.0 < p50 <= p99
        assert metrics["repro_serve_tenant_t0_latency_count"] == 3.0
        assert "repro_serve_tenant_t0_latency_p99" in metrics
        # cumulative buckets end at the total count
        assert (
            metrics["repro_serve_http_latency_peak_bucket_le_inf"] == 3.0
        )

    def test_slo_gauges_and_violation_fire_once(self):
        """Known-answer: an impossible 1ns SLO with a 50% budget over two
        requests exhausts on the second — exactly one violation."""

        async def handler(server, host, port):
            await _create_tenant(
                host,
                port,
                "t0",
                slo={"latency_s": 1e-9, "error_budget": 0.5},
            )
            for _ in range(4):
                await _post(
                    host,
                    port,
                    "/v1/peak",
                    {"tenant": "t0", "power": [1.0] * 4},
                )
            status, body = await _http_request(
                host, port, "GET", "/metrics", None
            )
            tenant = server.service.tenant("t0")
            return parse_openmetrics(body.decode()), tenant.slo

        metrics, slo = run_server(handler)
        assert len(slo.violations) == 1
        assert slo.violations[0].detector == "slo-latency-violation"
        assert metrics["repro_serve_tenant_t0_slo_violations"] == 1.0
        assert metrics["repro_serve_tenant_t0_slo_budget_used"] >= 1.0

    def test_tenant_info_reports_slo(self):
        async def handler(server, host, port):
            info = await _create_tenant(
                host, port, "t0", slo={"latency_s": 0.25}
            )
            assert info["slo"]["latency_target_s"] == 0.25
            assert info["slo"]["error_budget"] == 0.01  # server default
            assert info["slo"]["violations"] == 0

            status, body = await _post(
                host,
                port,
                "/v1/tenants",
                {"name": "bad", "slo": {"latency_s": -1.0}},
            )
            assert status == 400
            status, body = await _post(
                host,
                port,
                "/v1/tenants",
                {"name": "bad", "slo": {"nonsense": 1.0}},
            )
            assert status == 400

        run_server(handler)


class TestTracedLoadgen:
    def test_loadgen_writes_waterfall_and_quantiles(self, tmp_path):
        waterfall = tmp_path / "waterfall.html"
        report = run_loadgen(
            LoadgenConfig(
                n_tenants=2,
                n_distinct_configs=1,
                n_requests=12,
                arrival_rate_per_s=500.0,
                mesh_width=2,
                mesh_height=2,
                seed=7,
                trace=True,
                trace_waterfall_path=str(waterfall),
            )
        )
        assert report["http_statuses"] == {"200": 12}
        latency = report["latency_s"]
        assert 0.0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        assert latency["p99"] <= latency["max"]
        assert report["trace"]["spans"] > 0
        assert waterfall.read_text().startswith("<!DOCTYPE html>")
