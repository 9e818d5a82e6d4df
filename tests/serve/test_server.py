"""Live-server round-trips, burst equivalence, framing, HTTP degradation.

Every test boots a real :class:`~repro.serve.http.ThermalServer` on an
ephemeral port inside ``asyncio.run`` and talks to it over TCP — the
same path ``python -m repro.serve`` serves.
"""

import asyncio
import json

import pytest

from repro.obs.export import parse_openmetrics
from repro.serve import ServeConfig, ThermalServer
from repro.serve.loadgen import _http_request

SMALL = {"mesh_width": 2, "mesh_height": 2}


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


def _request_bytes(host, path, payload, content_type="application/json"):
    """A complete ``POST`` request; ``payload`` is a dict or raw bytes."""
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    return head.encode() + body


async def _raw(host, port, raw):
    """Send raw request bytes; return (response head, body) read to EOF."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(raw)
    await writer.drain()
    response = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = response.partition(b"\r\n\r\n")
    return head.decode("latin-1"), body


async def _create_tenant(host, port, name, overrides=None):
    status, body = await _post(
        host, port, "/v1/tenants", {"name": name, "config": overrides or SMALL}
    )
    assert status == 200, body
    return body


class TestEndpointRoundTrips:
    def test_discovery_and_tenant_lifecycle(self):
        async def handler(server, host, port):
            status, body = await _http_request(host, port, "GET", "/", None)
            doc = json.loads(body)
            assert status == 200
            assert "POST /v1/peak" in doc["endpoints"]

            info = await _create_tenant(host, port, "t0")
            assert info["n_cores"] == 4

            status, body = await _http_request(
                host, port, "GET", "/v1/tenants", None
            )
            tenants = json.loads(body)["tenants"]
            assert [t["tenant"] for t in tenants] == ["t0"]

            status, _ = await _http_request(
                host, port, "DELETE", "/v1/tenants/t0", None
            )
            assert status == 200
            status, body = await _http_request(
                host, port, "GET", "/v1/tenants", None
            )
            assert json.loads(body)["tenants"] == []

        run_server(handler)

    def test_peak_tau_simulate_roundtrip(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            status, peak = await _post(
                host, port, "/v1/peak", {"tenant": "t0", "power": [1.0] * 4}
            )
            assert status == 200
            assert peak["t_peak_c"] > 45.0  # above ambient
            assert isinstance(peak["sustainable"], bool)

            status, tau = await _post(
                host,
                port,
                "/v1/tau",
                {"tenant": "t0", "power_seq": [[2.0] * 4, [0.1] * 4]},
            )
            assert status == 200
            assert len(tau["ladder"]) == 7  # rotation-off + 6-rung ladder

            status, sim = await _post(
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
            assert sim["tenant"] == "t0"
            assert sim["scheduler"] == "hotpotato"

        run_server(handler)

    def test_peak_jsonl_streaming(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            lines = [json.dumps({"tenant": "t0"})] + [
                json.dumps({"power": [0.5 * (k + 1)] * 4}) for k in range(3)
            ]
            body = ("\n".join(lines) + "\n").encode()
            head, payload = await _raw(
                host,
                port,
                _request_bytes(host, "/v1/peak", body, "application/jsonl"),
            )
            assert head.startswith("HTTP/1.1 200")
            results = [json.loads(line) for line in payload.splitlines() if line]
            assert len(results) == 3
            # more power, hotter peak
            peaks = [r["t_peak_c"] for r in results]
            assert peaks == sorted(peaks)

        run_server(handler)

    def test_error_statuses(self):
        async def handler(server, host, port):
            # unknown route
            status, _ = await _http_request(host, port, "GET", "/nope", None)
            assert status == 404
            # wrong method
            status, _ = await _http_request(host, port, "POST", "/metrics", {})
            assert status == 405
            # unknown tenant
            status, _ = await _post(
                host, port, "/v1/peak", {"tenant": "ghost", "power": [1.0] * 4}
            )
            assert status == 404
            # malformed payload
            await _create_tenant(host, port, "t0")
            status, _ = await _post(
                host, port, "/v1/peak", {"tenant": "t0", "power": [1.0] * 3}
            )
            assert status == 400
            # server still healthy afterwards
            status, _ = await _post(
                host, port, "/v1/peak", {"tenant": "t0", "power": [1.0] * 4}
            )
            assert status == 200

        run_server(handler)

    def test_metrics_exposition_parses(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            await _post(host, port, "/v1/peak", {"tenant": "t0", "power": [1.0] * 4})
            status, body = await _http_request(host, port, "GET", "/metrics", None)
            assert status == 200
            metrics = parse_openmetrics(body.decode())
            assert metrics["repro_serve_tenants"] == 1.0
            assert metrics["repro_serve_http_requests"] >= 3.0
            assert "repro_serve_cache_peak_memo_hits" in metrics

        run_server(handler)


class TestCrossTenantCache:
    def test_shared_config_hits_and_determinism(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "a")
            await _create_tenant(host, port, "b")
            power = [1.3] * 4
            _, first = await _post(
                host, port, "/v1/peak", {"tenant": "a", "power": power}
            )
            _, second = await _post(
                host, port, "/v1/peak", {"tenant": "b", "power": power}
            )
            # same configuration, same candidate: bit-identical answer...
            assert first["t_peak_c"] == second["t_peak_c"]
            # ...served from the shared memo (tenant b hit tenant a's entry)
            stats = server.cache.stats()
            assert stats["peak_memo.hits"] >= 1
            assert stats["calculators.hits"] >= 1

        run_server(handler)

    def test_distinct_threshold_no_cross_hit(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "cool", SMALL)
            await _create_tenant(
                host, port, "warm", dict(SMALL, dtm_threshold_c=80.0)
            )
            power = [1.3] * 4
            _, cool = await _post(
                host, port, "/v1/peak", {"tenant": "cool", "power": power}
            )
            _, warm = await _post(
                host, port, "/v1/peak", {"tenant": "warm", "power": power}
            )
            # distinct calibrations: distinct dynamics entries, no sharing
            assert server.cache.stats()["dynamics.misses"] == 2
            # different T_DTM -> different sustainability verdicts are
            # possible; the headroom reflects each tenant's own threshold
            assert warm["headroom_c"] == pytest.approx(
                cool["headroom_c"] + 10.0 - (warm["t_peak_c"] - cool["t_peak_c"])
            )

        run_server(handler)


class TestConcurrentPeak:
    """A concurrent burst answers exactly what the same requests answer
    one at a time: each request is its own ``peak_batch`` call."""

    CANDIDATES = [
        {"power": [0.5] * 4},
        {"power_seq": [[2.0] * 4, [0.1] * 4], "tau_s": 0.001},
        {"power_seq": [[1.5] * 4, [0.2] * 4], "tau_s": 0.0005},
    ]

    def _tape(self, host):
        """Raw JSON peak, JSONL peak and tau requests for tenant t0."""
        jsonl = "\n".join(
            [json.dumps({"tenant": "t0"})]
            + [json.dumps(c) for c in self.CANDIDATES]
        ).encode() + b"\n"
        return [
            _request_bytes(host, "/v1/peak", {"tenant": "t0", "power": [1.0] * 4}),
            _request_bytes(
                host, "/v1/peak", {"tenant": "t0", "candidates": self.CANDIDATES}
            ),
            _request_bytes(host, "/v1/peak", jsonl, "application/jsonl"),
            _request_bytes(
                host,
                "/v1/tau",
                {"tenant": "t0", "power_seq": [[2.0] * 4, [0.1] * 4]},
            ),
            _request_bytes(
                host,
                "/v1/tau",
                {"tenant": "t0", "power_seq": [[1.0] * 4, [0.3] * 4]},
            ),
        ]

    def test_burst_equals_sequential_bitwise(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            tape = self._tape(host)
            sequential = [await _raw(host, port, raw) for raw in tape]
            burst = await asyncio.gather(*(_raw(host, port, raw) for raw in tape))
            return sequential, burst

        sequential, burst = run_server(handler)
        assert all(head.startswith("HTTP/1.1 200") for head, _ in sequential)
        # bodies (floats included) are byte-identical
        assert [body for _, body in burst] == [body for _, body in sequential]

    def test_peak_batch_error_is_500_for_that_request_only(self, monkeypatch):
        async def handler(server, host, port):
            await _create_tenant(host, port, "flaky")
            await _create_tenant(host, port, "ok", dict(SMALL, dtm_threshold_c=80.0))
            calculator = server.service.tenant("flaky").calculator
            real = calculator.peak_batch
            calls = []

            def fails_first(seqs, taus):
                calls.append(len(seqs))
                if len(calls) == 1:
                    raise RuntimeError("boom")
                return real(seqs, taus)

            monkeypatch.setattr(calculator, "peak_batch", fails_first)
            (s_flaky, body_flaky), (s_ok, _) = await asyncio.gather(
                _post(host, port, "/v1/peak", {"tenant": "flaky", "power": [1.0] * 4}),
                _post(host, port, "/v1/peak", {"tenant": "ok", "power": [1.0] * 4}),
            )
            assert (s_flaky, s_ok) == (500, 200)
            assert "boom" in body_flaky["error"]
            status, body = await _post(
                host, port, "/v1/peak", {"tenant": "flaky", "power": [1.0] * 4}
            )
            assert status == 200
            assert body["t_peak_c"] > 45.0

        run_server(handler)


class TestConcurrentSimulate:
    """Concurrent /v1/simulate bursts equal sequential runs, per request."""

    PAYLOADS = [
        {
            "tenant": "t0",
            "max_time_s": 0.02,
            "scheduler": "hotpotato",
            "workload": {"kind": "homogeneous", "seed": 1},
        },
        {
            "tenant": "t0",
            "max_time_s": 0.02,
            "scheduler": "pcmig",
            "workload": {"kind": "homogeneous", "seed": 1},
        },
        {
            "tenant": "t0",
            "max_time_s": 0.03,  # distinct horizon within one burst
            "scheduler": "hotpotato",
            "workload": {"kind": "mixed", "seed": 3, "n_tasks": 3},
        },
    ]

    def test_burst_equals_sequential_bitwise(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            sequential = []
            for payload in self.PAYLOADS:
                status, body = await _post(
                    host, port, "/v1/simulate", payload
                )
                assert status == 200
                sequential.append(body)

            burst = await asyncio.gather(
                *(
                    _post(host, port, "/v1/simulate", p)
                    for p in self.PAYLOADS
                )
            )
            assert all(status == 200 for status, _ in burst)
            # the concurrent bodies (floats included) are exactly the
            # sequential ones
            assert [body for _, body in burst] == sequential

        run_server(handler)

    def test_burst_isolates_per_request_failures(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            good = self.PAYLOADS[0]
            bad = dict(good, scheduler="does-not-exist")
            (s_good, body_good), (s_bad, body_bad) = await asyncio.gather(
                _post(host, port, "/v1/simulate", good),
                _post(host, port, "/v1/simulate", bad),
            )
            assert s_good == 200
            assert body_good["scheduler"] == "hotpotato"
            assert s_bad == 400
            assert "unknown scheduler" in body_bad["error"]
            # a validation error is the caller's fault, not a simulate
            # failure: the tenant's degradation ladder must not move
            assert server.service.tenant("t0").mode == "normal"

        run_server(handler)


class TestDegradationOverHttp:
    def test_simulate_failure_maps_to_503_retry_after(self, monkeypatch):
        serve_config = ServeConfig(port=0, retry_after_s=30.0)

        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")

            def explode(tenant, payload):
                raise RuntimeError("injected fault")

            monkeypatch.setattr(server.service, "simulate", explode)
            sim = {"tenant": "t0", "workload": {"kind": "homogeneous"}}
            status, body = await _post(host, port, "/v1/simulate", sim)
            assert status == 500
            assert body["mode"] == "degraded"

            # degraded: simulate refused with Retry-After, peak still works
            reader, writer = await asyncio.open_connection(host, port)
            raw = json.dumps(sim).encode()
            writer.write(
                (
                    f"POST /v1/simulate HTTP/1.1\r\nHost: {host}\r\n"
                    f"Content-Length: {len(raw)}\r\nConnection: close\r\n\r\n"
                ).encode()
                + raw
            )
            await writer.drain()
            response = await reader.read()
            writer.close()
            await writer.wait_closed()
            head = response.split(b"\r\n\r\n")[0].decode()
            assert "503" in head.splitlines()[0]
            assert any(
                line.lower().startswith("retry-after:")
                for line in head.splitlines()
            )
            status, _ = await _post(
                host, port, "/v1/peak", {"tenant": "t0", "power": [1.0] * 4}
            )
            assert status == 200

        run_server(handler, serve_config)

    def test_safe_park_blocks_everything_until_recovery(self, monkeypatch):
        serve_config = ServeConfig(
            port=0, retry_after_s=0.0, park_after_failures=2
        )

        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            calls = {"n": 0}
            real = server.service.simulate

            def flaky(tenant, payload):
                calls["n"] += 1
                if calls["n"] <= 2:
                    raise RuntimeError("transient")
                return real(tenant, payload)

            monkeypatch.setattr(server.service, "simulate", flaky)
            sim = {
                "tenant": "t0",
                "max_time_s": 0.002,
                "workload": {"kind": "homogeneous"},
            }
            # two failures -> safe-park (cooldown 0 keeps the test instant:
            # the mode label sticks until a success, but requests re-admit)
            for _ in range(2):
                status, _ = await _post(host, port, "/v1/simulate", sim)
                assert status == 500
            assert server.service.tenant("t0").mode == "safe-park"
            # third attempt succeeds and resets the ladder
            status, body = await _post(host, port, "/v1/simulate", sim)
            assert status == 200
            assert server.service.tenant("t0").mode == "normal"
            gauges = server.service.gauges()
            assert gauges["serve.degradation.to_safe_park"] == 1.0
            assert gauges["serve.simulate.failures"] == 2.0

        run_server(handler, serve_config)

    def test_oversized_body_rejected(self):
        serve_config = ServeConfig(port=0, max_body_bytes=64)

        async def handler(server, host, port):
            status, _ = await _post(
                host, port, "/v1/peak", {"tenant": "t0", "power": [1.0] * 64}
            )
            assert status == 413

        run_server(handler, serve_config)


class TestRequestFraming:
    """Malformed framing gets a definite answer; bodies are never sniffed."""

    @staticmethod
    def _send(head_lines, body=b""):
        async def handler(server, host, port):
            head = "\r\n".join(head_lines) + "\r\n\r\n"
            return await _raw(host, port, head.encode() + body)

        return run_server(handler)

    @pytest.mark.parametrize("length", ["abc", "-3"])
    def test_invalid_content_length_is_400_and_closes(self, length):
        head, body = self._send(
            ["POST /v1/peak HTTP/1.1", "Host: x", f"Content-Length: {length}"],
            b"{}",
        )
        lines = head.splitlines()
        assert lines[0] == "HTTP/1.1 400 Bad Request"
        assert "Connection: close" in lines
        assert "Content-Length" in json.loads(body)["error"]

    def test_body_resembling_old_oversize_marker_is_served(self):
        body = b"\x00oversized!!"
        assert len(body) == 12
        head, payload = self._send(
            ["GET / HTTP/1.1", "Host: x", f"Content-Length: {len(body)}",
             "Connection: close"],
            body,
        )
        assert head.startswith("HTTP/1.1 200")
        assert json.loads(payload)["service"] == "repro.serve"
