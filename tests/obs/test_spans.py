"""Span tracer: identity, nesting, ring buffer, JSONL round-trip, SLO."""

import asyncio
import json

import pytest

from repro.obs.slo import SloTarget, SloTracker
from repro.obs.spans import (
    SpanRecord,
    SpanTracer,
    read_spans_jsonl,
    span_to_json_line,
    spans_from_jsonl,
    spans_to_jsonl,
)


class TestDisabledTracer:
    def test_disabled_by_default(self):
        tracer = SpanTracer()
        assert not tracer.enabled
        with tracer.span("anything") as span:
            span.annotate(key=1.0)
        assert len(tracer) == 0
        assert tracer.finished == 0

    def test_disabled_span_has_no_identity(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            assert tracer.current_trace_id() is None

    def test_record_phases_noop_when_disabled(self):
        tracer = SpanTracer()
        tracer.record_phases({"phase": {"count": 1.0, "total_s": 0.5}})
        assert len(tracer) == 0


class TestIdentityAndNesting:
    def test_root_spans_get_fresh_traces(self):
        tracer = SpanTracer(enabled=True)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        spans = list(tracer)
        assert [s.parent_id for s in spans] == [None, None]
        assert spans[0].trace_id != spans[1].trace_id

    def test_nested_span_is_child_in_same_trace(self):
        tracer = SpanTracer(enabled=True)
        with tracer.span("parent") as parent:
            with tracer.span("child"):
                pass
        child, parent_record = list(tracer)
        assert child.name == "child"
        assert child.trace_id == parent_record.trace_id
        assert child.parent_id == parent_record.span_id
        assert parent.span_id == parent_record.span_id

    def test_root_flag_breaks_out_of_ambient_trace(self):
        tracer = SpanTracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("detached", root=True):
                pass
        detached, outer = list(tracer)
        assert detached.parent_id is None
        assert detached.trace_id != outer.trace_id

    def test_ids_are_deterministic_counters(self):
        tracer = SpanTracer(enabled=True)
        for _ in range(3):
            with tracer.span("s"):
                pass
        assert [s.span_id for s in tracer] == [1, 2, 3]
        assert [s.trace_id for s in tracer] == [1, 2, 3]

    def test_duration_and_ordering(self):
        tracer = SpanTracer(enabled=True)
        with tracer.span("timed"):
            pass
        (span,) = list(tracer)
        assert span.duration_s >= 0.0
        assert span.end_s == pytest.approx(span.start_s + span.duration_s)

    def test_exception_marks_status_and_propagates(self):
        tracer = SpanTracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        (span,) = list(tracer)
        assert span.status == "error:ValueError"

    def test_annotations(self):
        tracer = SpanTracer(enabled=True)
        with tracer.span("s", kind="test") as span:
            span.annotate(count=3)
        (record,) = list(tracer)
        assert record.attrs == {"kind": "test", "count": 3}


class TestAsyncioPropagation:
    def test_concurrent_tasks_have_isolated_contexts(self):
        tracer = SpanTracer(enabled=True)

        async def request(name):
            with tracer.span(name):
                await asyncio.sleep(0)
                with tracer.span(f"{name}.child"):
                    await asyncio.sleep(0)

        async def main():
            await asyncio.gather(*(request(f"r{i}") for i in range(4)))

        asyncio.run(main())
        spans = list(tracer)
        roots = {s.span_id: s for s in spans if s.parent_id is None}
        children = [s for s in spans if s.parent_id is not None]
        assert len(roots) == 4 and len(children) == 4
        for child in children:
            parent = roots[child.parent_id]
            assert child.trace_id == parent.trace_id
            assert child.name == f"{parent.name}.child"


class TestRingBuffer:
    def test_capacity_bounds_memory_and_counts_drops(self):
        tracer = SpanTracer(enabled=True, capacity=3)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert tracer.finished == 5
        assert [s.name for s in tracer] == ["s2", "s3", "s4"]

    def test_clear_resets_buffer_not_counters(self):
        tracer = SpanTracer(enabled=True)
        with tracer.span("s"):
            pass
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.finished == 1

    def test_stats_shape(self):
        tracer = SpanTracer(enabled=True)
        with tracer.span("s"):
            pass
        stats = tracer.stats()
        assert stats["spans.enabled"] == 1.0
        assert stats["spans.buffered"] == 1.0
        assert stats["spans.finished"] == 1.0
        assert stats["spans.dropped"] == 0.0


class TestJsonlRoundTrip:
    def _traced(self):
        tracer = SpanTracer(enabled=True)
        with tracer.span("parent", endpoint="peak") as span:
            span.annotate(status=200)
            with tracer.span("child"):
                pass
        return tracer

    def test_round_trip_preserves_records(self):
        spans = list(self._traced())
        recovered = spans_from_jsonl(spans_to_jsonl(spans))
        assert recovered == spans

    def test_json_lines_are_tagged_and_sorted(self):
        spans = list(self._traced())
        payload = json.loads(span_to_json_line(spans[0]))
        assert payload["kind"] == "span"
        assert list(payload) == sorted(payload)

    def test_write_and_read_file(self, tmp_path):
        tracer = self._traced()
        path = tmp_path / "spans.jsonl"
        tracer.write_jsonl(path)
        assert read_spans_jsonl(path) == list(tracer)

    def test_sink_streams_while_tracing(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with SpanTracer(enabled=True, sink_path=path) as tracer:
            with tracer.span("a"):
                pass
            tracer.flush()
            assert len(read_spans_jsonl(path)) == 1
        assert read_spans_jsonl(path) == list(tracer)

    def test_older_files_with_links_still_read(self):
        span = list(self._traced())[0]
        payload = json.loads(span_to_json_line(span))
        payload["links"] = [99]  # span files of older versions carry links
        assert spans_from_jsonl(json.dumps(payload) + "\n") == [span]

    def test_malformed_line_reports_line_number(self):
        good = span_to_json_line(list(self._traced())[0])
        with pytest.raises(ValueError, match="line 2"):
            spans_from_jsonl(good + "\nnot json\n")
        with pytest.raises(ValueError, match="line 2"):
            spans_from_jsonl(good + '\n{"kind": "span"}\n')


class TestRecordPhases:
    def test_phases_become_children_of_ambient_span(self):
        tracer = SpanTracer(enabled=True)
        with tracer.span("http.simulate"):
            tracer.record_phases(
                {
                    "thermal.step": {
                        "count": 4.0,
                        "total_s": 0.02,
                        "mean_s": 0.005,
                    },
                    "scheduler.decide": {
                        "count": 4.0,
                        "total_s": 0.01,
                        "mean_s": 0.0025,
                    },
                }
            )
        spans = {s.name: s for s in tracer}
        request = spans["http.simulate"]
        for phase in ("phase.thermal.step", "phase.scheduler.decide"):
            assert spans[phase].parent_id == request.span_id
            assert spans[phase].trace_id == request.trace_id
        assert spans["phase.thermal.step"].duration_s == pytest.approx(0.02)
        assert spans["phase.thermal.step"].attrs["count"] == 4.0

    def test_no_ambient_span_is_a_noop(self):
        tracer = SpanTracer(enabled=True)
        tracer.record_phases({"p": {"count": 1.0, "total_s": 0.1}})
        assert len(tracer) == 0


class TestSloTracker:
    def test_target_validation(self):
        with pytest.raises(ValueError):
            SloTarget(latency_s=0.0)
        with pytest.raises(ValueError):
            SloTarget(latency_s=0.1, error_budget=0.0)
        with pytest.raises(ValueError):
            SloTarget(latency_s=0.1, error_budget=1.5)

    def test_budget_accounting(self):
        tracker = SloTracker(SloTarget(latency_s=0.010, error_budget=0.1))
        for index in range(9):
            assert not tracker.record(float(index), 0.001)
        assert not tracker.exhausted
        assert tracker.record(9.0, 0.5)
        assert tracker.violation_fraction == pytest.approx(0.1)
        assert tracker.budget_used == pytest.approx(1.0)
        assert tracker.exhausted

    def test_burn_rate_windowing(self):
        tracker = SloTracker(
            SloTarget(latency_s=0.010, error_budget=0.5), burn_window_s=10.0
        )
        tracker.record(0.0, 1.0)
        tracker.record(1.0, 1.0)
        assert tracker.burn_rate(1.0) == pytest.approx(2.0)
        # both slow samples age out of the window
        assert tracker.burn_rate(50.0) == 0.0

    def test_snapshot_is_flat(self):
        tracker = SloTracker(SloTarget(latency_s=0.010))
        tracker.record(0.0, 0.5)
        snapshot = tracker.snapshot()
        assert snapshot["slo.requests"] == 1.0
        assert snapshot["slo.slow_requests"] == 1.0
        assert all(isinstance(v, float) for v in snapshot.values())
