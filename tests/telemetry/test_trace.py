"""Span tracing: nesting, aggregation, metrics export."""

import time

import pytest

from repro.telemetry import MetricsRegistry, Tracer


class TestTracer:
    def test_records_duration_and_metadata(self):
        tracer = Tracer()
        with tracer.span("work", kind="test") as span:
            span.note(items=3)
            time.sleep(0.001)
        (record,) = tracer.records
        assert record.name == "work"
        assert record.seconds >= 0.001
        assert record.metadata == {"kind": "test", "items": 3}
        assert record.depth == 0 and record.parent is None

    def test_nesting_tracks_depth_and_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                with tracer.span("innermost"):
                    pass
        by_name = {r.name: r for r in tracer.records}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["inner"].parent == "outer"
        assert by_name["innermost"].depth == 2
        assert by_name["innermost"].parent == "inner"
        # completion order: innermost finishes first
        assert [r.name for r in tracer.records] == [
            "innermost", "inner", "outer",
        ]

    def test_nested_spans_both_accumulate(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.001)
        assert tracer.count("outer") == 1
        assert tracer.count("inner") == 1
        # the outer span's clock covers the inner one
        assert tracer.total("outer") >= tracer.total("inner")
        inner = next(r for r in tracer.records if r.name == "inner")
        assert inner.parent == "outer" and inner.depth == 1

    def test_nested_same_name_counts_twice(self):
        tracer = Tracer()
        with tracer.span("s"):
            with tracer.span("s"):
                pass
        assert tracer.count("s") == 2

    def test_totals_accumulate_across_spans(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("step"):
                pass
        assert tracer.count("step") == 3
        assert tracer.total("step") > 0
        assert tracer.mean("step") == pytest.approx(tracer.total("step") / 3)

    def test_unknown_name_aggregates_to_zero(self):
        tracer = Tracer()
        assert tracer.total("nope") == 0.0
        assert tracer.count("nope") == 0
        assert tracer.mean("nope") == 0.0

    def test_span_recorded_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("risky"):
                raise ValueError("boom")
        assert tracer.count("risky") == 1
        assert not tracer._stack  # stack unwound cleanly

    def test_totals_map_each_name_to_its_summed_seconds(self):
        tracer = Tracer()
        for name in ("optical", "optical", "resist"):
            with tracer.span(name):
                pass
        totals = tracer.totals()
        assert set(totals) == {"optical", "resist"}
        assert totals["optical"] == tracer.total("optical")

    def test_to_dict_shape(self):
        tracer = Tracer()
        with tracer.span("s", node="N10"):
            pass
        payload = tracer.to_dict()
        assert set(payload) == {"trace_id", "spans", "totals", "counts"}
        assert payload["trace_id"] == tracer.trace_id
        assert payload["spans"][0]["name"] == "s"
        assert payload["spans"][0]["metadata"] == {"node": "N10"}
        assert payload["counts"] == {"s": 1}

    def test_record_into_registry(self):
        tracer = Tracer()
        for _ in range(2):
            with tracer.span("optical"):
                pass
        with tracer.span("resist"):
            pass
        registry = MetricsRegistry()
        tracer.record_into(registry)
        snapshot = registry.snapshot()
        hist_series = {
            tuple(s["labels"].items()): s
            for s in snapshot["stage_seconds"]["series"]
        }
        assert hist_series[(("stage", "optical"),)]["count"] == 2
        assert hist_series[(("stage", "resist"),)]["count"] == 1
        counter_series = {
            tuple(s["labels"].items()): s["value"]
            for s in snapshot["stages_total"]["series"]
        }
        assert counter_series[(("stage", "optical"),)] == 2.0
