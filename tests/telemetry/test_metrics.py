"""Metrics registry: counters, gauges, histograms, labeled families."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(TelemetryError):
            Counter().inc(-1)

    def test_to_dict(self):
        counter = Counter()
        counter.inc(4)
        assert counter.to_dict() == {"type": "counter", "value": 4.0}


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10.0)
        gauge.set(3.0)
        assert gauge.value == 3.0


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram(buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        buckets = hist.to_dict()["buckets"]
        assert buckets == {
            "le_1": 1, "le_10": 1, "le_100": 1, "le_inf": 1,
        }
        assert hist.count == 4
        assert hist.sum == pytest.approx(555.5)
        assert hist.mean == pytest.approx(555.5 / 4)

    def test_boundary_value_lands_in_its_bucket(self):
        hist = Histogram(buckets=(1.0, 10.0))
        hist.observe(1.0)
        assert hist.to_dict()["buckets"]["le_1"] == 1

    def test_quantiles(self):
        hist = Histogram(buckets=(1.0, 2.0, 4.0, 8.0))
        for _ in range(90):
            hist.observe(0.5)
        for _ in range(10):
            hist.observe(3.0)
        assert hist.quantile(0.5) == 1.0  # upper bound of the p50 bucket
        assert hist.quantile(0.99) == pytest.approx(3.0)  # capped at true max

    def test_quantile_of_empty_histogram_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_overflow_quantile_reports_true_max(self):
        hist = Histogram(buckets=(1.0,))
        hist.observe(123.0)
        assert hist.quantile(0.99) == 123.0

    def test_rejects_bad_quantile(self):
        with pytest.raises(TelemetryError):
            Histogram().quantile(1.5)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(TelemetryError):
            Histogram(buckets=(2.0, 1.0))

    def test_rejects_empty_buckets(self):
        with pytest.raises(TelemetryError):
            Histogram(buckets=())


class TestMetricsRegistry:
    def test_same_name_same_labels_returns_same_metric(self):
        registry = MetricsRegistry()
        a = registry.counter("clips", labels={"node": "N10"})
        b = registry.counter("clips", labels={"node": "N10"})
        assert a is b

    def test_labels_split_series(self):
        registry = MetricsRegistry()
        registry.counter("clips", labels={"node": "N10"}).inc(3)
        registry.counter("clips", labels={"node": "N7"}).inc(5)
        series = registry.snapshot()["clips"]["series"]
        assert {tuple(s["labels"].items()): s["value"] for s in series} == {
            (("node", "N10"),): 3.0,
            (("node", "N7"),): 5.0,
        }

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("m", labels={"a": "1", "b": "2"})
        b = registry.counter("m", labels={"b": "2", "a": "1"})
        assert a is b

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TelemetryError):
            registry.gauge("m")

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("clips").inc()
        registry.gauge("run_seconds").set(1.25)
        registry.histogram("latency", labels={"stage": "optical"}).observe(0.01)
        payload = registry.to_dict()
        assert payload["schema_version"] == 1
        round_trip = json.loads(json.dumps(payload))
        assert round_trip == payload


class TestHistogramExportArrays:
    """The exact bucket arrays the Prometheus exporter reads."""

    def test_to_dict_carries_parallel_bucket_arrays(self):
        hist = Histogram(buckets=(0.5, 1.0))
        for value in (0.2, 0.7, 5.0):
            hist.observe(value)
        payload = hist.to_dict()
        assert payload["bucket_bounds"] == [0.5, 1.0]
        assert payload["bucket_counts"] == [1, 1, 1]
        # the legacy human-readable dict stays alongside
        assert payload["buckets"]["le_inf"] == 1
