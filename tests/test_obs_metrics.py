"""Metrics registry: instrument semantics and snapshot shape."""

import pytest

from repro.obs import Histogram, MetricsRegistry

pytestmark = pytest.mark.obs


class TestInstruments:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        counter = registry.counter("actions")
        counter.inc()
        registry.inc("actions", 4)
        assert registry.counter("actions") is counter
        assert counter.value == 5

    def test_histogram_aggregates_exact(self):
        hist = Histogram("t")
        for value in [1.0, 2.0, 3.0, 10.0]:
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == 16.0
        assert hist.mean == 4.0
        assert hist.min == 1.0
        assert hist.max == 10.0

    def test_histogram_percentiles(self):
        hist = Histogram("t")
        for value in range(101):
            hist.observe(float(value))
        assert hist.percentile(50) == pytest.approx(50.0, abs=2.0)
        assert hist.percentile(90) == pytest.approx(90.0, abs=2.0)
        assert hist.percentile(0) == 0.0
        assert hist.percentile(100) == 100.0

    def test_histogram_decimation_keeps_exact_aggregates(self):
        hist = Histogram("t", sample_cap=64)
        n = 10_000
        for value in range(n):
            hist.observe(float(value))
        assert hist.count == n  # aggregates never decimated
        assert hist.total == sum(range(n))
        assert len(hist._sample) < 64
        # The decimated sample still spans the distribution.
        assert hist.percentile(50) == pytest.approx(n / 2, rel=0.25)


class TestSnapshot:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.inc("actions_performed", 3)
        registry.observe("gain_eval_ns", 1000.0)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "histograms"}
        assert snapshot["counters"] == {"actions_performed": 3}
        hist = snapshot["histograms"]["gain_eval_ns"]
        assert set(hist) == {
            "count", "total", "mean", "min", "max", "p50", "p90", "p99"
        }
        assert hist["count"] == 1

    def test_snapshot_of_empty_registry(self):
        assert MetricsRegistry().snapshot() == {
            "counters": {}, "histograms": {}
        }

    def test_reset(self):
        registry = MetricsRegistry()
        registry.inc("n")
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "histograms": {}
        }
