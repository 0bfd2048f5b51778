"""Tracer behaviour: spans, context, events, and FLOC tracing parity.

The load-bearing guarantee is parity: instrumentation must not change
what FLOC computes -- same clustering, same history, same RNG stream --
whether tracing is off, on, or on with metrics.
"""

import numpy as np
import pytest

from repro.core.floc import floc
from repro.data.synthetic import generate_embedded
from repro.obs import (
    NULL_TRACER,
    ActionEvent,
    IterationEvent,
    MetricsRegistry,
    JsonlSink,
    RingBufferSink,
    SeedEvent,
    Tracer,
)

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module")
def dataset():
    return generate_embedded(80, 18, 2, cluster_shape=(12, 6), noise=1.0, rng=4)


class TestSpans:
    def test_span_times_and_aggregates(self):
        tracer = Tracer()
        with tracer.span("work", step=1) as span:
            pass
        assert span.elapsed >= 0.0
        summary = tracer.summary()
        assert summary["spans"]["work"]["count"] == 1
        assert summary["spans"]["work"]["total_s"] == pytest.approx(
            span.elapsed
        )

    def test_disabled_span_is_shared_noop(self):
        first = NULL_TRACER.span("a")
        second = NULL_TRACER.span("b", attr=1)
        assert first is second
        with first as span:
            span.set(extra=2)
        assert span.elapsed == 0.0
        assert NULL_TRACER.summary()["spans"] == {}

    def test_emit_spans_forwards_records(self):
        sink = RingBufferSink()
        tracer = Tracer(sinks=[sink], emit_spans=True)
        with tracer.span("phase1", k=3):
            pass
        [record] = sink.records
        assert record["type"] == "span"
        assert record["name"] == "phase1"
        assert record["k"] == 3
        assert record["elapsed_s"] >= 0.0

    def test_spans_not_forwarded_by_default(self):
        sink = RingBufferSink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("phase1"):
            pass
        assert sink.records == []
        assert tracer.summary()["spans"]["phase1"]["count"] == 1


class TestContext:
    def test_context_merged_into_events(self):
        sink = RingBufferSink()
        tracer = Tracer(sinks=[sink])
        tracer.push_context(restart=1)
        tracer.push_context(trial=2)
        tracer.emit(SeedEvent(cluster=0, n_rows=3, n_cols=3))
        tracer.pop_context()
        tracer.emit(SeedEvent(cluster=1, n_rows=3, n_cols=3))
        tracer.pop_context()
        tracer.emit(SeedEvent(cluster=2, n_rows=3, n_cols=3))
        first, second, third = sink.records
        assert first["restart"] == 1 and first["trial"] == 2
        assert second["restart"] == 1 and "trial" not in second
        assert "restart" not in third

    def test_disabled_emit_is_noop(self):
        NULL_TRACER.emit(IterationEvent(index=0))
        assert NULL_TRACER.summary()["events"] == {}


class TestFlocTracing:
    def test_traced_run_matches_untraced(self, dataset):
        plain = floc(dataset.matrix, k=3, rng=11, residue_target=2.0,
                     reseed_rounds=2, gain_mode="fast")
        sink = RingBufferSink(capacity=100000)
        tracer = Tracer(sinks=[sink], metrics=MetricsRegistry())
        traced = floc(dataset.matrix, k=3, rng=11, residue_target=2.0,
                      reseed_rounds=2, gain_mode="fast", tracer=tracer)
        assert traced.history == plain.history
        assert traced.n_iterations == plain.n_iterations
        assert traced.n_actions == plain.n_actions
        assert traced.converged == plain.converged
        assert traced.initial_residue == plain.initial_residue
        for got, expected in zip(
            traced.clustering.clusters, plain.clustering.clusters
        ):
            assert np.array_equal(got.rows, expected.rows)
            assert np.array_equal(got.cols, expected.cols)

    def test_exporter_sinks_preserve_parity(self, dataset, tmp_path):
        """JsonlSink + RingBufferSink attached: results stay bit-identical."""
        plain = floc(dataset.matrix, k=3, rng=11, residue_target=2.0,
                     reseed_rounds=2)
        tracer = Tracer(sinks=[
            JsonlSink(tmp_path / "trace.jsonl"),
            RingBufferSink(capacity=100000),
        ])
        traced = floc(dataset.matrix, k=3, rng=11, residue_target=2.0,
                      reseed_rounds=2, tracer=tracer)
        tracer.close()
        assert traced.history == plain.history
        assert traced.n_actions == plain.n_actions
        for got, expected in zip(
            traced.clustering.clusters, plain.clustering.clusters
        ):
            assert np.array_equal(got.rows, expected.rows)
            assert np.array_equal(got.cols, expected.cols)

    def test_tracing_preserves_rng_stream(self, dataset):
        plain_rng = np.random.default_rng(7)
        traced_rng = np.random.default_rng(7)
        floc(dataset.matrix, k=2, rng=plain_rng)
        tracer = Tracer(sinks=[RingBufferSink(capacity=100000)],
                        metrics=MetricsRegistry())
        floc(dataset.matrix, k=2, rng=traced_rng, tracer=tracer)
        # Both generators must sit at the same stream position afterwards.
        assert np.array_equal(
            plain_rng.integers(0, 2**31, size=16),
            traced_rng.integers(0, 2**31, size=16),
        )

    def test_iteration_events_mirror_history(self, dataset):
        sink = RingBufferSink(capacity=100000)
        result = floc(dataset.matrix, k=3, rng=5,
                      tracer=Tracer(sinks=[sink]))
        events = sink.by_type("iteration")
        assert [e["residue"] for e in events] == result.history
        assert [e["index"] for e in events] == list(range(len(events)))
        assert sum(e["n_actions"] for e in events) == result.n_actions

    def test_seed_and_action_events_emitted(self, dataset):
        sink = RingBufferSink(capacity=100000)
        result = floc(dataset.matrix, k=3, rng=5,
                      tracer=Tracer(sinks=[sink]))
        seeds = sink.by_type("seed")
        assert len(seeds) == 3
        assert all(s["origin"] == "phase1" for s in seeds)
        actions = sink.by_type("action")
        assert len(actions) == result.n_actions
        assert {a["kind"] for a in actions} <= {"row", "col"}

    def test_iteration_times_always_populated(self, dataset):
        result = floc(dataset.matrix, k=2, rng=1)
        assert len(result.iteration_times) == len(result.history)
        assert all(t >= 0.0 for t in result.iteration_times)
        assert result.metrics is None
        assert result.trace_summary is None

    def test_metrics_and_summary_attached_when_traced(self, dataset):
        tracer = Tracer(metrics=MetricsRegistry())
        result = floc(dataset.matrix, k=2, rng=1, tracer=tracer)
        counters = result.metrics["counters"]
        assert counters["actions_performed"] == result.n_actions
        assert counters["iterations"] == result.n_iterations
        assert result.trace_summary["events"]["iteration"] == (
            result.n_iterations
        )
        assert "gain_eval" in result.trace_summary["spans"]


class TestEventTypes:
    def test_to_dict_drops_none_and_coerces_numpy(self):
        event = SeedEvent(
            cluster=np.int64(3), n_rows=np.int64(5), n_cols=np.int64(2)
        )
        record = event.to_dict()
        assert record["cluster"] == 3
        assert type(record["cluster"]) is int
        assert "residue" not in record  # None fields dropped
        assert record["type"] == "seed"

    def test_action_event_payload(self):
        record = ActionEvent(kind="col", index=4, cluster=1, is_removal=True,
                             gain=0.25, residue=1.5, volume=30).to_dict()
        assert record == {
            "type": "action", "kind": "col", "index": 4, "cluster": 1,
            "is_removal": True, "gain": 0.25, "residue": 1.5, "volume": 30,
        }
