"""Tracer behaviour: spans, context, events, and FLOC tracing parity.

The load-bearing guarantee is parity: instrumentation must not change
what FLOC computes -- same clustering, same history, same RNG stream --
whether tracing is off, on, or on with metrics.
"""

import numpy as np
import pytest

from repro.core.floc import floc
from repro.core.mining import mine_delta_clusters
from repro.data.synthetic import generate_embedded
from repro.obs import (
    NULL_TRACER,
    IterationEvent,
    MetricsRegistry,
    JsonlSink,
    RingBufferSink,
    SeedEvent,
    Tracer,
    WorkCounters,
)

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module")
def dataset():
    return generate_embedded(80, 18, 2, cluster_shape=(12, 6), noise=1.0, rng=4)


class TestSpans:
    def test_span_times_and_aggregates(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            pass
        assert span.elapsed >= 0.0
        summary = tracer.summary()
        assert summary["spans"]["work"]["count"] == 1
        assert summary["spans"]["work"]["total_s"] == pytest.approx(
            span.elapsed
        )

    def test_disabled_span_is_shared_noop(self):
        first = NULL_TRACER.span("a")
        second = NULL_TRACER.span("b")
        assert first is second
        with first as span:
            pass
        assert span.elapsed == 0.0
        assert NULL_TRACER.summary()["spans"] == {}

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
                     reseed_rounds=2, gain_mode="exact")
        tracer = Tracer(sinks=[
            JsonlSink(tmp_path / "trace.jsonl"),
            RingBufferSink(capacity=100000),
        ])
        traced = floc(dataset.matrix, k=3, rng=11, residue_target=2.0,
                      reseed_rounds=2, tracer=tracer, gain_mode="exact")
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
        floc(dataset.matrix, k=2, rng=plain_rng, gain_mode="exact")
        tracer = Tracer(sinks=[RingBufferSink(capacity=100000)],
                        metrics=MetricsRegistry())
        floc(dataset.matrix, k=2, rng=traced_rng, tracer=tracer, gain_mode="exact")
        # Both generators must sit at the same stream position afterwards.
        assert np.array_equal(
            plain_rng.integers(0, 2**31, size=16),
            traced_rng.integers(0, 2**31, size=16),
        )

    def test_iteration_events_mirror_history(self, dataset):
        sink = RingBufferSink(capacity=100000)
        result = floc(dataset.matrix, k=3, rng=5,
                      tracer=Tracer(sinks=[sink]), gain_mode="exact")
        events = sink.by_type("iteration")
        assert [e["residue"] for e in events] == result.history
        assert [e["index"] for e in events] == list(range(len(events)))
        assert sum(e["n_actions"] for e in events) == result.n_actions

    def test_one_record_per_seed_and_per_sweep(self, dataset):
        sink = RingBufferSink(capacity=100000)
        result = floc(dataset.matrix, k=3, rng=5,
                      tracer=Tracer(sinks=[sink]), gain_mode="exact")
        seeds = sink.by_type("seed")
        assert len(seeds) == 3
        assert all(s["origin"] == "phase1" for s in seeds)
        assert len(sink.by_type("iteration")) == result.n_iterations
        assert {r["type"] for r in sink.records} == {"seed", "iteration"}

    @staticmethod
    def _reseeding_run(dataset, **kwargs):
        sink = RingBufferSink(capacity=100000)
        result = floc(dataset.matrix, k=4, p=0.3, residue_target=2.0,
                      reseed_rounds=3, rng=3, tracer=Tracer(sinks=[sink]),
                      **kwargs)
        return result, sink.records

    @pytest.mark.parametrize("gain_mode", ["exact", "fast"])
    def test_sweep_cluster_actions_sum_to_n_actions(self, dataset, gain_mode):
        result, records = self._reseeding_run(dataset, gain_mode=gain_mode)
        sweeps = [r for r in records if r["type"] == "iteration"]
        assert sum(s["n_actions"] for s in sweeps) == result.n_actions
        for sweep in sweeps:
            entries = sweep["clusters"]
            assert sum(e["actions"] for e in entries) == sweep["n_actions"]
            ids = [e["cluster"] for e in entries]
            assert ids == sorted(set(ids))
            assert 0 <= sweep["n_adopted"] <= sweep["n_actions"]

    @pytest.mark.parametrize("gain_mode", ["exact", "fast"])
    def test_non_improving_sweeps_adopt_nothing(self, dataset, gain_mode):
        _, records = self._reseeding_run(dataset, gain_mode=gain_mode)
        sweeps = [r for r in records if r["type"] == "iteration"]
        rolled_back = [s for s in sweeps if not s["improved"]]
        assert rolled_back
        for sweep in rolled_back:
            assert sweep["n_adopted"] == 0
            for entry in sweep["clusters"]:
                assert entry["rows_in"] == entry["rows_out"] == []
                assert entry["cols_in"] == entry["cols_out"] == []
                assert entry["residue"] == entry["residue_before"]
        assert any(s["n_adopted"] > 0 for s in sweeps if s["improved"])

    @pytest.mark.parametrize("gain_mode", ["exact", "fast"])
    def test_seeds_plus_sweep_diffs_replay_final_clusters(
        self, dataset, gain_mode
    ):
        """The trace explains the clustering: each slot's latest seed
        shape plus the net lines every later sweep admitted and evicted
        gives every final cluster's row and column count."""
        result, records = self._reseeding_run(dataset, gain_mode=gain_mode)
        assert any(r.get("origin") == "reseed" for r in records)
        sizes = {}
        for record in records:
            if record["type"] == "seed":
                sizes[record["cluster"]] = [record["n_rows"], record["n_cols"]]
            elif record["type"] == "iteration":
                for entry in record["clusters"]:
                    size = sizes[entry["cluster"]]
                    size[0] += len(entry["rows_in"]) - len(entry["rows_out"])
                    size[1] += len(entry["cols_in"]) - len(entry["cols_out"])
        final = {
            c: [len(cluster.rows), len(cluster.cols)]
            for c, cluster in enumerate(result.clustering.clusters)
        }
        assert sizes == final

    def test_iteration_times_always_populated(self, dataset):
        result = floc(dataset.matrix, k=2, rng=1, gain_mode="exact")
        assert len(result.iteration_times) == len(result.history)
        assert all(t >= 0.0 for t in result.iteration_times)
        assert result.trace_summary is None

    def test_metrics_and_summary_attached_when_traced(self, dataset):
        tracer = Tracer(metrics=MetricsRegistry())
        result = floc(dataset.matrix, k=2, rng=1, tracer=tracer, gain_mode="exact")
        assert result.trace_summary["events"]["iteration"] == (
            result.n_iterations
        )
        assert "gain_eval" in result.trace_summary["spans"]

    def test_core_writes_no_metrics(self, dataset):
        """Every fact of a run has one channel -- records, span
        aggregates or work counters -- so a traced ``floc`` and a traced
        ``mine_delta_clusters`` leave a registry empty."""
        for run in (
            lambda tracer: floc(dataset.matrix, k=3, rng=11,
                                residue_target=2.0, reseed_rounds=2,
                                tracer=tracer, work=WorkCounters(), gain_mode="exact"),
            lambda tracer: mine_delta_clusters(
                dataset.matrix, 2.0, k=3, n_restarts=2, reseed_rounds=2,
                rng=11, tracer=tracer, work=WorkCounters()),
        ):
            metrics = MetricsRegistry()
            tracer = Tracer(sinks=[RingBufferSink(capacity=100000)],
                            metrics=metrics)
            result = run(tracer)
            assert result.trace_summary["events"]["iteration"] > 0
            assert metrics.snapshot() == {
                "counters": {}, "histograms": {},
            }


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

    def test_iteration_event_payload(self):
        entry = {
            "cluster": 1, "actions": 2, "gain_sum": 0.5, "rows_in": [4],
            "rows_out": [], "cols_in": [], "cols_out": [2],
            "residue_before": 2.0, "residue": 1.5, "volume": 30,
        }
        record = IterationEvent(index=3, residue=1.5, score=1.5,
                                total_volume=30, n_actions=2, improved=True,
                                elapsed_s=0.125, n_adopted=2,
                                clusters=[entry]).to_dict()
        assert record == {
            "type": "iteration", "index": 3, "residue": 1.5, "score": 1.5,
            "total_volume": 30, "n_actions": 2, "improved": True,
            "elapsed_s": 0.125, "n_adopted": 2, "clusters": [entry],
        }
