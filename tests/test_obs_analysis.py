"""Trace analytics: aggregates must agree exactly with the source events.

The acceptance contract: the per-sweep and per-cluster figures derived
by :func:`repro.obs.analysis.analyze_records` match the raw
``IterationEvent`` records and their per-cluster entries exactly, the
residue trajectory is the run's ``history`` verbatim, and the whole
analysis is deterministic (same trace -> byte-identical serialized
output).  ``diff_traces`` is
exercised on real twinned exact-vs-fast runs and on synthetic streams
with known divergence.
"""

import json

import numpy as np
import pytest

from repro.core.floc import floc
from repro.core.matrix import DataMatrix
from repro.obs import (
    JsonlSink,
    RingBufferSink,
    Tracer,
    UnpairedIteration,
    analyze_records,
    analyze_trace,
    diff_traces,
)

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(0)
    values = rng.uniform(0, 100, size=(40, 12))
    values[:12, :5] = (
        50.0
        + rng.uniform(-15, 15, 12)[:, None]
        + rng.uniform(-15, 15, 5)[None, :]
    )
    return DataMatrix(values)


def traced_run(matrix, **kwargs):
    sink = RingBufferSink(capacity=100000)
    tracer = Tracer(sinks=[sink])
    kwargs.setdefault("k", 3)
    kwargs.setdefault("rng", 7)
    kwargs.setdefault("reseed_rounds", 2)
    kwargs.setdefault("gain_mode", "exact")
    result = floc(matrix, tracer=tracer, **kwargs)
    tracer.close()
    return result, sink.records


@pytest.fixture(scope="module")
def run(matrix):
    return traced_run(matrix)


class TestAgainstRealRuns:
    def test_sweep_counts_match_iteration_events(self, run):
        _, records = run
        analysis = analyze_records(records)
        assert analysis.warnings == []
        sweeps = [s for sess in analysis.sessions for s in sess.sweeps]
        assert sweeps, "run produced no sweeps"
        raw = [r for r in records if r.get("type") == "iteration"]
        assert [s.n_actions for s in sweeps] == [r["n_actions"] for r in raw]
        assert [s.n_adopted for s in sweeps] == [r["n_adopted"] for r in raw]
        for sweep, record in zip(sweeps, raw):
            entries = record["clusters"]
            assert sum(d.actions for d in sweep.decisions) == sweep.n_actions
            assert sweep.clusters_touched == len(entries)
            assert sweep.admissions == sum(
                len(e["rows_in"]) + len(e["cols_in"]) for e in entries
            )
            assert sweep.evictions == sum(
                len(e["rows_out"]) + len(e["cols_out"]) for e in entries
            )

    def test_residue_trajectory_matches_history(self, run):
        result, records = run
        analysis = analyze_records(records)
        [session] = analysis.sessions
        assert session.residue_trajectory == result.history

    def test_gain_sums_match_sweep_records(self, run):
        _, records = run
        analysis = analyze_records(records)
        raw_gain = sum(
            entry["gain_sum"]
            for r in records if r.get("type") == "iteration"
            for entry in r["clusters"]
        )
        sweep_gain = sum(
            s.gain_sum for sess in analysis.sessions for s in sess.sweeps
        )
        cluster_gain = sum(c.gain_sum for c in analysis.clusters)
        assert sweep_gain == pytest.approx(raw_gain, abs=1e-12)
        assert cluster_gain == pytest.approx(raw_gain, abs=1e-12)

    def test_event_counts_match_raw_stream(self, run):
        result, records = run
        analysis = analyze_records(records)
        assert analysis.n_records == len(records)
        for kind in ("seed", "iteration"):
            expected = sum(1 for r in records if r.get("type") == kind)
            assert analysis.event_counts.get(kind, 0) == expected
        assert analysis.n_actions == result.n_actions

    def test_cluster_actions_account_for_every_action(self, run):
        result, records = run
        analysis = analyze_records(records)
        assert sum(c.actions for c in analysis.clusters) == result.n_actions
        # Admissions and evictions are the net changes the sweeps kept.
        kept = [
            (e["cluster"], len(e["rows_in"]) + len(e["cols_in"]),
             len(e["rows_out"]) + len(e["cols_out"]))
            for r in records if r.get("type") == "iteration"
            for e in r["clusters"]
        ]
        for cluster in analysis.clusters:
            mine = [k for k in kept if k[0] == cluster.cluster]
            assert cluster.admissions == sum(k[1] for k in mine)
            assert cluster.evictions == sum(k[2] for k in mine)

    def test_cluster_seed_counts(self, run):
        _, records = run
        analysis = analyze_records(records)
        seeds = sum(c.seeds for c in analysis.clusters)
        reseeds = sum(c.reseeds for c in analysis.clusters)
        raw = [r for r in records if r.get("type") == "seed"]
        assert seeds == sum(1 for r in raw if r.get("origin") == "phase1")
        assert reseeds == sum(1 for r in raw if r.get("origin") == "reseed")


class TestDeterminism:
    def test_to_dict_is_reproducible(self, run):
        _, records = run
        first = json.dumps(
            analyze_records(records).to_dict(), sort_keys=True
        )
        second = json.dumps(
            analyze_records(list(records)).to_dict(), sort_keys=True
        )
        assert first == second

    def test_analyze_trace_round_trip(self, run, tmp_path):
        _, records = run
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        for record in records:
            sink.write(record)
        sink.close()
        from_file = analyze_trace(path)
        in_memory = analyze_records(records)
        assert from_file.to_dict() == in_memory.to_dict()

    def test_truncated_trace_still_analyzes(self, run, tmp_path):
        _, records = run
        path = tmp_path / "cut.jsonl"
        sink = JsonlSink(path)
        for record in records:
            sink.write(record)
        sink.close()
        text = path.read_text()
        path.write_text(text[: len(text) - 20])  # chop mid-final-line
        analysis = analyze_trace(path)
        assert analysis.n_records == len(records) - 1
        with pytest.raises(ValueError):
            analyze_trace(path, strict=True)


class TestHandBuiltStreams:
    @staticmethod
    def iteration(index, residue, n_actions=0, **extra):
        return {
            "type": "iteration", "index": index, "residue": residue,
            "score": residue, "total_volume": 10, "n_actions": n_actions,
            "improved": True, "elapsed_s": 0.0, **extra,
        }

    @staticmethod
    def entry(cluster=0, actions=1, gain_sum=1.0, rows_in=(), rows_out=(),
              cols_in=(), cols_out=()):
        return {
            "cluster": cluster, "actions": actions, "gain_sum": gain_sum,
            "rows_in": list(rows_in), "rows_out": list(rows_out),
            "cols_in": list(cols_in), "cols_out": list(cols_out),
            "residue_before": 2.0, "residue": 1.0, "volume": 9,
        }

    def test_cluster_lifetimes_kept_per_session(self):
        # Slot 0 of two independent restarts: restart 0 reseeds it, the
        # other does not, and each ends at its own residue.
        def seed(restart, origin, residue):
            return {"type": "seed", "cluster": 0, "origin": origin,
                    "residue": residue, "volume": 9, "restart": restart}

        records = [
            seed(0, "phase1", 5.0), seed(0, "reseed", 4.0),
            seed(1, "phase1", 3.0),
            self.iteration(0, 2.0, n_actions=1, restart=1,
                           clusters=[self.entry(rows_in=(4,))]),
        ]
        analysis = analyze_records(records)
        assert [(c.session, c.cluster, c.seeds, c.reseeds, c.admissions,
                 c.last_residue) for c in analysis.clusters] == [
            ({"restart": 0}, 0, 1, 1, 0, 4.0),
            ({"restart": 1}, 0, 1, 0, 1, 1.0),
        ]
        payload = analysis.to_dict()
        assert payload["schema"] == 4
        assert [c["session"] for c in payload["clusters"]] == [
            {"restart": 0}, {"restart": 1},
        ]

    def test_sessions_separated_by_context(self):
        records = [
            self.iteration(0, 2.0, n_actions=1, restart=0,
                           clusters=[self.entry()]),
            self.iteration(0, 3.0, n_actions=1, restart=1,
                           clusters=[self.entry()]),
        ]
        analysis = analyze_records(records)
        assert len(analysis.sessions) == 2
        assert [s.key for s in analysis.sessions] == [
            {"restart": 0}, {"restart": 1},
        ]
        assert [s.residue_trajectory for s in analysis.sessions] == [
            [2.0], [3.0],
        ]

    def test_unknown_event_types_counted_not_fatal(self):
        records = [{"type": "future_thing", "x": 1}]
        analysis = analyze_records(records)
        assert analysis.event_counts == {"future_thing": 1}
        assert analysis.warnings == []

    def test_record_without_type_warns(self):
        analysis = analyze_records([{"x": 1}])
        assert len(analysis.warnings) == 1

    def test_churn_property(self):
        records = [self.iteration(0, 1.0, n_actions=3, n_adopted=3, clusters=[
            self.entry(0, actions=2, rows_in=[4]),
            self.entry(1, actions=1, cols_out=[2]),
        ])]
        [session] = analyze_records(records).sessions
        [sweep] = session.sweeps
        assert sweep.admissions == 1
        assert sweep.evictions == 1
        assert sweep.churn == 2
        assert sweep.clusters_touched == 2
        assert sweep.n_adopted == 3

    def test_older_traces_still_analyze(self):
        """A trace written before the sweep record carried its clusters:
        ``action`` and ``span`` records are counted and ignored, and the
        sweeps read as having no decisions."""
        records = [
            {"type": "action", "kind": "row", "index": 0, "cluster": 0,
             "is_removal": False, "gain": 1.0, "residue": 1.0, "volume": 9},
            {"type": "span", "name": "gain_eval", "elapsed_s": 0.25},
            self.iteration(0, 1.0, n_actions=1),
        ]
        analysis = analyze_records(records)
        assert analysis.warnings == []
        assert analysis.event_counts == {
            "action": 1, "span": 1, "iteration": 1,
        }
        assert "spans" not in analysis.to_dict()
        [session] = analysis.sessions
        [sweep] = session.sweeps
        assert (sweep.n_actions, sweep.n_adopted, sweep.decisions) == (1, 0, [])
        assert analysis.clusters == []


class TestDiffTraces:
    def test_twinned_exact_vs_fast_runs(self, matrix):
        _, exact = traced_run(matrix, gain_mode="exact")
        _, fast = traced_run(matrix, gain_mode="fast")
        diff = diff_traces(exact, fast)
        assert diff.deltas, "no aligned iterations"
        # Same seed, same workload: iteration 0 starts from the same
        # Phase-1 state, so per-iteration deltas measure gain-mode
        # divergence only.
        for delta in diff.deltas:
            assert delta.residue_delta == delta.residue_b - delta.residue_a
        summary = diff.to_dict(tol=0.0)
        assert summary["n_aligned"] == len(diff.deltas)
        assert summary["max_abs_residue_delta"] >= summary[
            "mean_abs_residue_delta"
        ]

    def test_identical_traces_do_not_diverge(self, run):
        _, records = run
        diff = diff_traces(records, records)
        assert diff.n_only_a == diff.n_only_b == 0
        assert diff.max_abs_residue_delta == 0.0
        assert diff.first_divergence() is None

    def test_synthetic_divergence_located(self):
        make = TestHandBuiltStreams.iteration
        a = [make(0, 5.0), make(1, 4.0), make(2, 3.0)]
        b = [make(0, 5.0), make(1, 4.5), make(2, 2.0)]
        diff = diff_traces(a, b)
        assert [d.residue_delta for d in diff.deltas] == [0.0, 0.5, -1.0]
        first = diff.first_divergence(tol=0.25)
        assert first is not None and first.index == 1
        assert diff.first_divergence(tol=2.0) is None
        assert diff.final_residue_delta == -1.0
        assert diff.max_abs_residue_delta == 1.0
        assert diff.mean_abs_residue_delta == pytest.approx(0.5)

    def test_unpaired_iterations_counted(self):
        make = TestHandBuiltStreams.iteration
        a = [make(0, 5.0), make(1, 4.0)]
        b = [make(0, 5.0)]
        diff = diff_traces(a, b)
        assert len(diff.deltas) == 1
        assert diff.n_only_a == 1
        assert diff.n_only_b == 0

    def test_unpaired_iteration_is_a_divergence(self):
        """An iteration only one trace holds diverges: it is the first
        divergence when no aligned one before it (in session, then
        index order) exceeds the tolerance."""
        make = TestHandBuiltStreams.iteration
        a = [make(0, 5.0), make(1, 4.0), make(2, 3.0)]
        b = [make(0, 5.0), make(1, 4.5)]
        diff = diff_traces(a, b)
        first = diff.first_divergence(tol=1.0)
        assert isinstance(first, UnpairedIteration)
        assert (first.index, first.side) == (2, "A")
        assert diff.to_dict(tol=1.0)["first_divergence"] == {
            "key": {}, "index": 2, "side": "A",
        }
        assert diff.to_dict(tol=0.25)["first_divergence"] == {
            "key": {}, "index": 1, "side": None,
        }
        assert diff.to_dict()["unpaired"] == [
            {"key": {}, "index": 2, "side": "A"}
        ]
        assert diff.first_divergence(tol=0.25).index == 1
        assert diff_traces([], a).first_divergence().side == "B"
        a = [make(0, 5.0, restart=0), make(1, 5.0, restart=0), make(0, 7.0, restart=1)]
        b = [make(0, 5.0, restart=0), make(0, 9.0, restart=1)]
        first = diff_traces(a, b).first_divergence()
        assert (first.key, first.index, first.side) == ({"restart": 0}, 1, "A")

    def test_sessions_aligned_independently(self):
        make = TestHandBuiltStreams.iteration
        a = [make(0, 5.0, restart=0), make(0, 7.0, restart=1)]
        b = [make(0, 6.0, restart=0), make(0, 7.0, restart=1)]
        diff = diff_traces(a, b)
        assert len(diff.deltas) == 2
        assert [d.key for d in diff.deltas] == [
            {"restart": 0}, {"restart": 1},
        ]
        assert [d.residue_delta for d in diff.deltas] == [1.0, 0.0]

    def test_to_dict_deterministic(self):
        make = TestHandBuiltStreams.iteration
        a = [make(0, 5.0), make(1, 4.0)]
        b = [make(0, 5.5), make(1, 4.0)]
        first = json.dumps(diff_traces(a, b).to_dict(), sort_keys=True)
        second = json.dumps(diff_traces(a, b).to_dict(), sort_keys=True)
        assert first == second


class TestRuntimeTraces:
    """Supervised-runtime traces (task/retry/fault events) analyze
    cleanly: the event kinds are known to the analyzer, their counts
    match the raw stream, and ``repro analyze-trace`` accepts the file.
    """

    @pytest.fixture
    def runtime_trace(self, tmp_path, monkeypatch):
        from repro.runtime import (
            FAULT_PLAN_ENV,
            FaultPlan,
            FaultSpec,
            RunConfig,
            run_supervised,
        )

        rng = np.random.default_rng(3)
        values = rng.normal(size=(16, 8))
        values[:7, :5] += 3.5
        matrix = DataMatrix(values)
        config = RunConfig(
            residue_target=1.5, n_restarts=3, root_seed=5, k=2,
            max_iterations=4, min_volume=9, workers=1, max_retries=1,
        )
        # One recoverable fault so the trace carries a retry and a
        # fault event alongside the task lifecycle.
        plan = FaultPlan((
            FaultSpec(site="worker_start", kind="error", restart=0),
        ))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        path = tmp_path / "runtime-trace.jsonl"
        sink = JsonlSink(path)
        tracer = Tracer(sinks=[sink])
        outcome = run_supervised(
            matrix, config, run_dir=tmp_path / "run",
            tracer=tracer, sleep=lambda _s: None,
        )
        tracer.close()
        assert outcome.ok
        return path

    def test_runtime_events_are_known_and_counted(self, runtime_trace):
        analysis = analyze_trace(runtime_trace)
        assert analysis.warnings == []
        # Task lifecycle: every restart dispatches and completes, the
        # faulted restart adds a failed attempt.
        assert analysis.event_counts.get("task", 0) >= 2 * 3 + 1
        assert analysis.event_counts.get("retry", 0) == 1
        assert analysis.event_counts.get("fault", 0) == 1

    def test_counts_match_raw_stream(self, runtime_trace):
        from repro.obs.sinks import read_jsonl

        records = list(read_jsonl(runtime_trace))
        analysis = analyze_trace(runtime_trace)
        assert analysis.n_records == len(records)
        for kind in ("task", "retry", "fault"):
            expected = sum(1 for r in records if r.get("type") == kind)
            assert analysis.event_counts.get(kind, 0) == expected
        statuses = [
            r["status"] for r in records if r.get("type") == "task"
        ]
        assert statuses.count("dispatched") == statuses.count(
            "completed"
        ) + statuses.count("failed")

    def test_cli_analyze_trace_accepts_runtime_trace(
            self, runtime_trace, capsys):
        from repro.cli import main

        assert main(["analyze-trace", str(runtime_trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["warnings"] == []
        assert payload["event_counts"]["task"] >= 2 * 3 + 1
        assert payload["event_counts"]["retry"] == 1
        assert payload["event_counts"]["fault"] == 1

    def test_analysis_of_runtime_trace_is_deterministic(
            self, runtime_trace):
        first = json.dumps(
            analyze_trace(runtime_trace).to_dict(), sort_keys=True
        )
        second = json.dumps(
            analyze_trace(runtime_trace).to_dict(), sort_keys=True
        )
        assert first == second


class TestWaveTimeline:
    """Multi-process aggregation: waves, stragglers, resources, processes."""

    def _task(self, restart, status, wave, elapsed, attempt=0, **extra):
        return {"type": "task", "restart": restart, "attempt": attempt,
                "status": status, "wave": wave, "elapsed_s": elapsed,
                **extra}

    def test_wave_stats_and_straggler_flag(self):
        records = [
            self._task(0, "completed", 0, 1.0),
            self._task(1, "completed", 0, 1.2),
            self._task(2, "completed", 0, 5.0),  # > 2x median of wave 0
            self._task(3, "completed", 1, 2.0),
            self._task(4, "failed", 1, 0.5, error="Boom"),
            {"type": "retry", "restart": 4, "wave": 1},
            {"type": "fault", "restart": 4, "wave": 1, "site": "worker_start",
             "kind": "error"},
        ]
        analysis = analyze_records(records)
        assert [w.index for w in analysis.waves] == [0, 1]
        wave0, wave1 = analysis.waves
        assert (wave0.completed, wave0.failed) == (3, 0)
        assert wave0.median_elapsed_s == pytest.approx(1.2)
        assert wave0.max_elapsed_s == pytest.approx(5.0)
        assert wave0.stragglers == 1
        assert (wave1.completed, wave1.failed) == (1, 1)
        assert (wave1.retries, wave1.faults) == (1, 1)
        assert wave1.stragglers == 0  # single completion: no baseline
        stragglers = analysis.stragglers
        assert [t.restart for t in stragglers] == [2]
        assert stragglers[0].is_straggler
        failed = [t for t in analysis.tasks if t.status == "failed"]
        assert failed[0].error == "Boom"

    def test_straggler_factor_configurable(self):
        records = [
            self._task(0, "completed", 0, 1.0),
            self._task(1, "completed", 0, 1.5),
            self._task(2, "completed", 0, 2.0),
        ]
        relaxed = analyze_records(records)  # default factor 2.0: 2.0 < 3.0
        assert relaxed.stragglers == []
        strict = analyze_records(records, straggler_factor=1.1)
        assert [t.restart for t in strict.stragglers] == [2]

    def test_dispatched_and_skipped_tasks_not_timeline_entries(self):
        records = [
            self._task(0, "dispatched", 0, 0.0),
            self._task(0, "completed", 0, 1.0),
            self._task(1, "skipped", 0, 0.0),
        ]
        analysis = analyze_records(records)
        assert [t.status for t in analysis.tasks] == ["completed"]

    def test_resources_collected_and_sorted(self):
        records = [
            {"type": "resource", "restart": 1, "attempt": 0,
             "max_rss_kb": 2000.0, "user_cpu_s": 0.5, "sys_cpu_s": 0.1},
            {"type": "resource", "restart": 0, "attempt": 1,
             "max_rss_kb": 1000.0, "user_cpu_s": 0.2, "sys_cpu_s": 0.05},
        ]
        analysis = analyze_records(records)
        assert [(r.restart, r.attempt) for r in analysis.resources] == [
            (0, 1), (1, 0),
        ]
        assert analysis.resources[0].max_rss_kb == 1000.0

    def test_per_process_stats_from_merged_trace(self):
        records = [
            {"type": "session_meta", "schema": 1, "session": "s",
             "processes": ["supervisor", "worker:00000:00"]},
            {"type": "task", "process": "supervisor", "status": "completed",
             "restart": 0, "wave": 0, "elapsed_s": 1.0},
            {"type": "seed", "process": "worker:00000:00", "cluster": 0},
        ]
        analysis = analyze_records(records)
        assert [p.name for p in analysis.processes] == [
            "supervisor", "worker:00000:00",
        ]
        supervisor, worker = analysis.processes
        assert supervisor.n_records == 1
        assert supervisor.event_counts == {"task": 1}
        assert worker.n_records == 1
        assert worker.event_counts == {"seed": 1}
        assert analysis.warnings == []

    def test_to_dict_exposes_timeline_sections(self):
        records = [
            self._task(0, "completed", 0, 1.0),
            self._task(1, "completed", 0, 1.0),
            self._task(2, "completed", 0, 5.0),
        ]
        payload = analyze_records(records).to_dict()
        assert payload["schema"] == 4
        assert [w["index"] for w in payload["waves"]] == [0]
        assert [t["restart"] for t in payload["stragglers"]] == [2]
        assert payload["tasks"][0]["status"] == "completed"
        assert payload["resources"] == []
        assert payload["processes"] == []

    def test_plain_single_process_trace_has_empty_timeline(self):
        records = [
            {"type": "seed", "cluster": 0},
            {"type": "iteration", "index": 0, "residue": 1.0,
             "total_volume": 10, "n_actions": 0, "improved": True,
             "elapsed_s": 0.1},
        ]
        analysis = analyze_records(records)
        assert analysis.tasks == []
        assert analysis.waves == []
        assert analysis.resources == []
