"""Session tracing across the supervised runtime (PR 10 tentpole).

Real process pools, real records: these tests drive ``run_supervised``
with ``session_trace=True`` and check the cross-process contract -- the
supervisor writes a shard, every restart record carries its worker's
trace section, the collector merges them byte-deterministically, a
killed attempt leaves none of its sweeps, and tracing never perturbs
the mined result.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.matrix import DataMatrix
from repro.obs import RingBufferSink, Tracer
from repro.obs.analysis import analyze_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.session import TRACES_DIRNAME, merge_session
from repro.runtime import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    RunConfig,
    resume_run,
    run_supervised,
)

pytestmark = pytest.mark.runtime


@pytest.fixture
def matrix():
    rng = np.random.default_rng(21)
    values = rng.normal(size=(16, 8))
    values[:7, :5] += 3.5
    return DataMatrix(values)


def make_config(**overrides):
    base = dict(residue_target=1.5, n_restarts=3, root_seed=5, k=2,
                max_iterations=4, min_volume=9, workers=2, max_retries=2)
    base.update(overrides)
    return RunConfig(**base)


def serialized(result):
    payload = {
        "clustering": [[list(c.rows), list(c.cols)]
                       for c in result.clustering],
        "histories": [run.history for run in result.runs],
        "initial_residues": [run.initial_residue for run in result.runs],
    }
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(autouse=True)
def _no_fault_plan(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)


def merged_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def restart_record(run_dir, restart):
    path = run_dir / "restarts" / f"restart-{restart:05d}.json"
    return json.loads(path.read_text())


def sweep_records(lines, restart):
    return [line for line in lines
            if line["type"] in ("seed", "iteration", "resource")
            and line["restart"] == restart]


class TestSessionTraceHappyPath:
    def test_shards_and_merged_trace_written(self, matrix, tmp_path):
        out = run_supervised(matrix, make_config(),
                             run_dir=tmp_path / "run", session_trace=True)
        assert out.ok
        traces = out.run_dir / TRACES_DIRNAME
        assert sorted(p.name for p in traces.iterdir()) == [
            "trace_session.jsonl", "trace_supervisor.jsonl",
        ]
        for restart in range(3):
            trace = restart_record(out.run_dir, restart)["trace"]
            meta = json.loads(trace.splitlines()[0])
            assert meta["type"] == "trace_meta"
            assert meta["process"] == f"worker:{restart:05d}:00"
        assert out.session_trace is not None and out.session_trace.is_file()

        lines = merged_lines(out.session_trace)
        head = lines[0]
        assert head["type"] == "session_meta"
        assert head["skipped_shards"] == []
        assert head["processes"] == [
            "supervisor",
            "worker:00000:00", "worker:00001:00", "worker:00002:00",
        ]
        types = {line["type"] for line in lines[1:]}
        assert {"task", "seed", "iteration", "resource"} <= types
        assert "action" not in types
        # Total session order: aligned timestamps are non-decreasing.
        stamps = [line["ts"] for line in lines[1:]]
        assert stamps == sorted(stamps)

    def test_merge_is_byte_deterministic(self, matrix, tmp_path):
        out = run_supervised(matrix, make_config(),
                             run_dir=tmp_path / "run", session_trace=True)
        again = merge_session(out.run_dir, tmp_path / "again.jsonl")
        assert again.read_bytes() == out.session_trace.read_bytes()

    def test_untraced_run_writes_no_shards(self, matrix, tmp_path):
        out = run_supervised(matrix, make_config(), run_dir=tmp_path / "run")
        assert out.ok
        assert out.session_trace is None
        assert not (out.run_dir / TRACES_DIRNAME).exists()
        # An untraced record carries no trace section.
        assert sorted(restart_record(out.run_dir, 0)) == [
            "clusters", "converged", "digest", "elapsed_seconds",
            "history", "initial_residue", "iteration_times", "n_actions",
            "n_iterations", "restart", "schema", "telemetry", "work",
        ]

    def test_traced_result_bit_identical_to_untraced(self, matrix, tmp_path):
        plain = run_supervised(matrix, make_config(),
                               run_dir=tmp_path / "plain")
        traced = run_supervised(matrix, make_config(),
                                run_dir=tmp_path / "traced",
                                session_trace=True)
        assert serialized(traced.result) == serialized(plain.result)

    def test_merged_trace_analyzes_as_multiprocess(
        self, matrix, tmp_path, capsys
    ):
        out = run_supervised(matrix, make_config(),
                             run_dir=tmp_path / "run", session_trace=True)
        analysis = analyze_trace(out.session_trace)
        assert analysis.warnings == []
        assert [t.restart for t in analysis.tasks] == [0, 1, 2]
        assert len(analysis.waves) >= 1
        assert [r.restart for r in analysis.resources] == [0, 1, 2]
        names = [p.name for p in analysis.processes]
        assert "supervisor" in names
        assert "worker:00000:00" in names
        # Only restarts' seed and sweep records open a session: the
        # supervisor's task and session_meta records add no empty one.
        keys = [session.key for session in analysis.sessions]
        assert [key["restart"] for key in keys] == [0, 1, 2]
        assert all(session.sweeps for session in analysis.sessions)
        assert main(["analyze-trace", str(out.session_trace)]) == 0
        text = capsys.readouterr().out
        assert "session [-]" not in text
        assert "session [attempt=0 restart=0]" in text


class TestTelemetry:
    def test_rusage_lands_in_records_metrics_and_trace(
        self, matrix, tmp_path
    ):
        pytest.importorskip("resource")
        ring = RingBufferSink(4096)
        metrics = MetricsRegistry()
        tracer = Tracer(sinks=[ring], metrics=metrics)
        out = run_supervised(matrix, make_config(),
                             run_dir=tmp_path / "run", tracer=tracer,
                             session_trace=True)
        assert out.ok
        # Durable record carries telemetry (digest-exempt).
        record = json.loads(
            (out.run_dir / "restarts" / "restart-00000.json").read_text())
        telemetry = record["telemetry"]
        assert telemetry["max_rss_kb"] > 0
        assert telemetry["user_cpu_s"] >= 0
        # Surfaced as runtime.task.* metrics on the supervisor side.
        snapshot = metrics.snapshot()
        histograms = set(snapshot["histograms"])
        assert {"runtime.task.max_rss_kb", "runtime.task.user_cpu_s",
                "runtime.task.sys_cpu_s"} <= histograms
        # And as resource events in the merged session trace.
        resources = [line for line in merged_lines(out.session_trace)
                     if line["type"] == "resource"]
        assert sorted(r["restart"] for r in resources) == [0, 1, 2]

    def test_telemetry_does_not_break_resume_verification(
        self, matrix, tmp_path
    ):
        first = run_supervised(matrix, make_config(),
                               run_dir=tmp_path / "run", session_trace=True)
        assert first.ok
        # Every record re-verifies on resume: all restarts skip.
        resumed = resume_run(matrix, tmp_path / "run")
        assert resumed.ok
        assert resumed.executed == []
        assert set(resumed.skipped) == {0, 1, 2}
        assert serialized(resumed.result) == serialized(first.result)


class TestFaultTolerance:
    def test_kill_at_checkpoint_keeps_only_the_retrys_sweeps(
        self, matrix, tmp_path, monkeypatch
    ):
        plan = FaultPlan((
            FaultSpec(site="checkpoint", kind="kill", restart=1),
        ))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        out = run_supervised(matrix, make_config(),
                             run_dir=tmp_path / "run", session_trace=True,
                             sleep=lambda _s: None)
        assert out.ok  # retry budget absorbs the kill
        lines = merged_lines(out.session_trace)
        head = lines[0]
        assert head["skipped_shards"] == []
        assert "worker:00001:00" not in head["processes"]
        assert "worker:00001:01" in head["processes"]
        # The retry's sweeps, each once; the killed attempt left none.
        sweeps = sweep_records(lines, 1)
        assert {line["attempt"] for line in sweeps} == {1}
        iterations = [line for line in sweeps if line["type"] == "iteration"]
        assert [line["index"] for line in iterations] == list(
            range(len(out.result.runs[1].history)))
        assert [line["residue"] for line in iterations] == \
            out.result.runs[1].history
        assert [line["type"] for line in sweeps].count("resource") == 1
        # export-trace over the run directory is the same merge.
        exported = tmp_path / "exported.jsonl"
        assert main(["export-trace", str(out.run_dir), "--format", "jsonl",
                     "--out", str(exported)]) == 0
        assert exported.read_bytes() == out.session_trace.read_bytes()

    def test_corrupt_record_contributes_no_records(
        self, matrix, tmp_path, monkeypatch, capsys
    ):
        plan = FaultPlan((
            FaultSpec(site="checkpoint", kind="corrupt", restart=1),
        ))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        out = run_supervised(matrix, make_config(max_retries=0),
                             run_dir=tmp_path / "run", session_trace=True)
        assert out.degradation is not None
        assert out.degradation.missing == [1]
        lines = merged_lines(out.session_trace)
        head = lines[0]
        assert head["skipped_shards"] == ["restarts/restart-00001.json"]
        assert head["processes"] == [
            "supervisor", "worker:00000:00", "worker:00002:00",
        ]
        assert sweep_records(lines, 1) == []
        assert sweep_records(lines, 0) and sweep_records(lines, 2)
        # export-trace names the damaged record and still merges.
        exported = tmp_path / "exported.jsonl"
        assert main(["export-trace", str(out.run_dir), "--format", "jsonl",
                     "--out", str(exported)]) == 0
        assert ("warning: 1 damaged shard(s) skipped: "
                "restarts/restart-00001.json") in capsys.readouterr().err
        assert exported.read_bytes() == out.session_trace.read_bytes()

    def test_faulted_run_trace_is_deterministic_to_remerge(
        self, matrix, tmp_path, monkeypatch
    ):
        plan = FaultPlan((
            FaultSpec(site="worker_start", kind="error", restart=2),
        ))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        out = run_supervised(matrix, make_config(),
                             run_dir=tmp_path / "run", session_trace=True,
                             sleep=lambda _s: None)
        assert out.ok
        again = merge_session(out.run_dir, tmp_path / "again.jsonl")
        assert again.read_bytes() == out.session_trace.read_bytes()
        types = [line["type"] for line in merged_lines(out.session_trace)]
        assert "retry" in types
        assert "fault" in types


class TestResumeGenerations:
    def test_resume_joins_session_with_new_supervisor_shard(
        self, matrix, tmp_path, monkeypatch
    ):
        plan = FaultPlan((
            FaultSpec(site="worker_start", kind="kill", restart=2,
                      attempts=10),
        ))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        crashed = run_supervised(matrix, make_config(max_retries=0),
                                 run_dir=tmp_path / "run",
                                 session_trace=True)
        assert not crashed.ok

        monkeypatch.delenv(FAULT_PLAN_ENV)
        resumed = resume_run(matrix, tmp_path / "run", session_trace=True)
        assert resumed.ok
        traces = tmp_path / "run" / TRACES_DIRNAME
        assert (traces / "trace_supervisor.jsonl").is_file()
        assert (traces / "trace_supervisor_01.jsonl").is_file()
        head = merged_lines(resumed.session_trace)[0]
        assert "supervisor" in head["processes"]
        assert "supervisor:01" in head["processes"]
        # Both generations share the deterministic session id.
        metas = [
            json.loads(path.read_text().splitlines()[0])["session"]
            for path in sorted(traces.glob("trace_supervisor*.jsonl"))
        ]
        assert len(set(metas)) == 1
