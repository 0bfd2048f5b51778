"""Tests for repro.obs.session: cross-process trace shards + merge.

A supervisor shard is a JSONL file under ``traces/``; a worker's shard
is the ``trace`` section of its restart's checkpoint record.
"""

import json

import numpy as np
import pytest

from repro.core.mining import run_restart
from repro.core.params import MiningParams
from repro.obs.events import IterationEvent, SeedEvent, TaskEvent
from repro.obs.session import (
    SESSION_TRACE_FILENAME,
    TRACE_SCHEMA,
    TRACES_DIRNAME,
    SessionTrace,
    TraceContext,
    collect_session,
    merge_session,
    session_id_for,
    worker_trace,
)
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runtime.checkpoint import record_digest


def _write_shard(path, meta, records):
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(meta)] + [json.dumps(r) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_restart(run_dir, restart, records):
    """A digest-checked restart record whose trace section holds
    ``records`` (a list of dicts, or a shard's JSONL text)."""
    if not isinstance(records, str):
        records = "".join(json.dumps(r) + "\n" for r in records)
    record = {"restart": restart, "trace": records}
    record["digest"] = record_digest(record)
    path = run_dir / "restarts" / f"restart-{restart:05d}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    return path


def _meta(process, anchor_local, anchor_session, session="abc123"):
    return {
        "type": "trace_meta",
        "schema": TRACE_SCHEMA,
        "session": session,
        "process": process,
        "clock_anchor_local": anchor_local,
        "clock_anchor_session": anchor_session,
    }


class TestSessionId:
    def test_deterministic(self, tmp_path):
        identity = {"root_seed": 5, "k": 2}
        a = session_id_for(identity, tmp_path)
        b = session_id_for({"k": 2, "root_seed": 5}, tmp_path)
        assert a == b
        assert len(a) == 16
        int(a, 16)  # hex

    def test_varies_with_identity_and_run_dir(self, tmp_path):
        base = session_id_for({"root_seed": 5}, tmp_path)
        assert session_id_for({"root_seed": 6}, tmp_path) != base
        assert session_id_for({"root_seed": 5}, tmp_path / "other") != base


class TestTraceContext:
    def test_round_trip(self):
        ctx = TraceContext(session="s", parent_span="task:3:0",
                           anchor_session=1.25)
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_missing_fields_default(self):
        ctx = TraceContext.from_dict({})
        assert ctx.session == ""
        assert ctx.anchor_session == 0.0

    @pytest.mark.parametrize("anchor", ["soon", None, True, [1.0]])
    def test_non_numeric_anchor_rejected(self, anchor):
        with pytest.raises(ValueError, match="anchor_session"):
            TraceContext.from_dict({"anchor_session": anchor})


class TestWorkerShard:
    def test_worker_trace_keeps_meta_first_in_memory(self, tmp_path):
        ctx = TraceContext(session="s1", parent_span="task:7:0",
                           anchor_session=0.5)
        tracer, stream = worker_trace(ctx, 7, 0)
        # The restart the worker runs adds its own ``restart`` key.
        values = np.random.default_rng(0).normal(size=(12, 6))
        result = run_restart(values, 7, MiningParams(residue_target=2.0, k=2,
                                                     reseed_rounds=0),
                             root_seed=1, tracer=tracer)
        shard = [json.loads(line) for line in stream.getvalue().splitlines()]
        meta = shard[0]
        assert meta["type"] == "trace_meta"
        assert meta["schema"] == TRACE_SCHEMA
        assert meta["session"] == "s1"
        assert meta["process"] == "worker:00007:00"
        assert meta["parent_span"] == "task:7:0"
        assert meta["clock_anchor_session"] == 0.5
        assert isinstance(meta["clock_anchor_local"], float)
        event = shard[1]
        assert event["type"] == "seed"
        # Stamped and contextualised for the merge.
        assert event["seq"] == 0
        assert isinstance(event["ts"], float)
        assert event["restart"] == 7
        assert event["attempt"] == 0
        residues = [r["residue"] for r in shard if r["type"] == "iteration"]
        assert residues == result.history
        # Nothing reaches the disk until the record is written.
        assert list(tmp_path.iterdir()) == []

    def test_accepts_context_dict(self):
        _tracer, stream = worker_trace(
            {"session": "s2", "parent_span": "task:0:0",
             "anchor_session": 0.0}, 0, 0)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["session"] == "s2"


class TestSessionTraceLifecycle:
    def test_attach_with_disabled_tracer_leaves_null_tracer_alone(
        self, tmp_path
    ):
        session = SessionTrace.create(tmp_path, {"root_seed": 1})
        tracer = session.attach(NULL_TRACER)
        try:
            assert tracer is not NULL_TRACER
            assert tracer.enabled
            assert tracer.stamp
            assert NULL_TRACER.sinks == []
            assert NULL_TRACER.stamp is False
            assert not NULL_TRACER.enabled
        finally:
            session.detach()

    def test_attach_detach_restores_enabled_tracer(self, tmp_path):
        ring = RingBufferSink()
        tracer = Tracer(sinks=[ring])
        session = SessionTrace.create(tmp_path, {"root_seed": 1})
        attached = session.attach(tracer)
        assert attached is tracer
        assert tracer.stamp
        assert len(tracer.sinks) == 2
        tracer.emit(TaskEvent(restart=0, status="dispatched"))
        session.detach()
        assert tracer.sinks == [ring]
        assert tracer.stamp is False
        # The shard received the event alongside the original sink.
        shard = tmp_path / TRACES_DIRNAME / "trace_supervisor.jsonl"
        types = [json.loads(line)["type"]
                 for line in shard.read_text().splitlines()]
        assert types == ["trace_meta", "task"]
        assert len(ring.records) == 1

    def test_supervisor_shard_generations(self, tmp_path):
        traces = tmp_path / TRACES_DIRNAME
        for expected_name, expected_process in (
            ("trace_supervisor.jsonl", "supervisor"),
            ("trace_supervisor_01.jsonl", "supervisor:01"),
            ("trace_supervisor_02.jsonl", "supervisor:02"),
        ):
            session = SessionTrace.create(tmp_path, {"root_seed": 1})
            session.attach(NULL_TRACER)
            session.detach()
            meta = json.loads(
                (traces / expected_name).read_text().splitlines()[0])
            assert meta["process"] == expected_process
        # "." sorts before "_", so generation order survives sorted glob.
        names = sorted(p.name for p in traces.glob("trace_supervisor*.jsonl"))
        assert names == ["trace_supervisor.jsonl",
                         "trace_supervisor_01.jsonl",
                         "trace_supervisor_02.jsonl"]

    def test_task_context_uses_session_time(self, tmp_path):
        session = SessionTrace.create(tmp_path, {"root_seed": 1})
        session.attach(NULL_TRACER)
        try:
            ctx = TraceContext.from_dict(session.task_context(3, 1))
            assert ctx.session == session.session_id
            assert ctx.parent_span == "task:3:1"
            assert 0.0 <= ctx.anchor_session < 60.0
        finally:
            session.detach()


class TestCollectSession:
    def test_clock_alignment_across_processes(self, tmp_path):
        traces = tmp_path / TRACES_DIRNAME
        # Supervisor clock reads 100.0 at session time 0.
        _write_shard(
            traces / "trace_supervisor.jsonl",
            _meta("supervisor", 100.0, 0.0),
            [{"type": "task", "status": "dispatched", "ts": 100.5, "seq": 0}],
        )
        # Worker clock reads 50.0 when the session clock reads 0.2.
        _write_restart(tmp_path, 0, [
            _meta("worker:00000:00", 50.0, 0.2),
            {"type": "seed", "ts": 50.1, "seq": 0},
        ])
        meta, records = collect_session(tmp_path)
        assert meta["session"] == "abc123"
        assert meta["processes"] == ["supervisor", "worker:00000:00"]
        assert meta["n_records"] == 2
        assert meta["skipped_shards"] == []
        assert meta["corrupt_lines"] == {}
        # Worker event at session time 0.3 sorts before supervisor 0.5.
        assert [r["type"] for r in records] == ["seed", "task"]
        assert records[0]["ts"] == pytest.approx(0.3)
        assert records[0]["process"] == "worker:00000:00"
        assert records[1]["ts"] == pytest.approx(0.5)

    def test_ties_broken_by_process_then_seq(self, tmp_path):
        traces = tmp_path / TRACES_DIRNAME
        _write_shard(
            traces / "trace_supervisor.jsonl",
            _meta("supervisor", 0.0, 0.0),
            [{"type": "task", "ts": 1.0, "seq": 1},
             {"type": "task", "ts": 1.0, "seq": 0}],
        )
        _write_restart(tmp_path, 0, [
            _meta("worker:00000:00", 0.0, 0.0),
            {"type": "seed", "ts": 1.0, "seq": 0},
        ])
        _, records = collect_session(tmp_path)
        assert [(r["process"], r["seq"]) for r in records] == [
            ("supervisor", 0), ("supervisor", 1), ("worker:00000:00", 0),
        ]

    def test_unstamped_record_falls_back_to_anchor(self, tmp_path):
        _write_restart(tmp_path, 0, [
            _meta("worker:00000:00", 10.0, 0.75),
            {"type": "seed"},
        ])
        _, records = collect_session(tmp_path)
        assert records[0]["ts"] == pytest.approx(0.75)
        assert records[0]["seq"] == 0

    def test_metaless_shard_skipped_not_fatal(self, tmp_path):
        traces = tmp_path / TRACES_DIRNAME
        _write_shard(
            traces / "trace_supervisor.jsonl",
            _meta("supervisor", 0.0, 0.0),
            [{"type": "task", "ts": 1.0, "seq": 0}],
        )
        bad = traces / "trace_supervisor_01.jsonl"
        bad.write_text('{"type": "task", "ts": 2.0}\n', encoding="utf-8")
        meta, records = collect_session(tmp_path)
        assert meta["skipped_shards"] == ["trace_supervisor_01.jsonl"]
        assert meta["processes"] == ["supervisor"]
        assert [r["ts"] for r in records] == [1.0]

    def test_truncated_final_line_skipped_and_reported(self, tmp_path):
        traces = tmp_path / TRACES_DIRNAME
        shard = traces / "trace_supervisor.jsonl"
        _write_shard(
            shard,
            _meta("supervisor", 0.0, 0.0),
            [{"type": "task", "ts": 1.0, "seq": 0}],
        )
        # Simulate a supervisor killed mid-write: partial trailing line.
        with shard.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "ta')
        meta, records = collect_session(tmp_path)
        assert meta["corrupt_lines"] == {"trace_supervisor.jsonl": [3]}
        assert [r["type"] for r in records] == ["task"]

    def test_record_failing_digest_contributes_nothing(self, tmp_path):
        _write_restart(tmp_path, 0, [
            _meta("worker:00000:00", 0.0, 0.0),
            {"type": "seed", "ts": 1.0, "seq": 0},
        ])
        bad = _write_restart(tmp_path, 1, [
            _meta("worker:00001:00", 0.0, 0.0),
            {"type": "seed", "ts": 2.0, "seq": 0},
        ])
        # Damage the trace section, not the JSON: the digest catches it.
        bad.write_text(bad.read_text().replace("2.0", "3.0"))
        meta, records = collect_session(tmp_path)
        assert meta["skipped_shards"] == ["restarts/restart-00001.json"]
        assert meta["processes"] == ["worker:00000:00"]
        assert [r["process"] for r in records] == ["worker:00000:00"]

    def test_untraced_record_contributes_nothing(self, tmp_path):
        record = {"restart": 0}
        record["digest"] = record_digest(record)
        (tmp_path / "restarts").mkdir()
        (tmp_path / "restarts" / "restart-00000.json").write_text(
            json.dumps(record))
        meta, records = collect_session(tmp_path)
        assert records == []
        assert meta["skipped_shards"] == []

    def test_empty_traces_dir(self, tmp_path):
        (tmp_path / TRACES_DIRNAME).mkdir()
        meta, records = collect_session(tmp_path)
        assert records == []
        assert meta["processes"] == []
        assert meta["n_records"] == 0


class TestMergeSession:
    def _populate(self, tmp_path):
        traces = tmp_path / TRACES_DIRNAME
        _write_shard(
            traces / "trace_supervisor.jsonl",
            _meta("supervisor", 100.0, 0.0),
            [{"type": "task", "status": "dispatched", "ts": 100.1, "seq": 0},
             {"type": "task", "status": "completed", "ts": 100.9, "seq": 1}],
        )
        _write_restart(tmp_path, 0, [
            _meta("worker:00000:00", 7.0, 0.15),
            {"type": "seed", "ts": 7.05, "seq": 0},
            {"type": "iteration", "ts": 7.5, "seq": 1},
        ])

    def test_merge_layout_and_determinism(self, tmp_path):
        self._populate(tmp_path)
        out_a = merge_session(tmp_path, tmp_path / "a.jsonl")
        out_b = merge_session(tmp_path, tmp_path / "b.jsonl")
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        head = json.loads(lines[0])
        assert head["type"] == "session_meta"
        assert head["n_records"] == 4
        types = [json.loads(line)["type"] for line in lines[1:]]
        assert types == ["task", "seed", "iteration", "task"]
        # Sorted keys on every line.
        for line in lines:
            payload = json.loads(line)
            assert line == json.dumps(payload, sort_keys=True)

    def test_default_output_path(self, tmp_path):
        self._populate(tmp_path)
        out = merge_session(tmp_path)
        assert out == tmp_path / TRACES_DIRNAME / SESSION_TRACE_FILENAME
        assert out.is_file()

    def test_end_to_end_in_process(self, tmp_path):
        """Supervisor + simulated worker tracers merge into one session."""
        session = SessionTrace.create(tmp_path, {"root_seed": 9})
        tracer = session.attach(NULL_TRACER)
        tracer.emit(TaskEvent(restart=0, status="dispatched"))
        ctx = session.task_context(0, 0)
        worker, stream = worker_trace(ctx, 0, 0)
        worker.emit(SeedEvent(cluster=0))
        worker.emit(IterationEvent(index=0, residue=1.0))
        _write_restart(tmp_path, 0, stream.getvalue())
        tracer.emit(TaskEvent(restart=0, status="completed"))
        session.detach()
        out = session.merge()
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[0]["session"] == session.session_id
        assert lines[0]["processes"] == ["supervisor", "worker:00000:00"]
        assert lines[0]["skipped_shards"] == []
        types = [line["type"] for line in lines[1:]]
        assert sorted(types) == ["iteration", "seed", "task", "task"]
        # Session time starts at attach: every aligned ts is sane.
        for line in lines[1:]:
            assert 0.0 <= line["ts"] < 60.0
