"""Sinks: ring buffer bounds, JSONL round-trip, console progress format,
and error paths (write-after-close, weird payloads, crash-truncated
traces)."""

import io
import json

import numpy as np
import pytest

from repro.obs import (
    ConsoleProgressSink,
    IterationEvent,
    JsonlSink,
    RingBufferSink,
    SeedEvent,
    Tracer,
    read_jsonl,
)
from repro.obs.sinks import _jsonable

pytestmark = pytest.mark.obs


class TestRingBuffer:
    def test_keeps_newest_records(self):
        sink = RingBufferSink(capacity=3)
        for index in range(5):
            sink.write({"type": "iteration", "index": index})
        assert len(sink) == 3
        assert [r["index"] for r in sink.records] == [2, 3, 4]

    def test_by_type_filters(self):
        sink = RingBufferSink()
        sink.write({"type": "seed"})
        sink.write({"type": "iteration"})
        assert len(sink.by_type("seed")) == 1
        sink.clear()
        assert sink.records == []

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestJsonl:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        tracer = Tracer(sinks=[sink])
        tracer.push_context(restart=0)
        tracer.emit(SeedEvent(cluster=0, n_rows=4, n_cols=3, residue=0.5,
                              volume=12))
        tracer.emit(IterationEvent(index=0, residue=1.25, total_volume=40,
                                   n_actions=7, improved=True,
                                   elapsed_s=0.01))
        tracer.close()
        records = read_jsonl(path)
        assert len(records) == 2
        assert records[0] == {
            "type": "seed", "cluster": 0, "origin": "phase1", "n_rows": 4,
            "n_cols": 3, "residue": 0.5, "volume": 12, "restart": 0,
        }
        assert records[1]["residue"] == 1.25
        assert records[1]["improved"] is True

    def test_numpy_payloads_serialize(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.write({"type": "x", "a": np.int64(3), "b": np.float64(1.5)})
        sink.close()
        [record] = read_jsonl(path)
        assert record == {"type": "x", "a": 3, "b": 1.5}

    def test_every_line_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        for index in range(20):
            sink.write({"type": "iteration", "index": index})
        sink.close()
        with path.open() as stream:
            lines = [line for line in stream if line.strip()]
        assert len(lines) == 20
        for line in lines:
            json.loads(line)

    def test_write_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ValueError):
            sink.write({"type": "x"})

    def test_read_jsonl_skips_mid_file_garbage_and_counts_it(self, tmp_path):
        # Regression: interior corruption (a fault-injected or damaged
        # record mid-file) must be skippable, not just the final line.
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n{"ok": 2}\n')
        skipped = []
        assert read_jsonl(path, skipped=skipped) == [{"ok": 1}, {"ok": 2}]
        assert skipped == [2]

    def test_read_jsonl_strict_raises_on_mid_file_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('not json\n{"ok": 1}\n')
        with pytest.raises(ValueError, match="invalid JSONL"):
            read_jsonl(path, strict=True)

    def test_read_jsonl_skips_truncated_final_line(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        path.write_text('{"ok": 1}\n{"ok": 2}\n{"type": "acti')
        skipped = []
        assert read_jsonl(path, skipped=skipped) == [{"ok": 1}, {"ok": 2}]
        assert skipped == [3]

    def test_read_jsonl_strict_raises_on_truncated_line(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        path.write_text('{"ok": 1}\n{"type": "acti')
        with pytest.raises(ValueError, match="invalid JSONL"):
            read_jsonl(path, strict=True)

    def test_read_jsonl_skip_list_optional(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('garbage\n{"ok": 1}\n')
        assert read_jsonl(path) == [{"ok": 1}]

    def test_read_jsonl_trailing_blank_lines_ok(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"ok": 1}\n\n\n')
        assert read_jsonl(path) == [{"ok": 1}]

    def test_flush_every_makes_trace_tailable(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path, flush_every=2)
        sink.write({"type": "a", "i": 0})
        sink.write({"type": "a", "i": 1})
        # Flushed after the 2nd record: both visible before close.
        assert len(read_jsonl(path)) == 2
        sink.write({"type": "a", "i": 2})
        sink.close()
        assert len(read_jsonl(path)) == 3

    def test_flush_every_validated(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            JsonlSink(tmp_path / "t.jsonl", flush_every=0)

    def test_external_stream_left_open(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.write({"type": "x"})
        sink.close()
        assert not buffer.closed
        assert json.loads(buffer.getvalue()) == {"type": "x"}

    def test_non_json_payloads_coerced(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        sink = JsonlSink(path)
        marker = object()
        sink.write({
            "type": "x",
            "raw": b"\xff\xfe",          # non-UTF-8-safe bytes
            "obj": marker,                # arbitrary object
            "arr": np.array([1.0, 2.0]),  # numpy array
        })
        sink.close()
        [record] = read_jsonl(path)
        assert record["arr"] == [1.0, 2.0]
        assert isinstance(record["raw"], str)
        assert "object object at" in record["obj"]


class TestJsonableHelper:
    def test_numpy_scalar(self):
        assert _jsonable(np.float32(1.5)) == 1.5

    def test_numpy_array(self):
        assert _jsonable(np.array([[1, 2]])) == [[1, 2]]

    def test_zero_dim_array(self):
        assert _jsonable(np.array(7)) == 7

    def test_fallback_is_str(self):
        value = _jsonable(object())
        assert isinstance(value, str)

    def test_bytes_stay_stringifiable(self):
        assert isinstance(_jsonable(b"\xff"), str)


class TestConsoleProgress:
    def test_prints_iterations_and_summary(self):
        stream = io.StringIO()
        sink = ConsoleProgressSink(stream=stream)
        sink.write({"type": "seed", "cluster": 0, "origin": "phase1",
                    "n_rows": 4, "n_cols": 3})
        sink.write({"type": "iteration", "index": 0, "residue": 2.5,
                    "total_volume": 60, "n_actions": 12, "improved": True,
                    "elapsed_s": 0.05})
        sink.close()
        output = stream.getvalue()
        assert "iter   0 [+] residue 2.5" in output
        assert "actions 12" in output
        assert "1 seeds, 12 actions total" in output

    def test_announces_restarts_and_reseeds(self):
        stream = io.StringIO()
        sink = ConsoleProgressSink(stream=stream)
        sink.write({"type": "iteration", "index": 0, "residue": 1.0,
                    "total_volume": 10, "n_actions": 1, "improved": False,
                    "elapsed_s": 0.0, "restart": 0})
        sink.write({"type": "seed", "cluster": 2, "origin": "reseed",
                    "n_rows": 5, "n_cols": 4, "restart": 1})
        output = stream.getvalue()
        assert "-- restart 0 --" in output
        assert "-- restart 1 --" in output
        assert "reseed cluster 2: 5x4" in output

    def test_actions_counted_not_printed(self):
        """The summary totals the sweeps' ``n_actions``; no action gets a
        line of its own (an older trace's ``action`` records print
        nothing)."""
        stream = io.StringIO()
        sink = ConsoleProgressSink(stream=stream)
        sink.write({"type": "action", "kind": "row", "index": 0})
        assert stream.getvalue() == ""
        for index in range(5):
            sink.write({"type": "iteration", "index": index, "residue": 1.0,
                        "total_volume": 10, "n_actions": 10,
                        "improved": True, "elapsed_s": 0.0})
        sink.close()
        assert stream.getvalue().count("\n") == 6
        assert "50 actions total" in stream.getvalue()


class TestConsoleProgressRuntime:
    """Supervised-runtime narration: waves, task lifecycle, retries."""

    def test_wave_banner_printed_on_context_change(self):
        stream = io.StringIO()
        sink = ConsoleProgressSink(stream=stream)
        sink.write({"type": "task", "status": "dispatched", "restart": 0,
                    "attempt": 0, "wave": 0})
        sink.write({"type": "task", "status": "completed", "restart": 0,
                    "attempt": 0, "elapsed_s": 1.25, "wave": 0})
        sink.write({"type": "task", "status": "dispatched", "restart": 1,
                    "attempt": 1, "wave": 1})
        output = stream.getvalue()
        assert output.count("-- wave 0 --") == 1
        assert output.count("-- wave 1 --") == 1

    def test_task_lifecycle_lines(self):
        stream = io.StringIO()
        sink = ConsoleProgressSink(stream=stream)
        sink.write({"type": "task", "status": "dispatched", "restart": 3,
                    "attempt": 0})
        sink.write({"type": "task", "status": "completed", "restart": 3,
                    "attempt": 0, "elapsed_s": 0.5})
        sink.write({"type": "task", "status": "failed", "restart": 4,
                    "attempt": 0, "error": "WorkerCrash"})
        sink.write({"type": "task", "status": "skipped", "restart": 5,
                    "attempt": 0})
        output = stream.getvalue()
        assert "task restart 3 dispatched (attempt 0)" in output
        assert "task restart 3 completed in 0.50s" in output
        assert "task restart 4 FAILED (attempt 0: WorkerCrash)" in output
        assert "task restart 5 skipped (already checkpointed)" in output

    def test_retry_and_fault_lines(self):
        stream = io.StringIO()
        sink = ConsoleProgressSink(stream=stream)
        sink.write({"type": "retry", "restart": 2, "attempt": 0,
                    "error": "TaskTimeout", "backoff_s": 0.125,
                    "remaining": 2})
        sink.write({"type": "fault", "site": "worker_start",
                    "kind": "kill", "restart": 2, "attempt": 1})
        output = stream.getvalue()
        assert ("retry restart 2 (attempt 0 failed: TaskTimeout; "
                "backoff 0.12s, 2 retr(ies) left)") in output
        assert ("fault injected at worker_start [kill] restart 2 "
                "attempt 1") in output

    def test_runtime_events_do_not_trigger_restart_banner(self):
        stream = io.StringIO()
        sink = ConsoleProgressSink(stream=stream)
        sink.write({"type": "task", "status": "dispatched", "restart": 7,
                    "attempt": 0})
        assert "-- restart 7 --" not in stream.getvalue()

    def test_close_summarizes_tasks_and_retries(self):
        stream = io.StringIO()
        sink = ConsoleProgressSink(stream=stream)
        sink.write({"type": "task", "status": "completed", "restart": 0,
                    "attempt": 0, "elapsed_s": 0.1})
        sink.write({"type": "retry", "restart": 1, "attempt": 0,
                    "error": "E", "backoff_s": 0.1, "remaining": 1})
        sink.close()
        assert ("0 seeds, 0 actions, 1 task(s) completed, "
                "1 retr(ies) total") in stream.getvalue()

    def test_supervised_run_narrates_end_to_end(self, tmp_path):
        from repro.core.matrix import DataMatrix
        from repro.obs import Tracer
        from repro.runtime import RunConfig, run_supervised

        rng = np.random.default_rng(13)
        values = rng.normal(size=(16, 8))
        values[:7, :5] += 3.5
        stream = io.StringIO()
        tracer = Tracer(sinks=[ConsoleProgressSink(stream=stream)])
        outcome = run_supervised(
            DataMatrix(values),
            RunConfig(residue_target=1.5, n_restarts=2, root_seed=5,
                      k=2, max_iterations=3, min_volume=9, workers=1,
                      max_retries=0),
            run_dir=tmp_path / "run", tracer=tracer,
        )
        tracer.close()
        assert outcome.ok
        output = stream.getvalue()
        assert "-- wave 0 --" in output
        assert "task restart 0 dispatched" in output
        assert "task restart 1 completed" in output
        assert "2 task(s) completed" in output


class TestWriteAfterClose:
    """Every sink has a defined post-close behaviour: the file-backed
    sink raises, purely in-memory sinks tolerate."""

    def test_ring_buffer_tolerates(self):
        sink = RingBufferSink()
        sink.close()
        sink.write({"type": "x"})
        assert len(sink) == 1

    def test_console_tolerates(self):
        stream = io.StringIO()
        sink = ConsoleProgressSink(stream=stream)
        sink.close()
        sink.write({"type": "seed"})

    def test_file_sink_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "a.jsonl")
        sink.close()
        with pytest.raises(ValueError):
            sink.write({"type": "x"})
