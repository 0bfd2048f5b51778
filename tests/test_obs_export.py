"""Tests for repro.obs.export: Chrome trace-event and OTLP renderings."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.obs.export import (
    _any_value,
    chrome_trace,
    export_chrome,
    export_otlp,
    otlp_logs,
)

pytestmark = pytest.mark.obs

GOLDEN_DIR = Path(__file__).parent / "data"

#: A hand-written merged session trace (collect_session output shape):
#: one supervised restart with a seed, one action, one sweep, and worker
#: resource telemetry.
SESSION_RECORDS = [
    {"type": "session_meta", "schema": 1, "session": "feedc0de00000000",
     "processes": ["supervisor", "worker:00000:00"], "n_records": 6,
     "skipped_shards": [], "corrupt_lines": {}},
    {"process": "supervisor", "seq": 0, "ts": 0.0, "type": "task",
     "restart": 0, "attempt": 0, "status": "dispatched", "wave": 0},
    {"process": "worker:00000:00", "seq": 0, "ts": 0.01, "type": "seed",
     "cluster": 0, "origin": "phase1", "restart": 0, "attempt": 0},
    {"process": "worker:00000:00", "seq": 1, "ts": 0.02, "type": "action",
     "kind": "row", "index": 3, "cluster": 0, "is_removal": False,
     "gain": 1.5, "restart": 0, "attempt": 0},
    {"process": "worker:00000:00", "seq": 2, "ts": 0.05, "type": "iteration",
     "index": 0, "residue": 1.25, "total_volume": 42, "n_actions": 3,
     "improved": True, "elapsed_s": 0.04, "restart": 0, "attempt": 0},
    {"process": "worker:00000:00", "seq": 3, "ts": 0.06, "type": "resource",
     "restart": 0, "attempt": 0, "max_rss_kb": 1000.0, "user_cpu_s": 0.01,
     "sys_cpu_s": 0.002},
    {"process": "supervisor", "seq": 1, "ts": 0.08, "type": "task",
     "restart": 0, "attempt": 0, "status": "completed", "elapsed_s": 0.08,
     "wave": 0},
]


def _events(doc, ph=None, cat=None):
    out = [e for e in doc["traceEvents"] if ph is None or e["ph"] == ph]
    if cat is not None:
        out = [e for e in out if e.get("cat") == cat]
    return out


class TestChromeTrace:
    def test_document_schema(self):
        doc = chrome_trace(SESSION_RECORDS)
        assert sorted(doc.keys()) == [
            "displayTimeUnit", "otherData", "traceEvents",
        ]
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {
            "session": "feedc0de00000000",
            "n_records": len(SESSION_RECORDS),
            "n_actions_skipped": 1,
            "n_unstamped_skipped": 0,
        }
        for event in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(event.keys())
            if event["ph"] != "M":
                assert event["ts"] >= 0.0

    def test_process_and_thread_metadata(self):
        doc = chrome_trace(SESSION_RECORDS)
        meta = _events(doc, ph="M")
        names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in meta if e["name"] in ("process_name", "thread_name")
        }
        assert names[(1, 0)] == "supervisor"
        assert names[(2, 0)] == "worker:00000:00"
        assert names[(1, 1)] == "waves"
        assert names[(1, 2)] == "tasks"
        assert names[(2, 1)] == "sweeps"
        assert names[(2, 2)] == "events"
        sort_keys = {
            e["pid"]: e["args"]["sort_index"]
            for e in meta if e["name"] == "process_sort_index"
        }
        assert sort_keys == {1: 0, 2: 2}  # supervisor pinned on top

    def test_task_pairs_dispatch_with_completion(self):
        doc = chrome_trace(SESSION_RECORDS)
        (task,) = _events(doc, ph="X", cat="task")
        assert task["name"] == "restart 0"
        assert task["ts"] == 0.0
        assert task["dur"] == 80000.0  # 0.08 s in microseconds
        assert task["args"]["status"] == "completed"

    def test_wave_extent_event(self):
        doc = chrome_trace(SESSION_RECORDS)
        (wave,) = _events(doc, ph="X", cat="wave")
        assert wave["name"] == "wave 0"
        assert wave["pid"] == 1
        assert wave["ts"] == 0.0
        assert wave["dur"] == 80000.0

    def test_iteration_becomes_sweep_slice(self):
        doc = chrome_trace(SESSION_RECORDS)
        (sweep,) = _events(doc, ph="X", cat="sweep")
        assert sweep["name"] == "iter 0"
        assert sweep["ts"] == 10000.0  # starts elapsed_s before its stamp
        assert sweep["dur"] == 40000.0
        assert sweep["args"]["residue"] == 1.25

    def test_instants_carry_scope(self):
        doc = chrome_trace(SESSION_RECORDS)
        instants = _events(doc, ph="i")
        assert {e["cat"] for e in instants} == {"seed", "resource"}
        for event in instants:
            assert event["s"] == "t"
            assert "type" not in event["args"]

    def test_actions_skipped_not_rendered(self):
        doc = chrome_trace(SESSION_RECORDS)
        assert not any(e.get("cat") == "action" for e in doc["traceEvents"])
        assert doc["otherData"]["n_actions_skipped"] == 1

    def test_timestamps_monotonic_in_event_order(self):
        doc = chrome_trace(SESSION_RECORDS)
        stamped = [e["ts"] for e in doc["traceEvents"] if e["ph"] != "M"]
        assert stamped == sorted(stamped)

    def test_unstamped_records_counted(self):
        records = SESSION_RECORDS + [{"type": "seed", "cluster": 1}]
        doc = chrome_trace(records)
        assert doc["otherData"]["n_unstamped_skipped"] == 1

    def test_single_process_trace_degrades_to_main_track(self):
        records = [
            {"type": "seed", "cluster": 0, "ts": 1.0},
            {"type": "iteration", "index": 0, "residue": 2.0,
             "elapsed_s": 0.5, "ts": 2.0},
        ]
        doc = chrome_trace(records)
        meta = _events(doc, ph="M")
        process_names = [
            e["args"]["name"] for e in meta if e["name"] == "process_name"
        ]
        assert process_names == ["main"]

    def test_empty_input(self):
        doc = chrome_trace([])
        assert doc["traceEvents"] == []
        assert doc["otherData"]["n_records"] == 0

    def test_deterministic(self):
        assert chrome_trace(SESSION_RECORDS) == chrome_trace(SESSION_RECORDS)


class TestOtlpJson:
    def test_payload_structure(self):
        payload = otlp_logs([{"type": "iteration", "index": 2,
                              "residue": 1.5, "improved": True}])
        [resource_logs] = payload["resourceLogs"]
        assert resource_logs["resource"]["attributes"] == [
            {"key": "service.name", "value": {"stringValue": "repro-floc"}},
        ]
        [scope_logs] = resource_logs["scopeLogs"]
        assert scope_logs["scope"] == {"name": "repro.obs"}
        [record] = scope_logs["logRecords"]
        assert record["body"] == {"stringValue": "iteration"}
        attrs = {a["key"]: a["value"] for a in record["attributes"]}
        assert attrs["index"] == {"intValue": "2"}
        assert attrs["residue"] == {"doubleValue": 1.5}
        assert attrs["improved"] == {"boolValue": True}

    def test_any_value_encoding(self):
        enc = _any_value
        assert enc(True) == {"boolValue": True}          # bool before int
        assert enc(7) == {"intValue": "7"}
        assert enc(1.5) == {"doubleValue": 1.5}
        assert enc("x") == {"stringValue": "x"}
        assert enc(np.float64(2.0)) == {"doubleValue": 2.0}  # float subclass
        assert enc(np.int64(3)) == {"stringValue": "3"}      # via _jsonable

        class Flag(int):
            pass

        class Name(str):
            pass

        values = [True, False, 17, 2 ** 70, -0.0, float("inf"), "row",
                  np.float64(1.25), np.int64(4), np.bool_(True), Flag(5),
                  Name("n"), None, (2, 3)]
        # Golden bytes over exact types, subclasses and the fallback.
        assert json.dumps([enc(v) for v in values]) == (
            '[{"boolValue": true}, {"boolValue": false}, '
            '{"intValue": "17"}, {"intValue": "1180591620717411303424"}, '
            '{"doubleValue": -0.0}, {"doubleValue": Infinity}, '
            '{"stringValue": "row"}, {"doubleValue": 1.25}, '
            '{"stringValue": "4"}, {"stringValue": "True"}, '
            '{"intValue": "5"}, {"stringValue": "n"}, '
            '{"stringValue": "None"}, {"stringValue": "(2, 3)"}]'
        )


class TestExportFiles:
    def test_export_chrome_byte_deterministic(self, tmp_path):
        a = export_chrome(SESSION_RECORDS, tmp_path / "a.json")
        b = export_chrome(SESSION_RECORDS, tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["otherData"]["session"] == "feedc0de00000000"

    def test_export_otlp_matches_golden(self, tmp_path):
        """OTLP/JSON LogsData rendering is pinned by a golden file.

        Regenerate (after reviewing the diff) with::

            PYTHONPATH=src python - <<'PY'
            from tests.test_obs_export import SESSION_RECORDS
            from repro.obs.export import export_otlp
            export_otlp(SESSION_RECORDS, "tests/data/otlp_logs_golden.json")
            PY
        """
        out = export_otlp(SESSION_RECORDS, tmp_path / "logs.json")
        golden = GOLDEN_DIR / "otlp_logs_golden.json"
        assert out.read_text() == golden.read_text()
        payload = json.loads(out.read_text())
        (resource_logs,) = payload["resourceLogs"]
        assert resource_logs["resource"]["attributes"] == [
            {"key": "service.name", "value": {"stringValue": "repro-floc"}},
        ]
        (scope_logs,) = resource_logs["scopeLogs"]
        # Meta records are skipped: 6 real records remain.
        assert len(scope_logs["logRecords"]) == 6
        bodies = [r["body"]["stringValue"] for r in scope_logs["logRecords"]]
        assert bodies == [
            "task", "seed", "action", "iteration", "resource", "task",
        ]
