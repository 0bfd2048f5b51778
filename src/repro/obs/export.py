"""Render merged session traces for external trace viewers.

Two targets:

* :func:`chrome_trace` / :func:`export_chrome` -- the Chrome
  trace-event JSON format (the ``traceEvents`` array of ``ph``-typed
  events), loadable in Perfetto (https://ui.perfetto.dev) and
  ``chrome://tracing``.  Processes become tracks, with waves and tasks
  on the supervisor track and per-restart sweeps nested under each
  worker track.
* :func:`otlp_logs` / :func:`export_otlp` -- one OpenTelemetry
  OTLP/JSON ``LogsData`` document (one ``logRecord`` per record) for
  OTel collectors with a JSON file receiver; no OTel SDK needed.

Everything here is a pure function of the input records -- no wall
clock, no randomness -- so exporting the same merged trace twice is
byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple, Union

from .events import _as_float, _is_number
from .sinks import _jsonable

__all__ = ["chrome_trace", "export_chrome", "export_otlp", "otlp_logs"]

#: Record types that never become trace events.
_SKIP_TYPES = ("trace_meta", "session_meta")

#: Thread ids within a process track (Chrome nests by pid then tid).
_TID_WAVES = 1
_TID_TASKS = 2
_TID_SWEEPS = 1
_TID_EVENTS = 2
_TID_META = 3

#: OTLP resource ``service.name`` and instrumentation scope name.
_OTLP_SERVICE_NAME = "repro-floc"
_OTLP_SCOPE = "repro.obs"


def _is_supervisor(process: str) -> bool:
    return process == "main" or process.startswith("supervisor")


def chrome_trace(records: List[Dict[str, object]]) -> Dict[str, object]:
    """Chrome trace-event JSON document for a list of trace records.

    Works on merged session traces (records carry ``process``/``ts``
    from :func:`~repro.obs.session.collect_session`) and degrades
    gracefully on single-process traces (everything lands on one
    ``main`` track; unstamped records are counted, not rendered).

    Timestamps are microseconds relative to the earliest stamped record
    (Chrome's ``ts`` unit); durations come from each record's
    ``elapsed_s``.  Per-action records are deliberately skipped (a run
    emits thousands; they would swamp the viewer) and accounted for in
    ``otherData``.
    """
    pids: Dict[str, int] = {}
    events: List[Dict[str, object]] = []
    dispatch_ts: Dict[Tuple[object, object], float] = {}
    wave_extent: Dict[int, List[float]] = {}
    wave_pid = 0
    n_actions = 0
    n_unstamped = 0
    session = ""

    stamped = [
        r
        for r in records
        if r.get("type") not in _SKIP_TYPES and _is_number(r.get("ts"))
    ]
    t0 = min((_as_float(r.get("ts")) for r in stamped), default=0.0)

    def us(ts: float) -> float:
        return round((ts - t0) * 1e6, 3)

    def pid_for(record: Dict[str, object]) -> int:
        name = str(record.get("process", "main"))
        if name not in pids:
            pids[name] = len(pids) + 1
        return pids[name]

    for record in records:
        kind = record.get("type")
        if kind in _SKIP_TYPES:
            if kind == "session_meta" and not session:
                session = str(record.get("session", ""))
            continue
        if kind == "action":
            n_actions += 1
            continue
        if not _is_number(record.get("ts")):
            n_unstamped += 1
            continue
        ts = _as_float(record.get("ts"))
        pid = pid_for(record)
        process = str(record.get("process", "main"))
        supervisor = _is_supervisor(process)
        if supervisor:
            wave_pid = pid
        wave = record.get("wave")
        if supervisor and isinstance(wave, int) and not isinstance(wave, bool):
            extent = wave_extent.setdefault(wave, [ts, ts])
            extent[0] = min(extent[0], ts)
            extent[1] = max(extent[1], ts)
        if kind == "task":
            _append_task(events, record, ts, pid, dispatch_ts, us)
        elif kind == "iteration":
            elapsed = _as_float(record.get("elapsed_s"))
            events.append({
                "name": f"iter {record.get('index', '?')}",
                "cat": "sweep",
                "ph": "X",
                "ts": us(ts - elapsed),
                "dur": round(max(elapsed, 0.0) * 1e6, 3),
                "pid": pid,
                "tid": _TID_SWEEPS,
                "args": {
                    "residue": record.get("residue"),
                    "total_volume": record.get("total_volume"),
                    "n_actions": record.get("n_actions"),
                    "improved": record.get("improved"),
                },
            })
        elif kind == "span":
            elapsed = _as_float(record.get("elapsed_s"))
            events.append({
                "name": str(record.get("name", "span")),
                "cat": "span",
                "ph": "X",
                "ts": us(ts - elapsed),
                "dur": round(max(elapsed, 0.0) * 1e6, 3),
                "pid": pid,
                "tid": _TID_SWEEPS if not supervisor else _TID_TASKS,
                "args": {},
            })
        else:
            name = {
                "seed": f"seed c{record.get('cluster', '?')}",
                "resource": "resource",
                "retry": f"retry r{record.get('restart', '?')}",
                "fault": (
                    f"fault {record.get('site', '?')}"
                    f"/{record.get('kind', '?')}"
                ),
            }.get(str(kind), str(kind))
            args = {
                key: value
                for key, value in record.items()
                if key not in ("type", "ts", "seq", "process")
            }
            events.append({
                "name": name,
                "cat": str(kind),
                "ph": "i",
                "ts": us(ts),
                "pid": pid,
                "tid": _TID_TASKS if supervisor else _TID_EVENTS,
                "s": "t",
                "args": args,
            })

    for wave, (start, end) in sorted(wave_extent.items()):
        events.append({
            "name": f"wave {wave}",
            "cat": "wave",
            "ph": "X",
            "ts": us(start),
            "dur": round(max(end - start, 0.0) * 1e6, 3),
            "pid": wave_pid if wave_pid else 1,
            "tid": _TID_WAVES,
            "args": {"wave": wave},
        })

    events.sort(
        key=lambda e: (
            _as_float(e.get("ts")),
            e.get("pid", 0),
            e.get("tid", 0),
            str(e.get("name", "")),
        )
    )
    return {
        "traceEvents": _metadata_events(pids) + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "session": session,
            "n_records": len(records),
            "n_actions_skipped": n_actions,
            "n_unstamped_skipped": n_unstamped,
        },
    }


def _append_task(
    events: List[Dict[str, object]],
    record: Dict[str, object],
    ts: float,
    pid: int,
    dispatch_ts: Dict[Tuple[object, object], float],
    us: Callable[[float], float],
) -> None:
    """Pair dispatched/terminal task events into one complete event."""
    status = record.get("status")
    key = (record.get("restart"), record.get("attempt"))
    if status == "dispatched":
        dispatch_ts[key] = ts
        return
    if status in ("completed", "failed"):
        elapsed = _as_float(record.get("elapsed_s"))
        start = dispatch_ts.pop(key, ts - elapsed)
        events.append({
            "name": f"restart {record.get('restart', '?')}",
            "cat": "task",
            "ph": "X",
            "ts": us(start),
            "dur": round(max(ts - start, 0.0) * 1e6, 3),
            "pid": pid,
            "tid": _TID_TASKS,
            "args": {
                "status": status,
                "attempt": record.get("attempt"),
                "error": record.get("error"),
                "elapsed_s": record.get("elapsed_s"),
            },
        })
        return
    events.append({
        "name": f"restart {record.get('restart', '?')} {status}",
        "cat": "task",
        "ph": "i",
        "ts": us(ts),
        "pid": pid,
        "tid": _TID_TASKS,
        "s": "t",
        "args": {"status": status, "attempt": record.get("attempt")},
    })


def _metadata_events(pids: Dict[str, int]) -> List[Dict[str, object]]:
    """Process/thread naming metadata (``ph: "M"``) for every track."""
    out: List[Dict[str, object]] = []
    for name, pid in sorted(pids.items(), key=lambda item: item[1]):
        supervisor = _is_supervisor(name)
        out.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": name},
        })
        out.append({
            "name": "process_sort_index",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"sort_index": 0 if supervisor else pid},
        })
        threads = (
            ((_TID_WAVES, "waves"), (_TID_TASKS, "tasks"))
            if supervisor
            else ((_TID_SWEEPS, "sweeps"), (_TID_EVENTS, "events"))
        )
        for tid, label in threads:
            out.append({
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": label},
            })
    return out


def export_chrome(
    records: List[Dict[str, object]], path: Union[str, Path]
) -> Path:
    """Write :func:`chrome_trace` as deterministic (sorted-key) JSON."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(chrome_trace(records), sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return out


def _any_value(value: object) -> Dict[str, object]:
    """One record value in OTLP/JSON ``AnyValue`` encoding."""
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}  # int64 is a string in OTLP/JSON
    if isinstance(value, float):
        return {"doubleValue": value}
    if isinstance(value, str):
        return {"stringValue": value}
    return {"stringValue": str(_jsonable(value))}


def otlp_logs(records: List[Dict[str, object]]) -> Dict[str, object]:
    """OTLP/JSON ``LogsData`` document for a list of trace records.

    Each record becomes one ``logRecord``: the body is its ``type``, the
    attributes are its remaining fields in :func:`_any_value` encoding.
    Trace/session headers are skipped.
    """
    log_records = [
        {
            "severityText": "INFO",
            "body": {"stringValue": str(record.get("type", "event"))},
            "attributes": [
                {"key": key, "value": _any_value(value)}
                for key, value in record.items()
                if key != "type"
            ],
        }
        for record in records
        if record.get("type") not in _SKIP_TYPES
    ]
    return {
        "resourceLogs": [{
            "resource": {
                "attributes": [{
                    "key": "service.name",
                    "value": {"stringValue": _OTLP_SERVICE_NAME},
                }],
            },
            "scopeLogs": [{
                "scope": {"name": _OTLP_SCOPE},
                "logRecords": log_records,
            }],
        }],
    }


def export_otlp(
    records: List[Dict[str, object]], path: Union[str, Path]
) -> Path:
    """Write :func:`otlp_logs` as one JSON document."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(otlp_logs(records)) + "\n", encoding="utf-8")
    return out
