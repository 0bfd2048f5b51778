"""Trace sinks: where emitted records go.

A sink is anything with ``write(record: dict)`` (and optionally
``close()``).  Five implementations cover the common needs:

* :class:`RingBufferSink` -- bounded in-memory buffer for tests and
  programmatic inspection;
* :class:`JsonlSink` -- one JSON object per line, the machine-readable
  trace format (:func:`read_jsonl` loads it back);
* :class:`ConsoleProgressSink` -- human-readable one-line-per-iteration
  progress reporting for long interactive runs;
* :class:`StatsdSink` -- statsd line-protocol UDP export (stdlib socket
  only, injectable transport) for running FLOC as a service;
* :class:`OtlpJsonSink` -- OpenTelemetry-compatible OTLP/JSON file
  export for ingestion by OTel collectors.

Records are flat dicts produced by the tracer (typed events merged with
the tracer context); sinks must not mutate them.
"""

from __future__ import annotations

import json
import math
import os
import re
import socket
import sys
from collections import deque
from pathlib import Path
from typing import Dict, IO, List, Optional, Protocol, Tuple, Union

__all__ = [
    "Sink",
    "RingBufferSink",
    "JsonlSink",
    "ConsoleProgressSink",
    "StatsdSink",
    "OtlpJsonSink",
    "DatagramTransport",
    "read_jsonl",
]


class Sink:
    """Interface: override :meth:`write`; :meth:`close` is optional."""

    def write(self, record: Dict[str, object]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class RingBufferSink(Sink):
    """Keep the newest ``capacity`` records in memory."""

    def __init__(self, capacity: int = 10000) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._buffer: deque = deque(maxlen=capacity)

    def write(self, record: Dict[str, object]) -> None:
        self._buffer.append(record)

    @property
    def records(self) -> List[Dict[str, object]]:
        return list(self._buffer)

    def by_type(self, kind: str) -> List[Dict[str, object]]:
        """All buffered records whose ``type`` equals ``kind``."""
        return [r for r in self._buffer if r.get("type") == kind]

    def clear(self) -> None:
        self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)


def _jsonable(value: object) -> object:
    """Coerce numpy scalars/arrays so ``json.dumps`` never chokes."""
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (ValueError, AttributeError):
            pass
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)


class JsonlSink(Sink):
    """Append records to a file as JSON Lines.

    Accepts a path (opened for writing, truncating) or an already-open
    text stream (left open on :meth:`close` unless owned).

    ``flush_every=N`` flushes the stream every ``N`` records so long
    mining sessions produce tailable traces (``tail -f trace.jsonl``);
    the default (``None``) keeps the original buffer-until-close
    behaviour.

    :meth:`close` is checkpoint-safe: when the sink owns the file it
    flushes *and fsyncs* before closing, so a trace that reached
    ``close()`` is durable -- a machine crash immediately after a
    completed run cannot silently truncate it.
    """

    def __init__(
        self,
        target: Union[str, Path, IO[str]],
        flush_every: Optional[int] = None,
    ) -> None:
        if flush_every is not None and flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        if hasattr(target, "write"):
            self._stream: Optional[IO[str]] = target  # type: ignore[assignment]
            self._owns = False
            self.path: Optional[Path] = None
        else:
            self.path = Path(target)
            self._stream = self.path.open("w", encoding="utf-8")
            self._owns = True
        self.flush_every = flush_every
        self.n_written = 0

    def write(self, record: Dict[str, object]) -> None:
        if self._stream is None:
            raise ValueError("JsonlSink is closed")
        self._stream.write(json.dumps(record, default=_jsonable) + "\n")
        self.n_written += 1
        if self.flush_every is not None and self.n_written % self.flush_every == 0:
            self._stream.flush()

    def close(self) -> None:
        if self._stream is None:
            return
        self._stream.flush()
        if self._owns:
            # The sink opened this path itself, so the stream is a real
            # file: make the bytes durable before releasing the handle.
            os.fsync(self._stream.fileno())
            self._stream.close()
            self._stream = None


def read_jsonl(
    path: Union[str, Path],
    strict: bool = False,
    skipped: Optional[List[int]] = None,
) -> List[Dict[str, object]]:
    """Load a JSONL trace back into a list of record dicts.

    Crash tolerance, by default: any line that is not valid JSON is
    *skipped* -- a run killed mid-write leaves a truncated final line,
    and a crashed disk/fault-injected writer can corrupt an interior
    line -- so damaged traces stay analyzable.  Pass a list as
    ``skipped`` to receive the 1-based line numbers of every skipped
    line; callers should surface a non-empty list to the user rather
    than pretend the trace was whole.  ``strict=True`` raises
    ``ValueError`` on the first bad line for pipelines that must notice
    partial traces.
    """
    records: List[Dict[str, object]] = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            records.append(json.loads(stripped))
        except json.JSONDecodeError as exc:
            if strict:
                raise ValueError(
                    f"{path}:{index + 1}: invalid JSONL record: {exc}"
                ) from exc
            if skipped is not None:
                skipped.append(index + 1)
    return records


class ConsoleProgressSink(Sink):
    """Human-readable progress lines on a text stream (stderr default).

    Prints one line per iteration event, plus compact notices for seeds
    and restarts.  Action events are counted, not printed (a run can
    perform thousands).

    Supervised-runtime events get the same treatment, so long
    ``repro mine --workers N --progress`` sessions narrate their
    wave/task/retry lifecycle instead of going silent: each wave-context
    change prints a ``-- wave N --`` banner, ``task`` events print per
    status (dispatch, completion with elapsed time, failure with the
    error kind, resume skips), and ``retry`` / ``fault`` events print
    the backoff schedule and injected-fault attribution.
    """

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._n_actions = 0
        self._n_seeds = 0
        self._n_tasks_done = 0
        self._n_retries = 0
        self._last_restart: Optional[object] = None
        self._last_wave: Optional[object] = None

    def _print(self, text: str) -> None:
        self._stream.write(text + "\n")
        self._stream.flush()

    def write(self, record: Dict[str, object]) -> None:
        kind = record.get("type")
        wave = record.get("wave")
        if wave is not None and wave != self._last_wave:
            self._last_wave = wave
            self._print(f"-- wave {wave} --")
        restart = record.get("restart")
        if (
            kind not in ("task", "retry", "fault")
            and restart is not None
            and restart != self._last_restart
        ):
            self._last_restart = restart
            self._print(f"-- restart {restart} --")
        if kind == "action":
            self._n_actions += 1
        elif kind == "seed":
            self._n_seeds += 1
            origin = record.get("origin", "phase1")
            if origin != "phase1":
                self._print(
                    f"  reseed cluster {record.get('cluster')}: "
                    f"{record.get('n_rows')}x{record.get('n_cols')}"
                )
        elif kind == "iteration":
            improved = "+" if record.get("improved") else "="
            self._print(
                f"  iter {record.get('index'):>3} [{improved}] "
                f"residue {record.get('residue'):.6g}  "
                f"volume {record.get('total_volume')}  "
                f"actions {record.get('n_actions')}  "
                f"({record.get('elapsed_s', 0.0):.3f}s)"
            )
        elif kind == "task":
            self._write_task(record)
        elif kind == "retry":
            self._n_retries += 1
            self._print(
                f"  retry restart {record.get('restart')} "
                f"(attempt {record.get('attempt')} failed: "
                f"{record.get('error')}; backoff "
                f"{record.get('backoff_s', 0.0):.2f}s, "
                f"{record.get('remaining')} retr(ies) left)"
            )
        elif kind == "fault":
            self._print(
                f"  fault injected at {record.get('site')} "
                f"[{record.get('kind')}] restart {record.get('restart')} "
                f"attempt {record.get('attempt')}"
            )

    def _write_task(self, record: Dict[str, object]) -> None:
        restart = record.get("restart")
        status = record.get("status")
        attempt = record.get("attempt")
        if status == "dispatched":
            self._print(f"  task restart {restart} dispatched "
                        f"(attempt {attempt})")
        elif status == "completed":
            self._n_tasks_done += 1
            elapsed = record.get("elapsed_s")
            suffix = (
                f" in {float(elapsed):.2f}s"
                if isinstance(elapsed, (int, float))
                and not isinstance(elapsed, bool) else ""
            )
            self._print(f"  task restart {restart} completed{suffix}")
        elif status == "failed":
            self._print(
                f"  task restart {restart} FAILED "
                f"(attempt {attempt}: {record.get('error')})"
            )
        elif status == "skipped":
            self._print(
                f"  task restart {restart} skipped (already checkpointed)"
            )
        else:  # pragma: no cover - future statuses degrade gracefully
            self._print(f"  task restart {restart} {status}")

    def close(self) -> None:
        summary = f"trace: {self._n_seeds} seeds, {self._n_actions} actions"
        if self._n_tasks_done or self._n_retries:
            summary += (
                f", {self._n_tasks_done} task(s) completed, "
                f"{self._n_retries} retr(ies)"
            )
        self._print(summary + " total")


class DatagramTransport(Protocol):
    """What :class:`StatsdSink` needs from its UDP socket (injectable)."""

    def sendto(self, data: bytes, address: Tuple[str, int]) -> int:
        ...  # pragma: no cover - protocol definition

    def close(self) -> None:
        ...  # pragma: no cover - protocol definition


#: Characters that corrupt a statsd line-protocol packet when they leak
#: into a metric *name*: ``:`` separates name from value, ``|`` starts
#: the type (and sample-rate/tag) sections, and newlines split packets
#: into multiple metrics.  ``@``/``#`` guard the sample-rate and
#: dogstatsd-tag extensions; whitespace is folded for hygiene.
_STATSD_UNSAFE = re.compile(r"[:|@#,\s]+")


def _statsd_name(text: str) -> str:
    """A record-derived name component, made line-protocol safe.

    Every delimiter of the statsd wire format is collapsed to ``_`` so
    a hostile or merely unlucky name (``"a:b|c"``, an origin with a
    newline) cannot terminate the value early, inject a second metric,
    or smuggle a type/sample-rate section.  Empty input maps to ``_``
    rather than producing a nameless metric.
    """
    cleaned = _STATSD_UNSAFE.sub("_", text)
    return cleaned if cleaned else "_"


def _statsd_value(value: object) -> Optional[str]:
    """Format a numeric value for the wire, or ``None`` to drop it.

    Non-finite floats serialize as ``nan``/``inf`` under ``%g`` --
    tokens statsd servers reject or, worse, mis-parse -- so they are
    filtered here rather than corrupting the packet.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    number = float(value)
    if not math.isfinite(number):
        return None
    return f"{number:g}"


class StatsdSink(Sink):
    """Export trace records as statsd line-protocol UDP metrics.

    No dependency beyond the stdlib: metrics are formatted as
    ``<prefix>.<name>:<value>|<type>`` lines and sent as individual UDP
    datagrams (fire-and-forget; UDP to a dead endpoint neither blocks
    nor raises, matching statsd client convention).  Pass ``transport``
    (anything with ``sendto(data, address)``) to capture the lines in
    tests or to reuse an existing socket; an injected transport is never
    closed by the sink.

    The mapping:

    * ``action``    -> ``actions:1|c``, ``admissions/evictions:1|c``,
      ``action_gain:<gain>|h``
    * ``iteration`` -> ``iterations:1|c``, ``residue:<r>|g``,
      ``total_volume:<v>|g``, ``sweep_ms:<t>|ms``,
      ``sweep_actions:<n>|h``
    * ``seed``      -> ``seeds.<origin>:1|c``
    * ``span``      -> ``span.<name>:<t>|ms``
    * anything else -> ``events.<type>:1|c``

    Record-derived name components (event types, seed origins, span
    names) and the prefix itself are sanitized against the line
    protocol's delimiters (``:``, ``|``, newlines, ...) and non-finite
    values are dropped, so no record content can corrupt a packet --
    see :func:`_statsd_name` / :func:`_statsd_value`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8125,
        prefix: str = "floc",
        transport: Optional[DatagramTransport] = None,
    ) -> None:
        self.address = (host, port)
        self.prefix = _statsd_name(prefix)
        if transport is None:
            self._transport: Optional[DatagramTransport] = socket.socket(
                socket.AF_INET, socket.SOCK_DGRAM
            )
            self._owns = True
        else:
            self._transport = transport
            self._owns = False
        self.n_sent = 0

    def format_record(self, record: Dict[str, object]) -> List[str]:
        """The statsd lines one record maps to (no I/O; unit-testable)."""
        p = self.prefix
        kind = record.get("type", "event")
        lines: List[str] = []
        if kind == "action":
            lines.append(f"{p}.actions:1|c")
            direction = (
                "evictions" if record.get("is_removal") else "admissions"
            )
            lines.append(f"{p}.{direction}:1|c")
            gain = _statsd_value(record.get("gain"))
            if gain is not None:
                lines.append(f"{p}.action_gain:{gain}|h")
        elif kind == "iteration":
            lines.append(f"{p}.iterations:1|c")
            for name, key, suffix in (
                ("residue", "residue", "g"),
                ("total_volume", "total_volume", "g"),
                ("sweep_actions", "n_actions", "h"),
            ):
                value = _statsd_value(record.get(key))
                if value is not None:
                    lines.append(f"{p}.{name}:{value}|{suffix}")
            elapsed = record.get("elapsed_s")
            if isinstance(elapsed, (int, float)) and not isinstance(elapsed, bool):
                sweep_ms = _statsd_value(float(elapsed) * 1e3)
                if sweep_ms is not None:
                    lines.append(f"{p}.sweep_ms:{sweep_ms}|ms")
        elif kind == "seed":
            origin = _statsd_name(str(record.get("origin", "phase1")))
            lines.append(f"{p}.seeds.{origin}:1|c")
        elif kind == "span":
            name = _statsd_name(str(record.get("name", "unnamed")))
            elapsed_s = record.get("elapsed_s")
            if isinstance(elapsed_s, (int, float)) and not isinstance(
                elapsed_s, bool
            ):
                span_ms = _statsd_value(float(elapsed_s) * 1e3)
                if span_ms is not None:
                    lines.append(f"{p}.span.{name}:{span_ms}|ms")
        else:
            lines.append(f"{p}.events.{_statsd_name(str(kind))}:1|c")
        return lines

    def write(self, record: Dict[str, object]) -> None:
        if self._transport is None:
            raise ValueError("StatsdSink is closed")
        for line in self.format_record(record):
            self._transport.sendto(line.encode("utf-8"), self.address)
            self.n_sent += 1

    def close(self) -> None:
        if self._transport is None:
            return
        if self._owns:
            self._transport.close()
        self._transport = None


#: OTLP/JSON ``AnyValue`` field of each exact type a record value is
#: stored under as-is, looked up before the ``isinstance`` chain that
#: handles subclasses and every other type.
_ANY_VALUE_FIELD: Dict[type, str] = {
    bool: "boolValue",
    float: "doubleValue",
    str: "stringValue",
}


class OtlpJsonSink(Sink):
    """OpenTelemetry-compatible OTLP/JSON log export to a file.

    Buffers every record as an OTLP ``logRecord`` (body = event type,
    attributes = the record's remaining fields, mapped per the OTLP/JSON
    ``AnyValue`` encoding: ``intValue`` as a string, ``doubleValue``,
    ``boolValue``, ``stringValue``) and writes one ``LogsData`` JSON
    document on :meth:`close`.  The file can be replayed into any OTel
    collector with a JSON file receiver; there is no OTel SDK
    dependency.  Like :class:`JsonlSink`, accepts a path or an open
    text stream (the latter is left open).
    """

    def __init__(
        self,
        target: Union[str, Path, IO[str]],
        service_name: str = "repro-floc",
        scope: str = "repro.obs",
    ) -> None:
        if hasattr(target, "write"):
            self._stream: Optional[IO[str]] = target  # type: ignore[assignment]
            self._owns = False
            self.path: Optional[Path] = None
        else:
            self.path = Path(target)
            self._stream = self.path.open("w", encoding="utf-8")
            self._owns = True
        self.service_name = service_name
        self.scope = scope
        self._records: List[Dict[str, object]] = []
        self._closed = False

    @staticmethod
    def _any_value(value: object) -> Dict[str, object]:
        """One value in OTLP/JSON ``AnyValue`` encoding."""
        field = _ANY_VALUE_FIELD.get(type(value))
        if field is not None:
            return {field: value}
        if type(value) is int:
            return {"intValue": str(value)}  # int64 is a string in OTLP/JSON
        if isinstance(value, bool):
            return {"boolValue": value}
        if isinstance(value, int):
            return {"intValue": str(value)}  # int64 is a string in OTLP/JSON
        if isinstance(value, float):
            return {"doubleValue": value}
        if isinstance(value, str):
            return {"stringValue": value}
        return {"stringValue": str(_jsonable(value))}

    def write(self, record: Dict[str, object]) -> None:
        if self._closed:
            raise ValueError("OtlpJsonSink is closed")
        self._records.append({
            "severityText": "INFO",
            "body": {"stringValue": str(record.get("type", "event"))},
            "attributes": [
                {"key": key, "value": self._any_value(value)}
                for key, value in record.items()
                if key != "type"
            ],
        })

    def to_payload(self) -> Dict[str, object]:
        """The full OTLP/JSON ``LogsData`` document (what close writes)."""
        return {
            "resourceLogs": [{
                "resource": {
                    "attributes": [{
                        "key": "service.name",
                        "value": {"stringValue": self.service_name},
                    }],
                },
                "scopeLogs": [{
                    "scope": {"name": self.scope},
                    "logRecords": list(self._records),
                }],
            }],
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        stream = self._stream
        if stream is None:  # pragma: no cover - defensive
            return
        json.dump(self.to_payload(), stream, default=_jsonable)
        stream.write("\n")
        stream.flush()
        if self._owns:
            stream.close()
        self._stream = None
