"""Trace sinks: where emitted records go.

A sink is anything with ``write(record: dict)`` (and optionally
``close()``).  Three implementations cover the common needs:

* :class:`RingBufferSink` -- bounded in-memory buffer for tests and
  programmatic inspection;
* :class:`JsonlSink` -- one JSON object per line, the machine-readable
  trace format (:func:`read_jsonl` loads it back);
* :class:`ConsoleProgressSink` -- human-readable one-line-per-iteration
  progress reporting for long interactive runs.

OTLP/JSON for OTel collectors is an offline rendering of a recorded
trace (:func:`repro.obs.export.otlp_logs`), not a live sink.

Records are flat dicts produced by the tracer (typed events merged with
the tracer context); sinks must not mutate them.
"""

from __future__ import annotations

import json
import os
import sys
from collections import deque
from pathlib import Path
from typing import Dict, IO, List, Optional, Union

from .events import _is_number

__all__ = [
    "Sink",
    "RingBufferSink",
    "JsonlSink",
    "ConsoleProgressSink",
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
            suffix = f" in {float(elapsed):.2f}s" if _is_number(elapsed) else ""
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
