"""Cross-process session traces for the supervised runtime.

The supervised runtime (:mod:`repro.runtime`) runs FLOC restarts in a
process pool: the supervisor records task/retry/fault events, each
worker its restart's sweeps.  This module joins them into one totally
ordered session trace.  Each process contributes one *shard*: a leading
``trace_meta`` record, then its records.

* The supervisor calls :meth:`SessionTrace.create` /
  :meth:`SessionTrace.attach`, which opens the supervisor shard
  (``<run_dir>/traces/trace_supervisor.jsonl``, generation-suffixed on
  resume; flushed per record, so task and fault records are durable at
  once) and anchors *session time* at the supervisor's clock reading.
* Each dispatched task carries a :class:`TraceContext`: session id,
  parent task span id, and the session time at dispatch.  The worker's
  :func:`worker_trace` keeps its shard in memory, its ``trace_meta``
  holding both clocks (``clock_anchor_local``, its own reading, and
  ``clock_anchor_session``), and the worker writes the shard into the
  restart's checkpoint record (:mod:`repro.runtime.checkpoint`): one
  atomic, digest-checked write per restart.  A killed attempt leaves no
  records; its deterministic retry writes the same sweeps.
* :func:`collect_session` aligns every shard onto the session clock
  with ``offset = clock_anchor_session - clock_anchor_local`` and sorts
  records by ``(aligned ts, process ordinal, seq)``.  Offsets come from
  recorded file contents only, so merging a run directory twice is
  byte-identical (:func:`merge_session`; CI ``cmp``s two merges).

Alignment accuracy is bounded by the pool's dispatch-to-pickup latency,
plenty for wave/task/sweep timelines; ``seq`` breaks ties within a
process.  Nothing here reads the wall clock or draws randomness
(session ids are content hashes of the run identity), so traced runs
stay bit-identical.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .events import _is_number
from .sinks import JsonlSink, read_jsonl
from .tracer import Tracer

__all__ = [
    "SESSION_TRACE_FILENAME",
    "TRACES_DIRNAME",
    "TRACE_SCHEMA",
    "SessionTrace",
    "TraceContext",
    "collect_session",
    "merge_session",
    "session_id_for",
    "worker_trace",
]

#: Schema version stamped into ``trace_meta`` / ``session_meta`` records.
#: 2: one ``iteration`` record per sweep carries its per-cluster
#: decisions, and no ``action`` records are written.
TRACE_SCHEMA = 2

#: Subdirectory of the run dir holding the supervisor shards and the merge.
TRACES_DIRNAME = "traces"

#: Default filename (inside the traces dir) of the merged session trace.
SESSION_TRACE_FILENAME = "trace_session.jsonl"


def session_id_for(identity: Dict[str, object], run_dir: Union[str, Path]) -> str:
    """Deterministic session id: content hash of run identity + run dir.

    No wall clock, no randomness -- the same configuration in the same
    run dir always names the same session, which is exactly what resume
    wants (a resumed run's shards join the original session).
    """
    payload = json.dumps(
        {"identity": identity, "run_dir": str(run_dir)},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TraceContext:
    """What a worker needs to join the session trace.

    ``anchor_session`` is the supervisor's session-time reading at
    dispatch; the worker pairs it with its own monotonic reading to let
    the collector compute this process's clock offset.
    """

    #: Session id (:func:`session_id_for`).
    session: str
    #: Span id of the supervising task, e.g. ``"task:3:0"``.
    parent_span: str
    #: Session time (seconds since attach) at dispatch.
    anchor_session: float

    def to_dict(self) -> Dict[str, object]:
        """Flat dict form, safe to put in a pickled task payload."""
        return {
            "session": self.session,
            "parent_span": self.parent_span,
            "anchor_session": self.anchor_session,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TraceContext":
        """Inverse of :meth:`to_dict`; validates the anchor is numeric."""
        anchor = data.get("anchor_session", 0.0)
        if isinstance(anchor, bool) or not isinstance(anchor, (int, float)):
            raise ValueError(
                f"anchor_session must be numeric, got {anchor!r}"
            )
        return cls(
            session=str(data.get("session", "")),
            parent_span=str(data.get("parent_span", "")),
            anchor_session=float(anchor),
        )


def worker_trace(
    context: Union[TraceContext, Dict[str, object]],
    restart: int,
    attempt: int,
) -> Tuple[Tracer, io.StringIO]:
    """A stamping tracer for one restart attempt, and its JSONL shard:
    an in-memory stream holding the ``trace_meta`` record with both
    clock anchors, then every record the tracer dispatches."""
    ctx = (
        context
        if isinstance(context, TraceContext)
        else TraceContext.from_dict(context)
    )
    shard = io.StringIO()
    sink = JsonlSink(shard)
    sink.write({
        "type": "trace_meta",
        "schema": TRACE_SCHEMA,
        "session": ctx.session,
        "process": f"worker:{restart:05d}:{attempt:02d}",
        "parent_span": ctx.parent_span,
        "clock_anchor_local": Tracer.clock(),
        "clock_anchor_session": ctx.anchor_session,
        "restart": restart,
        "attempt": attempt,
        "pid": os.getpid(),
    })
    tracer = Tracer(sinks=[sink], stamp=True)
    # ``run_restart`` pushes the ``restart`` key itself.
    tracer.push_context(attempt=attempt)
    return tracer, shard


class SessionTrace:
    """Supervisor-side handle for one cross-process trace session.

    Lifecycle: :meth:`create` -> :meth:`attach` (open the supervisor
    shard, anchor session time) -> :meth:`task_context` per dispatched
    task -> :meth:`detach` -> :meth:`merge`.
    """

    def __init__(self, run_dir: Path, session_id: str) -> None:
        self.run_dir = run_dir
        self.session_id = session_id
        #: Supervisor monotonic-clock reading defining session time 0.
        self.anchor: float = 0.0
        self._sink: Optional[JsonlSink] = None
        self._tracer: Optional[Tracer] = None
        self._owns_tracer = False
        self._prev_stamp = False

    @classmethod
    def create(
        cls, run_dir: Union[str, Path], identity: Dict[str, object]
    ) -> "SessionTrace":
        """New session for ``run_dir``; makes the traces dir."""
        run_path = Path(run_dir)
        (run_path / TRACES_DIRNAME).mkdir(parents=True, exist_ok=True)
        return cls(run_path, session_id_for(identity, run_path))

    def _next_supervisor_shard(self) -> Tuple[Path, int]:
        """First unused generation-suffixed supervisor shard path.

        Resumed runs must not overwrite the original supervisor shard:
        generation 0 is ``trace_supervisor.jsonl``, later generations
        ``trace_supervisor_<gen>.jsonl`` (lexicographically after it, so
        sorted-glob collection preserves generation order).
        """
        traces = self.run_dir / TRACES_DIRNAME
        generation = 0
        while True:
            name = (
                "trace_supervisor.jsonl"
                if generation == 0
                else f"trace_supervisor_{generation:02d}.jsonl"
            )
            path = traces / name
            if not path.exists():
                return path, generation
            generation += 1

    def attach(self, tracer: Tracer) -> Tracer:
        """Open the supervisor shard and route ``tracer`` through it.

        Returns the tracer the supervisor should use from now on: the
        given one (gaining the shard sink and record stamping) when it
        is enabled, or a fresh shard-only tracer when it is disabled --
        ``NULL_TRACER`` is shared and must never be mutated.
        """
        path, generation = self._next_supervisor_shard()
        sink = JsonlSink(path, flush_every=1)
        self.anchor = Tracer.clock()
        process = (
            "supervisor"
            if generation == 0
            else f"supervisor:{generation:02d}"
        )
        sink.write({
            "type": "trace_meta",
            "schema": TRACE_SCHEMA,
            "session": self.session_id,
            "process": process,
            "clock_anchor_local": self.anchor,
            "clock_anchor_session": 0.0,
            "pid": os.getpid(),
        })
        self._sink = sink
        if tracer.enabled:
            self._tracer = tracer
            self._owns_tracer = False
            self._prev_stamp = tracer.stamp
            tracer.sinks.append(sink)
            tracer.stamp = True
        else:
            self._tracer = Tracer(sinks=[sink], stamp=True)
            self._owns_tracer = True
        return self._tracer

    def task_context(self, restart: int, attempt: int) -> Dict[str, object]:
        """The :class:`TraceContext` dict to ship with one task payload."""
        return TraceContext(
            session=self.session_id,
            parent_span=f"task:{restart}:{attempt}",
            anchor_session=Tracer.clock() - self.anchor,
        ).to_dict()

    def detach(self) -> None:
        """Close the supervisor shard and undo any tracer mutation."""
        sink = self._sink
        tracer = self._tracer
        self._sink = None
        self._tracer = None
        if tracer is not None and not self._owns_tracer and sink is not None:
            if sink in tracer.sinks:
                tracer.sinks.remove(sink)
            tracer.stamp = self._prev_stamp
        if sink is not None:
            sink.close()

    def merge(self, out: Optional[Union[str, Path]] = None) -> Path:
        """Merge the run dir's session trace (:func:`merge_session`)."""
        return merge_session(self.run_dir, out)


def collect_session(
    run_dir: Union[str, Path],
) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Load and align every shard of ``run_dir`` into session order.

    The shards are the supervisor shards under ``traces/``, then the
    ``trace`` sections of the restart records that verify, in restart
    order.  Returns ``(session_meta, records)``.  Each returned record
    carries an aligned ``ts`` (session seconds), the owning ``process``
    name, and a ``seq``; the list is sorted by ``(ts, process ordinal,
    seq)`` so two collections of the same files are identical.

    Damage tolerance: a supervisor shard that cannot be read or lacks
    its ``trace_meta``, and a restart record that fails its digest
    check, add no records and are named in ``skipped_shards``; corrupt
    lines of a supervisor shard (a killed supervisor's truncated last
    line) are skipped and listed in ``corrupt_lines``.
    """
    from ..runtime.checkpoint import restart_traces

    shards: List[Tuple[str, List[Dict[str, object]]]] = []
    skipped_shards: List[str] = []
    corrupt_lines: Dict[str, List[int]] = {}
    traces = Path(run_dir) / TRACES_DIRNAME
    for path in sorted(traces.glob("trace_supervisor*.jsonl")):
        skipped: List[int] = []
        try:
            shards.append((path.name, read_jsonl(path, skipped=skipped)))
        except OSError:
            skipped_shards.append(path.name)
        if skipped:
            corrupt_lines[path.name] = skipped
    sections, damaged = restart_traces(run_dir)
    shards.extend(sections)
    skipped_shards.extend(damaged)

    keyed: List[Tuple[float, int, int, Dict[str, object]]] = []
    processes: List[str] = []
    session_id = ""
    for name, records in shards:
        if not records or records[0].get("type") != "trace_meta":
            skipped_shards.append(name)
            continue
        meta = records[0]
        process = str(meta.get("process", name))
        if not session_id and "session" in meta:
            session_id = str(meta["session"])
        anchor_local = meta.get("clock_anchor_local")
        anchor_session = meta.get("clock_anchor_session")
        offset = 0.0
        base = 0.0
        if _is_number(anchor_local) and _is_number(anchor_session):
            offset = float(anchor_session) - float(anchor_local)  # type: ignore[arg-type]
            base = float(anchor_session)  # type: ignore[arg-type]
        ordinal = len(processes)
        processes.append(process)
        for index, record in enumerate(records[1:]):
            ts = record.get("ts")
            aligned = float(ts) + offset if _is_number(ts) else base  # type: ignore[arg-type]
            seq = record.get("seq")
            seq_key = seq if isinstance(seq, int) and not isinstance(seq, bool) else index
            merged = dict(record)
            merged["ts"] = aligned
            merged["seq"] = seq_key
            merged["process"] = process
            keyed.append((aligned, ordinal, seq_key, merged))
    keyed.sort(key=lambda item: (item[0], item[1], item[2]))
    session_meta: Dict[str, object] = {
        "type": "session_meta",
        "schema": TRACE_SCHEMA,
        "session": session_id,
        "processes": processes,
        "n_records": len(keyed),
        "skipped_shards": sorted(skipped_shards),
        "corrupt_lines": corrupt_lines,
    }
    return session_meta, [item[3] for item in keyed]


def merge_session(
    run_dir: Union[str, Path], out: Optional[Union[str, Path]] = None
) -> Path:
    """Write the merged session trace as JSONL; byte-deterministic.

    The first line is the ``session_meta`` record, followed by every
    aligned record in session order.  Keys are sorted, so merging the
    same run directory twice produces byte-identical output (CI
    enforces this with ``cmp``).
    """
    session_meta, records = collect_session(run_dir)
    out_path = (
        Path(out)
        if out is not None
        else Path(run_dir) / TRACES_DIRNAME / SESSION_TRACE_FILENAME
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(session_meta, sort_keys=True)]
    lines.extend(json.dumps(record, sort_keys=True) for record in records)
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out_path
