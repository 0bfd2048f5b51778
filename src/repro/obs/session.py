"""Cross-process session traces for the supervised runtime.

The supervised runtime (:mod:`repro.runtime`) farms FLOC restarts out to
a process pool, which used to put a hard boundary through the trace: the
supervisor recorded task/retry/fault events while each worker's sweep
events evaporated inside the subprocess.  This module is the missing
layer -- every process writes its own durable JSONL *shard* into
``<run_dir>/traces/`` and a collector merges them into one totally
ordered session trace.

How the pieces fit together:

* The supervisor calls :meth:`SessionTrace.create` /
  :meth:`SessionTrace.attach`, which opens the supervisor shard
  (``trace_supervisor.jsonl``; resumed runs get generation-suffixed
  shards) and anchors *session time*: second 0 is the supervisor's
  monotonic clock reading at attach.
* Each dispatched task carries a :class:`TraceContext` -- session id,
  parent task span id, and the session-time anchor taken at dispatch.
  The worker entrypoint hands it to :func:`open_worker_tracer`, which
  opens the worker shard (``trace_worker_<restart>_<attempt>.jsonl``,
  ``flush_every=1`` so a killed worker leaves at worst a truncated final
  line) and records *both* clocks in the shard's leading ``trace_meta``
  record: its own monotonic reading (``clock_anchor_local``) and the
  dispatch-time session reading (``clock_anchor_session``).
* :func:`collect_session` aligns every shard onto the session clock
  with ``offset = clock_anchor_session - clock_anchor_local`` and sorts
  records by ``(aligned ts, process ordinal, seq)``.  The offsets come
  purely from recorded file contents, so merging the same shards twice
  is byte-identical -- :func:`merge_session` writes the result with
  sorted keys and CI ``cmp``s two merges to enforce it.

Alignment accuracy is bounded by the pool's dispatch-to-pickup latency
(the worker stamps its local anchor when it starts running, while the
session anchor was stamped at submit time), which is plenty for
wave/task/sweep timelines; ``seq`` breaks ties deterministically within
a process regardless.

All timing uses :attr:`~repro.obs.tracer.Tracer.clock` (monotonic);
session ids are content hashes of the run identity -- nothing here reads
the wall clock or draws randomness, so traced runs stay bit-identical.
"""

from __future__ import annotations

import hashlib
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
    "open_worker_tracer",
    "session_id_for",
    "worker_shard_path",
]

#: Schema version stamped into ``trace_meta`` / ``session_meta`` records.
#: 2: one ``iteration`` record per sweep carries its per-cluster
#: decisions, and no ``action`` records are written.
TRACE_SCHEMA = 2

#: Subdirectory of the run dir holding every per-process trace shard.
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


def worker_shard_path(
    run_dir: Union[str, Path], restart: int, attempt: int
) -> Path:
    """Where the worker for ``(restart, attempt)`` writes its shard."""
    name = f"trace_worker_{restart:05d}_{attempt:02d}.jsonl"
    return Path(run_dir) / TRACES_DIRNAME / name


def open_worker_tracer(
    run_dir: Union[str, Path],
    context: Union[TraceContext, Dict[str, object]],
    restart: int,
    attempt: int,
) -> Tracer:
    """A stamping tracer backed by this worker's durable JSONL shard.

    The shard's first record is ``trace_meta`` carrying both clock
    anchors; ``flush_every=1`` keeps the shard valid-or-truncated even
    when the worker is killed mid-task (``os._exit`` skips ``close``).
    """
    ctx = (
        context
        if isinstance(context, TraceContext)
        else TraceContext.from_dict(context)
    )
    path = worker_shard_path(run_dir, restart, attempt)
    path.parent.mkdir(parents=True, exist_ok=True)
    sink = JsonlSink(path, flush_every=1)
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
    return tracer


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
        """Merge every shard in the run dir (:func:`merge_session`)."""
        return merge_session(self.run_dir, out)


def collect_session(
    run_dir: Union[str, Path],
) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Load and align every shard under ``run_dir`` into session order.

    Returns ``(session_meta, records)``.  Each returned record carries
    an aligned ``ts`` (session seconds), the owning ``process`` name,
    and a ``seq``; the list is sorted by ``(ts, process ordinal, seq)``
    so two collections of the same files are identical.

    Damage tolerance: shards whose leading ``trace_meta`` is missing or
    whose file cannot be read are listed in ``session_meta
    ["skipped_shards"]``; corrupt interior/truncated final lines (a
    killed worker) are skipped per :func:`~repro.obs.sinks.read_jsonl`
    and reported in ``session_meta["corrupt_lines"]``.
    """
    traces = Path(run_dir) / TRACES_DIRNAME
    shards = sorted(traces.glob("trace_supervisor*.jsonl")) + sorted(
        traces.glob("trace_worker_*.jsonl")
    )
    keyed: List[Tuple[float, int, int, Dict[str, object]]] = []
    processes: List[str] = []
    skipped_shards: List[str] = []
    corrupt_lines: Dict[str, List[int]] = {}
    session_id = ""
    for shard in shards:
        skipped: List[int] = []
        try:
            records = read_jsonl(shard, skipped=skipped)
        except OSError:
            skipped_shards.append(shard.name)
            continue
        if skipped:
            corrupt_lines[shard.name] = skipped
        if not records or records[0].get("type") != "trace_meta":
            skipped_shards.append(shard.name)
            continue
        meta = records[0]
        process = str(meta.get("process", shard.stem))
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
        "skipped_shards": skipped_shards,
        "corrupt_lines": corrupt_lines,
    }
    return session_meta, [item[3] for item in keyed]


def merge_session(
    run_dir: Union[str, Path], out: Optional[Union[str, Path]] = None
) -> Path:
    """Write the merged session trace as JSONL; byte-deterministic.

    The first line is the ``session_meta`` record, followed by every
    aligned record in session order.  Keys are sorted, so merging the
    same shard files twice produces byte-identical output (CI enforces
    this with ``cmp``).
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
