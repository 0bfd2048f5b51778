"""Typed trace events: the vocabulary of the FLOC event stream.

Every record a :class:`~repro.obs.tracer.Tracer` hands to its sinks is a
plain ``dict`` with a ``type`` key; the dataclasses here are the typed
constructors for the domain events (iteration, seed, and the supervised
runtime's) so call sites cannot misspell a field.  Span timings never
become records: the tracer aggregates them per name (see
:meth:`~repro.obs.tracer.Tracer.summary`).

The payloads mirror what the paper reports per iteration (Tables 1-5,
Figs 8-10): residue trajectory, volumes, seed shapes and, per sweep,
which lines each cluster admitted and evicted -- so a trace is a
machine-readable convergence record rather than an opaque end-of-run
aggregate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Type

__all__ = [
    "TraceEvent",
    "IterationEvent",
    "SeedEvent",
    "TaskEvent",
    "RetryEvent",
    "FaultEvent",
    "ResourceEvent",
    "EVENT_TYPES",
    "event_fields",
]


@dataclass(frozen=True)
class TraceEvent:
    """Base class: a typed event that serializes to a flat dict."""

    #: Event discriminator -- overridden per subclass.
    type: str = "event"

    def to_dict(self) -> Dict[str, object]:
        """Flat, JSON-friendly representation (numpy scalars coerced)."""
        out: Dict[str, object] = {}
        for key, value in asdict(self).items():
            if value is None:
                continue
            if isinstance(value, bool):
                out[key] = value
            elif hasattr(value, "item"):  # numpy scalar
                out[key] = value.item()
            else:
                out[key] = value
        return out


@dataclass(frozen=True)
class IterationEvent(TraceEvent):
    """One Phase-2 iteration (sweep) completed.

    ``residue`` is the average residue of the best clustering after the
    iteration -- by construction identical to the corresponding entry of
    :attr:`repro.core.floc.FlocResult.history`.  ``score`` is the raw
    objective value (equal to ``residue`` in paper-literal mode, the
    feasibility-weighted volume score in r-residue mode).  The sweep
    performed ``n_actions`` toggles and kept the first ``n_adopted`` of
    them (its best prefix; 0 when it rolled back).

    ``clusters`` holds one entry per cluster the sweep acted on, in
    ascending cluster order: ``cluster``; ``actions`` and ``gain_sum``
    over its performed toggles; ``rows_in``/``rows_out``/``cols_in``/
    ``cols_out``, the sorted line indices whose membership the sweep
    left changed (empty after a rollback); ``residue_before`` at the
    sweep start; and ``residue``/``volume`` after the sweep kept its
    prefix or rolled back.
    """

    type: str = "iteration"
    index: int = 0
    residue: float = 0.0
    score: float = 0.0
    total_volume: int = 0
    n_actions: int = 0
    improved: bool = False
    elapsed_s: float = 0.0
    n_adopted: int = 0
    clusters: List[Dict[str, object]] = field(default_factory=list)


@dataclass(frozen=True)
class SeedEvent(TraceEvent):
    """A cluster slot received a fresh seed.

    ``origin`` is ``"phase1"`` for the initial draw and ``"reseed"`` when
    a dead/duplicate slot was replaced between Phase-2 rounds.  Residue
    and volume are measured against the data matrix (``None`` when the
    emitter has not evaluated the seed yet).
    """

    type: str = "seed"
    cluster: int = 0
    origin: str = "phase1"
    n_rows: int = 0
    n_cols: int = 0
    residue: Optional[float] = None
    volume: Optional[int] = None


@dataclass(frozen=True)
class TaskEvent(TraceEvent):
    """A supervised restart task changed state.

    ``status`` is one of ``"dispatched"``, ``"completed"``, ``"failed"``
    or ``"skipped"`` (already checkpointed on resume).  ``attempt`` is
    0-based; ``error`` carries the failure class name when relevant.
    """

    type: str = "task"
    restart: int = 0
    status: str = "dispatched"
    attempt: int = 0
    elapsed_s: float = 0.0
    error: Optional[str] = None


@dataclass(frozen=True)
class RetryEvent(TraceEvent):
    """The supervisor scheduled a retry for a failed restart task.

    ``backoff_s`` is the jittered delay actually slept before the next
    attempt; ``remaining`` counts attempts still available afterwards.
    """

    type: str = "retry"
    restart: int = 0
    attempt: int = 0
    backoff_s: float = 0.0
    remaining: int = 0
    error: Optional[str] = None


@dataclass(frozen=True)
class FaultEvent(TraceEvent):
    """A declarative fault from a fault plan fired.

    Emitted by whichever side observes the injection: delay/error faults
    report from the worker, kill/corrupt faults from the supervisor when
    their effects surface.  ``site``/``kind`` mirror the plan entry.
    """

    type: str = "fault"
    site: str = "worker_start"
    kind: str = "error"
    restart: int = 0
    attempt: int = 0


@dataclass(frozen=True)
class ResourceEvent(TraceEvent):
    """Per-task resource telemetry reported by a worker process.

    Emitted once per supervised restart task, right after the restart
    finishes computing: ``max_rss_kb`` is the process's peak resident
    set (``resource.getrusage`` units -- kilobytes on Linux), while
    ``user_cpu_s`` / ``sys_cpu_s`` are the CPU time *deltas* consumed by
    this task (pool processes are reused, so absolute totals would
    conflate consecutive tasks).
    """

    type: str = "resource"
    restart: int = 0
    attempt: int = 0
    max_rss_kb: float = 0.0
    user_cpu_s: float = 0.0
    sys_cpu_s: float = 0.0


#: Registry: the ``type`` discriminator of every domain event mapped to
#: its dataclass.  Trace *consumers* use it to tell domain events apart
#: from the session files' own records (``trace_meta``,
#: ``session_meta``), from the ``action`` and ``span`` records of older
#: traces, and from unknown types emitted by newer producers.
EVENT_TYPES: Dict[str, Type[TraceEvent]] = {
    "iteration": IterationEvent,
    "seed": SeedEvent,
    "task": TaskEvent,
    "retry": RetryEvent,
    "fault": FaultEvent,
    "resource": ResourceEvent,
}


def event_fields(kind: str) -> List[str]:
    """Field names of the registered event type ``kind`` (sans ``type``).

    Raises ``KeyError`` for unregistered kinds -- the schema source of
    truth for consumers that validate records.
    """
    return [f.name for f in fields(EVENT_TYPES[kind]) if f.name != "type"]


# Record-field readers shared by the trace consumers (analysis, session
# merge, export, console progress).  A recorded field may be missing,
# malformed or written by a newer producer; ``bool`` is never a number
# here even though it subclasses ``int``.
def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_float(value: object, default: float = 0.0) -> float:
    if _is_number(value):
        return float(value)  # type: ignore[arg-type]
    return default


def _as_int(value: object, default: int = 0) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float):
        return int(value)
    return default
