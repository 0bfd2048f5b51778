"""Trace analytics: typed aggregates over recorded FLOC event streams.

PR 1 taught FLOC to *emit* structured traces (``SeedEvent`` /
``ActionEvent`` / ``IterationEvent`` streams, see
:mod:`repro.obs.events`); this module is the consumption side.  It
parses a recorded trace -- a list of flat record dicts, typically from
:func:`repro.obs.sinks.read_jsonl` -- into typed aggregates:

* per **sweep** (one Phase-2 iteration): action counts split by
  kind/direction, gain sums, membership churn (admissions vs
  evictions), residue/score/volume straight off the ``iteration``
  event, and a wall-time breakdown by span name when the trace was
  recorded with ``emit_spans=True``;
* per **cluster**: seed/reseed counts, action totals, gain sums, and
  the last residue/volume the stream reported;
* per **slot** ``(kind, cluster)``: the gain distribution of every
  action that hit the slot, with a shared-edge histogram so slots are
  comparable -- the input the ROADMAP's adaptive-ordering work needs;
* per **session** (one ``restart``/``trial`` context): the residue
  trajectory and sweep list, so one multi-restart JSONL file analyzes
  into separable runs.

Everything here is pure and deterministic: the same trace produces the
same :meth:`TraceAnalysis.to_dict` -- byte-identical once serialized
with ``json.dumps(..., sort_keys=True)`` -- because no wall clock, RNG,
or environment is consulted.  Consistency between the action stream and
the ``iteration`` events (``n_actions`` must equal the actions observed
in the sweep) is *checked*, not assumed; mismatches (e.g. a ring-buffer
capture that dropped old records) surface in ``warnings``.

:func:`diff_traces` aligns the ``iteration`` events of two twinned
sessions -- same seed, same workload, one knob changed (canonically
``gain_mode="exact"`` vs ``"fast"``) -- and quantifies where they
diverge: per-iteration residue/score/volume deltas plus summary
statistics.  This is the exact-vs-frozen-bases gain audit the ROADMAP
calls for.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .events import EVENT_TYPES, _as_float, _as_int
from .sinks import read_jsonl

__all__ = [
    "DEFAULT_STRAGGLER_FACTOR",
    "GainHistogram",
    "SlotStats",
    "ClusterStats",
    "SweepStats",
    "SessionAnalysis",
    "TaskRun",
    "WaveStats",
    "ProcessStats",
    "ResourceStats",
    "TraceAnalysis",
    "IterationDelta",
    "TraceDiff",
    "analyze_records",
    "analyze_trace",
    "diff_traces",
]

Record = Dict[str, object]

#: Context keys outer layers push onto the tracer; together they
#: identify one FLOC run inside a shared multi-run trace.  ``attempt``
#: joins for merged session traces: a retried restart's attempts are
#: distinct executions and must analyze as separate sessions (their
#: sweep streams would otherwise interleave into nonsense).
_SESSION_KEYS: Tuple[str, ...] = ("trial", "restart", "attempt")

#: Default straggler threshold: a completed task is flagged when its
#: elapsed time exceeds this multiple of its wave's median.
DEFAULT_STRAGGLER_FACTOR = 2.0

#: Number of buckets in the shared-edge gain histograms.
_GAIN_BINS = 8


@dataclass
class GainHistogram:
    """Bucketed gain counts; ``edges`` has ``len(counts) + 1`` entries."""

    edges: List[float]
    counts: List[int]

    def to_dict(self) -> Dict[str, object]:
        return {"edges": list(self.edges), "counts": list(self.counts)}


def _histogram(values: Sequence[float], lo: float, hi: float) -> GainHistogram:
    """Fixed-edge histogram over ``[lo, hi]`` with ``_GAIN_BINS`` buckets.

    Pure-python binning (no numpy) so the result is platform-stable and
    trivially deterministic.  Degenerate ranges collapse to one bucket.
    """
    if not values or hi <= lo:
        edges = [lo, hi if hi > lo else lo]
        return GainHistogram(edges=edges, counts=[len(values)])
    width = (hi - lo) / _GAIN_BINS
    counts = [0] * _GAIN_BINS
    for value in values:
        index = int((value - lo) / width)
        if index >= _GAIN_BINS:
            index = _GAIN_BINS - 1
        elif index < 0:
            index = 0
        counts[index] += 1
    edges = [lo + i * width for i in range(_GAIN_BINS)] + [hi]
    return GainHistogram(edges=edges, counts=counts)


@dataclass
class SlotStats:
    """Gain telemetry for one ``(kind, cluster)`` action slot."""

    kind: str
    cluster: int
    actions: int = 0
    admissions: int = 0
    evictions: int = 0
    gain_sum: float = 0.0
    gain_min: float = 0.0
    gain_max: float = 0.0
    histogram: Optional[GainHistogram] = None

    @property
    def gain_mean(self) -> float:
        return self.gain_sum / self.actions if self.actions else 0.0

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "cluster": self.cluster,
            "actions": self.actions,
            "admissions": self.admissions,
            "evictions": self.evictions,
            "gain_sum": self.gain_sum,
            "gain_mean": self.gain_mean,
            "gain_min": self.gain_min,
            "gain_max": self.gain_max,
        }
        if self.histogram is not None:
            out["histogram"] = self.histogram.to_dict()
        return out


@dataclass
class ClusterStats:
    """Lifetime view of one cluster slot across the whole trace."""

    cluster: int
    seeds: int = 0
    reseeds: int = 0
    actions: int = 0
    admissions: int = 0
    evictions: int = 0
    gain_sum: float = 0.0
    last_residue: Optional[float] = None
    last_volume: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "cluster": self.cluster,
            "seeds": self.seeds,
            "reseeds": self.reseeds,
            "actions": self.actions,
            "admissions": self.admissions,
            "evictions": self.evictions,
            "gain_sum": self.gain_sum,
            "last_residue": self.last_residue,
            "last_volume": self.last_volume,
        }


@dataclass
class SweepStats:
    """One Phase-2 sweep: the ``iteration`` event plus its action stream.

    The event-sourced fields (``residue`` ... ``elapsed_s``) are copied
    verbatim from the ``iteration`` record; the derived fields are
    recomputed from the ``action`` records observed since the previous
    sweep.  ``actions_observed`` equalling ``n_actions`` is the
    stream-consistency contract :func:`analyze_records` checks.
    """

    index: int
    residue: float
    score: float
    total_volume: int
    n_actions: int
    improved: bool
    elapsed_s: float
    actions_observed: int = 0
    admissions: int = 0
    evictions: int = 0
    row_actions: int = 0
    col_actions: int = 0
    gain_sum: float = 0.0
    clusters_touched: int = 0
    span_s: Dict[str, float] = field(default_factory=dict)

    @property
    def churn(self) -> int:
        """Membership toggles this sweep (admissions + evictions)."""
        return self.admissions + self.evictions

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "index": self.index,
            "residue": self.residue,
            "score": self.score,
            "total_volume": self.total_volume,
            "n_actions": self.n_actions,
            "improved": self.improved,
            "elapsed_s": self.elapsed_s,
            "actions_observed": self.actions_observed,
            "admissions": self.admissions,
            "evictions": self.evictions,
            "row_actions": self.row_actions,
            "col_actions": self.col_actions,
            "gain_sum": self.gain_sum,
            "clusters_touched": self.clusters_touched,
        }
        if self.span_s:
            out["span_s"] = dict(self.span_s)
        return out


@dataclass
class SessionAnalysis:
    """One run's slice of the trace (one ``restart``/``trial`` context)."""

    key: Dict[str, object]
    sweeps: List[SweepStats] = field(default_factory=list)
    dangling_actions: int = 0

    @property
    def residue_trajectory(self) -> List[float]:
        return [sweep.residue for sweep in self.sweeps]

    @property
    def n_actions(self) -> int:
        return sum(sweep.actions_observed for sweep in self.sweeps)

    @property
    def improved_sweeps(self) -> int:
        return sum(1 for sweep in self.sweeps if sweep.improved)

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": dict(self.key),
            "sweeps": [sweep.to_dict() for sweep in self.sweeps],
            "residue_trajectory": self.residue_trajectory,
            "n_actions": self.n_actions,
            "improved_sweeps": self.improved_sweeps,
            "dangling_actions": self.dangling_actions,
        }


@dataclass
class TaskRun:
    """One terminal supervised-task attempt (completed or failed)."""

    restart: int
    attempt: int
    wave: int
    status: str
    elapsed_s: float
    error: Optional[str] = None
    is_straggler: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "restart": self.restart,
            "attempt": self.attempt,
            "wave": self.wave,
            "status": self.status,
            "elapsed_s": self.elapsed_s,
            "error": self.error,
            "is_straggler": self.is_straggler,
        }


@dataclass
class WaveStats:
    """Timeline entry for one supervisor wave."""

    index: int
    completed: int = 0
    failed: int = 0
    retries: int = 0
    faults: int = 0
    median_elapsed_s: float = 0.0
    max_elapsed_s: float = 0.0
    stragglers: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "completed": self.completed,
            "failed": self.failed,
            "retries": self.retries,
            "faults": self.faults,
            "median_elapsed_s": self.median_elapsed_s,
            "max_elapsed_s": self.max_elapsed_s,
            "stragglers": self.stragglers,
        }


@dataclass
class ProcessStats:
    """Per-process aggregate of a merged session trace.

    Only populated when records carry a ``process`` key (i.e. the trace
    came through :func:`repro.obs.session.collect_session`); plain
    single-process traces leave the list empty.
    """

    name: str
    n_records: int = 0
    event_counts: Dict[str, int] = field(default_factory=dict)
    span_s: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "n_records": self.n_records,
            "event_counts": dict(self.event_counts),
            "span_s": dict(self.span_s),
        }


@dataclass
class ResourceStats:
    """One worker's rusage report (``resource`` event)."""

    restart: int
    attempt: int
    max_rss_kb: float
    user_cpu_s: float
    sys_cpu_s: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "restart": self.restart,
            "attempt": self.attempt,
            "max_rss_kb": self.max_rss_kb,
            "user_cpu_s": self.user_cpu_s,
            "sys_cpu_s": self.sys_cpu_s,
        }


@dataclass
class TraceAnalysis:
    """The full typed aggregate of one trace; see the module docstring."""

    n_records: int
    event_counts: Dict[str, int]
    sessions: List[SessionAnalysis]
    clusters: List[ClusterStats]
    slots: List[SlotStats]
    spans: Dict[str, Dict[str, float]]
    warnings: List[str]
    tasks: List[TaskRun] = field(default_factory=list)
    waves: List[WaveStats] = field(default_factory=list)
    resources: List[ResourceStats] = field(default_factory=list)
    processes: List[ProcessStats] = field(default_factory=list)

    @property
    def n_sweeps(self) -> int:
        return sum(len(session.sweeps) for session in self.sessions)

    @property
    def n_actions(self) -> int:
        return self.event_counts.get("action", 0)

    @property
    def stragglers(self) -> List[TaskRun]:
        """Completed tasks that overshot their wave's straggler bound."""
        return [task for task in self.tasks if task.is_straggler]

    def to_dict(self) -> Dict[str, object]:
        """Plain nested dict; serialize with ``sort_keys=True`` for a
        byte-stable artifact (same trace -> same bytes)."""
        return {
            "schema": 1,
            "n_records": self.n_records,
            "event_counts": dict(self.event_counts),
            "sessions": [session.to_dict() for session in self.sessions],
            "clusters": [cluster.to_dict() for cluster in self.clusters],
            "slots": [slot.to_dict() for slot in self.slots],
            "spans": {name: dict(agg) for name, agg in self.spans.items()},
            "warnings": list(self.warnings),
            "tasks": [task.to_dict() for task in self.tasks],
            "waves": [wave.to_dict() for wave in self.waves],
            "stragglers": [task.to_dict() for task in self.stragglers],
            "resources": [res.to_dict() for res in self.resources],
            "processes": [proc.to_dict() for proc in self.processes],
        }


def _session_key(record: Record) -> Tuple[object, ...]:
    return tuple(record.get(key) for key in _SESSION_KEYS)


def _key_dict(key: Tuple[object, ...]) -> Dict[str, object]:
    return {
        name: value
        for name, value in zip(_SESSION_KEYS, key)
        if value is not None
    }


def _sort_token(value: object) -> Tuple[int, float, str]:
    """Total order over heterogeneous session-key components."""
    if value is None:
        return (0, 0.0, "")
    if isinstance(value, bool):
        return (1, float(value), "")
    if isinstance(value, (int, float)):
        return (1, float(value), "")
    return (2, 0.0, str(value))


def analyze_records(
    records: Sequence[Record],
    straggler_factor: float = DEFAULT_STRAGGLER_FACTOR,
) -> TraceAnalysis:
    """Aggregate an in-memory record stream into a :class:`TraceAnalysis`.

    The stream is consumed in order: ``action`` (and emitted ``span``)
    records accumulate per session until the session's next
    ``iteration`` record closes the sweep.  Actions after the final
    ``iteration`` of a session (an interrupted run) are reported as
    ``dangling_actions`` rather than dropped silently.

    Supervised-runtime streams additionally aggregate into a wave
    timeline (:class:`WaveStats`), terminal task attempts
    (:class:`TaskRun`) with straggler flagging -- a completed task whose
    elapsed time exceeds ``straggler_factor`` times its wave's median,
    over waves with at least two completions -- worker resource reports
    (:class:`ResourceStats`), and, for merged session traces, per-process
    record/span aggregates (:class:`ProcessStats`).
    """
    known_types = set(EVENT_TYPES) | {"span", "trace_meta", "session_meta"}
    event_counts: Dict[str, int] = {}
    sessions: Dict[Tuple[object, ...], SessionAnalysis] = {}
    pending_actions: Dict[Tuple[object, ...], List[Record]] = {}
    pending_spans: Dict[Tuple[object, ...], Dict[str, float]] = {}
    clusters: Dict[int, ClusterStats] = {}
    slots: Dict[Tuple[str, int], SlotStats] = {}
    slot_gains: Dict[Tuple[str, int], List[float]] = {}
    span_agg: Dict[str, Dict[str, float]] = {}
    warnings: List[str] = []
    tasks: List[TaskRun] = []
    wave_retries: Dict[int, int] = {}
    wave_faults: Dict[int, int] = {}
    resources: List[ResourceStats] = []
    process_stats: Dict[str, ProcessStats] = {}

    def session(key: Tuple[object, ...]) -> SessionAnalysis:
        found = sessions.get(key)
        if found is None:
            found = sessions[key] = SessionAnalysis(key=_key_dict(key))
        return found

    for record in records:
        kind = record.get("type")
        if not isinstance(kind, str):
            warnings.append(f"record without a string 'type' key: {record!r}")
            continue
        event_counts[kind] = event_counts.get(kind, 0) + 1
        process = record.get("process")
        if isinstance(process, str):
            proc = process_stats.get(process)
            if proc is None:
                proc = process_stats[process] = ProcessStats(name=process)
            proc.n_records += 1
            proc.event_counts[kind] = proc.event_counts.get(kind, 0) + 1
            if kind == "span":
                span_name = str(record.get("name", ""))
                proc.span_s[span_name] = (
                    proc.span_s.get(span_name, 0.0)
                    + _as_float(record.get("elapsed_s"))
                )
        key = _session_key(record)
        session(key)

        if kind == "action":
            pending_actions.setdefault(key, []).append(record)
            cluster_id = _as_int(record.get("cluster"))
            gain = _as_float(record.get("gain"))
            action_kind = str(record.get("kind", "row"))
            is_removal = bool(record.get("is_removal", False))

            cluster = clusters.get(cluster_id)
            if cluster is None:
                cluster = clusters[cluster_id] = ClusterStats(cluster=cluster_id)
            cluster.actions += 1
            cluster.gain_sum += gain
            if is_removal:
                cluster.evictions += 1
            else:
                cluster.admissions += 1
            cluster.last_residue = _as_float(record.get("residue"))
            cluster.last_volume = _as_int(record.get("volume"))

            slot_key = (action_kind, cluster_id)
            slot = slots.get(slot_key)
            if slot is None:
                slot = slots[slot_key] = SlotStats(
                    kind=action_kind, cluster=cluster_id
                )
                slot_gains[slot_key] = []
            slot.actions += 1
            slot.gain_sum += gain
            if is_removal:
                slot.evictions += 1
            else:
                slot.admissions += 1
            gains = slot_gains[slot_key]
            if not gains:
                slot.gain_min = gain
                slot.gain_max = gain
            else:
                slot.gain_min = min(slot.gain_min, gain)
                slot.gain_max = max(slot.gain_max, gain)
            gains.append(gain)

        elif kind == "seed":
            cluster_id = _as_int(record.get("cluster"))
            cluster = clusters.get(cluster_id)
            if cluster is None:
                cluster = clusters[cluster_id] = ClusterStats(cluster=cluster_id)
            if record.get("origin") == "reseed":
                cluster.reseeds += 1
            else:
                cluster.seeds += 1
            residue = record.get("residue")
            if residue is not None:
                cluster.last_residue = _as_float(residue)
            volume = record.get("volume")
            if volume is not None:
                cluster.last_volume = _as_int(volume)

        elif kind == "span":
            name = str(record.get("name", ""))
            elapsed = _as_float(record.get("elapsed_s"))
            agg = span_agg.get(name)
            if agg is None:
                span_agg[name] = {"count": 1.0, "total_s": elapsed}
            else:
                agg["count"] += 1.0
                agg["total_s"] += elapsed
            pending = pending_spans.setdefault(key, {})
            pending[name] = pending.get(name, 0.0) + elapsed

        elif kind == "iteration":
            actions = pending_actions.pop(key, [])
            sweep = SweepStats(
                index=_as_int(record.get("index")),
                residue=_as_float(record.get("residue")),
                score=_as_float(record.get("score")),
                total_volume=_as_int(record.get("total_volume")),
                n_actions=_as_int(record.get("n_actions")),
                improved=bool(record.get("improved", False)),
                elapsed_s=_as_float(record.get("elapsed_s")),
                span_s=pending_spans.pop(key, {}),
            )
            touched = set()
            for action in actions:
                sweep.actions_observed += 1
                sweep.gain_sum += _as_float(action.get("gain"))
                touched.add(_as_int(action.get("cluster")))
                if bool(action.get("is_removal", False)):
                    sweep.evictions += 1
                else:
                    sweep.admissions += 1
                if str(action.get("kind", "row")) == "row":
                    sweep.row_actions += 1
                else:
                    sweep.col_actions += 1
            sweep.clusters_touched = len(touched)
            if sweep.actions_observed != sweep.n_actions:
                warnings.append(
                    f"sweep {sweep.index} ({_key_dict(key) or 'no context'}): "
                    f"iteration event reports n_actions={sweep.n_actions} but "
                    f"{sweep.actions_observed} action record(s) observed "
                    "(truncated or partial capture?)"
                )
            session(key).sweeps.append(sweep)

        elif kind == "task":
            status = str(record.get("status", ""))
            if status in ("completed", "failed"):
                error = record.get("error")
                tasks.append(TaskRun(
                    restart=_as_int(record.get("restart")),
                    attempt=_as_int(record.get("attempt")),
                    wave=_as_int(record.get("wave"), default=-1),
                    status=status,
                    elapsed_s=_as_float(record.get("elapsed_s")),
                    error=None if error is None else str(error),
                ))

        elif kind == "retry":
            wave = _as_int(record.get("wave"), default=-1)
            wave_retries[wave] = wave_retries.get(wave, 0) + 1

        elif kind == "fault":
            wave = _as_int(record.get("wave"), default=-1)
            wave_faults[wave] = wave_faults.get(wave, 0) + 1

        elif kind == "resource":
            resources.append(ResourceStats(
                restart=_as_int(record.get("restart")),
                attempt=_as_int(record.get("attempt")),
                max_rss_kb=_as_float(record.get("max_rss_kb")),
                user_cpu_s=_as_float(record.get("user_cpu_s")),
                sys_cpu_s=_as_float(record.get("sys_cpu_s")),
            ))

        elif kind not in known_types:
            # Unknown event types are counted but otherwise ignored, so
            # traces from newer emitters still analyze.
            pass

    for key, actions in sorted(
        pending_actions.items(),
        key=lambda item: tuple(_sort_token(part) for part in item[0]),
    ):
        if actions:
            session(key).dangling_actions = len(actions)
            warnings.append(
                f"{len(actions)} action record(s) after the last iteration "
                f"event ({_key_dict(key) or 'no context'}): interrupted run?"
            )

    # Shared-edge histograms across every slot so they are comparable.
    all_gains = [gain for gains in slot_gains.values() for gain in gains]
    if all_gains:
        lo, hi = min(all_gains), max(all_gains)
        for slot_key, slot in slots.items():
            slot.histogram = _histogram(slot_gains[slot_key], lo, hi)

    ordered_sessions = [
        sessions[key]
        for key in sorted(
            sessions,
            key=lambda k: tuple(_sort_token(part) for part in k),
        )
    ]
    ordered_clusters = [clusters[c] for c in sorted(clusters)]
    ordered_slots = [slots[k] for k in sorted(slots)]

    # Wave timeline + straggler flags from the terminal task attempts.
    tasks.sort(key=lambda t: (t.wave, t.restart, t.attempt))
    waves: List[WaveStats] = []
    wave_indices = sorted(
        {task.wave for task in tasks} | set(wave_retries) | set(wave_faults)
    )
    for index in wave_indices:
        wave_tasks = [t for t in tasks if t.wave == index]
        done = [t for t in wave_tasks if t.status == "completed"]
        elapsed = [t.elapsed_s for t in done]
        median = statistics.median(elapsed) if elapsed else 0.0
        if len(done) >= 2 and median > 0.0:
            for task in done:
                if task.elapsed_s > straggler_factor * median:
                    task.is_straggler = True
        waves.append(WaveStats(
            index=index,
            completed=len(done),
            failed=sum(1 for t in wave_tasks if t.status == "failed"),
            retries=wave_retries.get(index, 0),
            faults=wave_faults.get(index, 0),
            median_elapsed_s=median,
            max_elapsed_s=max(elapsed, default=0.0),
            stragglers=sum(1 for t in done if t.is_straggler),
        ))

    resources.sort(key=lambda r: (r.restart, r.attempt))
    return TraceAnalysis(
        n_records=len(records),
        event_counts=event_counts,
        sessions=ordered_sessions,
        clusters=ordered_clusters,
        slots=ordered_slots,
        spans={name: span_agg[name] for name in sorted(span_agg)},
        warnings=warnings,
        tasks=tasks,
        waves=waves,
        resources=resources,
        processes=[
            process_stats[name] for name in sorted(process_stats)
        ],
    )


def analyze_trace(
    path: Union[str, Path],
    strict: bool = False,
    straggler_factor: float = DEFAULT_STRAGGLER_FACTOR,
) -> TraceAnalysis:
    """Load a JSONL trace file and aggregate it.

    ``strict=False`` (the default) tolerates corrupt lines -- a
    truncated final line from a run interrupted mid-write, or damaged
    interior records -- and reports every skipped line number in
    ``warnings``; see :func:`repro.obs.sinks.read_jsonl`.  Works on
    single-process traces and merged session traces alike;
    ``straggler_factor`` tunes the wave-median multiple past which a
    completed task is flagged as a straggler.
    """
    skipped: List[int] = []
    records = read_jsonl(str(path), strict=strict, skipped=skipped)
    analysis = analyze_records(records, straggler_factor=straggler_factor)
    if skipped:
        shown = ", ".join(str(line) for line in skipped[:5])
        if len(skipped) > 5:
            shown += ", ..."
        analysis.warnings.append(
            f"{len(skipped)} corrupt line(s) skipped while reading the "
            f"trace (line {shown}): damaged or interrupted recording?"
        )
    return analysis


# ----------------------------------------------------------------------
# Twinned-run diffing (exact-vs-fast gain audits)
# ----------------------------------------------------------------------
@dataclass
class IterationDelta:
    """One aligned ``iteration`` pair from two twinned traces."""

    key: Dict[str, object]
    index: int
    residue_a: float
    residue_b: float
    volume_a: int
    volume_b: int
    actions_a: int
    actions_b: int

    @property
    def residue_delta(self) -> float:
        """``b - a``: positive when B converged to a worse residue."""
        return self.residue_b - self.residue_a

    @property
    def volume_delta(self) -> int:
        return self.volume_b - self.volume_a

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": dict(self.key),
            "index": self.index,
            "residue_a": self.residue_a,
            "residue_b": self.residue_b,
            "residue_delta": self.residue_delta,
            "volume_a": self.volume_a,
            "volume_b": self.volume_b,
            "volume_delta": self.volume_delta,
            "actions_a": self.actions_a,
            "actions_b": self.actions_b,
        }


@dataclass
class TraceDiff:
    """Aligned comparison of two traces' ``iteration`` streams."""

    deltas: List[IterationDelta]
    n_only_a: int
    n_only_b: int

    @property
    def max_abs_residue_delta(self) -> float:
        return max((abs(d.residue_delta) for d in self.deltas), default=0.0)

    @property
    def mean_abs_residue_delta(self) -> float:
        if not self.deltas:
            return 0.0
        return sum(abs(d.residue_delta) for d in self.deltas) / len(self.deltas)

    @property
    def final_residue_delta(self) -> float:
        return self.deltas[-1].residue_delta if self.deltas else 0.0

    def first_divergence(self, tol: float = 0.0) -> Optional[IterationDelta]:
        """First aligned iteration where |residue delta| exceeds ``tol``."""
        for delta in self.deltas:
            if abs(delta.residue_delta) > tol:
                return delta
        return None

    def to_dict(self, tol: float = 0.0) -> Dict[str, object]:
        first = self.first_divergence(tol)
        return {
            "schema": 1,
            "deltas": [delta.to_dict() for delta in self.deltas],
            "n_aligned": len(self.deltas),
            "n_only_a": self.n_only_a,
            "n_only_b": self.n_only_b,
            "max_abs_residue_delta": self.max_abs_residue_delta,
            "mean_abs_residue_delta": self.mean_abs_residue_delta,
            "final_residue_delta": self.final_residue_delta,
            "first_divergence_index": None if first is None else first.index,
        }


def _iteration_index(
    records: Sequence[Record],
) -> Dict[Tuple[Tuple[object, ...], int], Record]:
    """``(session key, iteration index) -> iteration record`` map."""
    out: Dict[Tuple[Tuple[object, ...], int], Record] = {}
    for record in records:
        if record.get("type") != "iteration":
            continue
        out[(_session_key(record), _as_int(record.get("index")))] = record
    return out


def diff_traces(
    records_a: Sequence[Record],
    records_b: Sequence[Record],
) -> TraceDiff:
    """Align two traces' ``iteration`` events and quantify divergence.

    Alignment is by ``(trial, restart, iteration index)``.  Iterations
    present in only one trace (one run converged earlier, or performed
    extra reseed rounds) are counted, not paired.  The canonical use is
    the frozen-bases gain audit: run twinned sessions with
    ``gain_mode="exact"`` and ``"fast"`` on the same seed and diff the
    traces to see where (and by how much) the estimate steers the search
    off the exact objective's path.
    """
    index_a = _iteration_index(records_a)
    index_b = _iteration_index(records_b)
    shared = sorted(
        set(index_a) & set(index_b),
        key=lambda pair: (
            tuple(_sort_token(part) for part in pair[0]),
            pair[1],
        ),
    )
    deltas: List[IterationDelta] = []
    for key, index in shared:
        a = index_a[(key, index)]
        b = index_b[(key, index)]
        deltas.append(IterationDelta(
            key=_key_dict(key),
            index=index,
            residue_a=_as_float(a.get("residue")),
            residue_b=_as_float(b.get("residue")),
            volume_a=_as_int(a.get("total_volume")),
            volume_b=_as_int(b.get("total_volume")),
            actions_a=_as_int(a.get("n_actions")),
            actions_b=_as_int(b.get("n_actions")),
        ))
    return TraceDiff(
        deltas=deltas,
        n_only_a=len(set(index_a) - set(index_b)),
        n_only_b=len(set(index_b) - set(index_a)),
    )
