"""Trace analytics: typed aggregates over recorded FLOC event streams.

FLOC emits one ``seed`` record per seed and one ``iteration`` record per
Phase-2 sweep (:mod:`repro.obs.events`); this module is the consumption
side.  It parses a recorded trace -- a list of flat record dicts,
typically from :func:`repro.obs.sinks.read_jsonl` -- into typed
aggregates:

* per **sweep** (one Phase-2 iteration): residue/score/volume and the
  action count straight off the ``iteration`` record, the prefix the
  sweep kept (``n_adopted``), the net lines it admitted and evicted, its
  gain sum and one :class:`ClusterDecision` per cluster it acted on;
* per **cluster** slot of each session: seed/reseed counts, action
  totals, gain sums, the net lines its sweeps admitted and evicted, and
  the last residue/volume the session reported;
* per **session** (one ``restart``/``trial`` context of the ``seed``
  and ``iteration`` records): the residue trajectory and sweep list, so
  one multi-restart JSONL file analyzes into separable runs.

Span timings are not in a trace: the tracer aggregates them per name
(:meth:`repro.obs.tracer.Tracer.summary`).

Everything here is pure and deterministic: the same trace produces the
same :meth:`TraceAnalysis.to_dict` -- byte-identical once serialized
with ``json.dumps(..., sort_keys=True)`` -- because no wall clock, RNG,
or environment is consulted.  Record types it does not know (the
``action`` and ``span`` records of older traces among them) are counted
and otherwise ignored.

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

from .events import _as_float, _as_int
from .sinks import read_jsonl

__all__ = [
    "DEFAULT_STRAGGLER_FACTOR",
    "ClusterDecision",
    "ClusterStats",
    "SweepStats",
    "SessionAnalysis",
    "TaskRun",
    "WaveStats",
    "ProcessStats",
    "ResourceStats",
    "TraceAnalysis",
    "IterationDelta",
    "UnpairedIteration",
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

@dataclass
class ClusterStats:
    """Lifetime view of one cluster slot of one session (``session`` is
    its key, as in :attr:`SessionAnalysis.key`): slot ``c`` of another
    restart is another cluster.

    ``actions`` and ``gain_sum`` count every performed toggle;
    ``admissions`` and ``evictions`` count the lines the sweeps left
    admitted and evicted (net of toggles a sweep undid or rolled back).
    """

    cluster: int
    session: Dict[str, object] = field(default_factory=dict)
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
            "session": dict(self.session),
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
class ClusterDecision:
    """What one sweep did to one cluster: its ``clusters`` entry.

    ``rows_in`` ... ``cols_out`` count the lines whose membership the
    sweep left changed (0 after a rollback); ``residue_before`` is the
    cluster's residue at the sweep start, ``residue`` and ``volume``
    after the sweep kept its prefix or rolled back.
    """

    cluster: int
    actions: int
    gain_sum: float
    rows_in: int
    rows_out: int
    cols_in: int
    cols_out: int
    residue_before: float
    residue: float
    volume: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "cluster": self.cluster,
            "actions": self.actions,
            "gain_sum": self.gain_sum,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "cols_in": self.cols_in,
            "cols_out": self.cols_out,
            "residue_before": self.residue_before,
            "residue": self.residue,
            "volume": self.volume,
        }


@dataclass
class SweepStats:
    """One Phase-2 sweep, read off its ``iteration`` record.

    ``residue`` ... ``n_adopted`` are copied verbatim; ``decisions``
    are the record's per-cluster entries, and ``admissions`` /
    ``evictions`` / ``gain_sum`` / ``clusters_touched`` total them, so
    admissions and evictions are the net line changes the sweep kept.
    """

    index: int
    residue: float
    score: float
    total_volume: int
    n_actions: int
    improved: bool
    elapsed_s: float
    n_adopted: int = 0
    decisions: List[ClusterDecision] = field(default_factory=list)

    @property
    def admissions(self) -> int:
        return sum(d.rows_in + d.cols_in for d in self.decisions)

    @property
    def evictions(self) -> int:
        return sum(d.rows_out + d.cols_out for d in self.decisions)

    @property
    def churn(self) -> int:
        """Net membership changes this sweep (admissions + evictions)."""
        return self.admissions + self.evictions

    @property
    def gain_sum(self) -> float:
        return sum((d.gain_sum for d in self.decisions), 0.0)

    @property
    def clusters_touched(self) -> int:
        return len(self.decisions)

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "residue": self.residue,
            "score": self.score,
            "total_volume": self.total_volume,
            "n_actions": self.n_actions,
            "improved": self.improved,
            "elapsed_s": self.elapsed_s,
            "n_adopted": self.n_adopted,
            "admissions": self.admissions,
            "evictions": self.evictions,
            "gain_sum": self.gain_sum,
            "clusters_touched": self.clusters_touched,
            "decisions": [d.to_dict() for d in self.decisions],
        }


@dataclass
class SessionAnalysis:
    """One run's slice of the trace (one ``restart``/``trial`` context)."""

    key: Dict[str, object]
    sweeps: List[SweepStats] = field(default_factory=list)

    @property
    def residue_trajectory(self) -> List[float]:
        return [sweep.residue for sweep in self.sweeps]

    @property
    def n_actions(self) -> int:
        return sum(sweep.n_actions for sweep in self.sweeps)

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

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "n_records": self.n_records,
            "event_counts": dict(self.event_counts),
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
        return sum(session.n_actions for session in self.sessions)

    @property
    def stragglers(self) -> List[TaskRun]:
        """Completed tasks that overshot their wave's straggler bound."""
        return [task for task in self.tasks if task.is_straggler]

    def to_dict(self) -> Dict[str, object]:
        """Plain nested dict; serialize with ``sort_keys=True`` for a
        byte-stable artifact (same trace -> same bytes)."""
        return {
            "schema": 4,
            "n_records": self.n_records,
            "event_counts": dict(self.event_counts),
            "sessions": [session.to_dict() for session in self.sessions],
            "clusters": [cluster.to_dict() for cluster in self.clusters],
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

    The stream is consumed in order: each ``iteration`` record is one
    sweep of the session its context keys name.  Only ``seed`` and
    ``iteration`` records open a session, so a supervisor's ``task`` and
    ``session_meta`` records add none.

    Supervised-runtime streams additionally aggregate into a wave
    timeline (:class:`WaveStats`), terminal task attempts
    (:class:`TaskRun`) with straggler flagging -- a completed task whose
    elapsed time exceeds ``straggler_factor`` times its wave's median,
    over waves with at least two completions -- worker resource reports
    (:class:`ResourceStats`), and, for merged session traces, per-process
    record counts (:class:`ProcessStats`).
    """
    event_counts: Dict[str, int] = {}
    sessions: Dict[Tuple[object, ...], SessionAnalysis] = {}
    clusters: Dict[Tuple[Tuple[object, ...], int], ClusterStats] = {}
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

    def cluster_stats(record: Record, cluster_id: int) -> ClusterStats:
        key = (_session_key(record), cluster_id)
        found = clusters.get(key)
        if found is None:
            found = clusters[key] = ClusterStats(
                cluster=cluster_id, session=_key_dict(key[0]))
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

        if kind == "seed":
            session(_session_key(record))
            cluster = cluster_stats(record, _as_int(record.get("cluster")))
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

        elif kind == "iteration":
            sweep = SweepStats(
                index=_as_int(record.get("index")),
                residue=_as_float(record.get("residue")),
                score=_as_float(record.get("score")),
                total_volume=_as_int(record.get("total_volume")),
                n_actions=_as_int(record.get("n_actions")),
                improved=bool(record.get("improved", False)),
                elapsed_s=_as_float(record.get("elapsed_s")),
                n_adopted=_as_int(record.get("n_adopted")),
                decisions=_decisions(record.get("clusters")),
            )
            for decision in sweep.decisions:
                cluster = cluster_stats(record, decision.cluster)
                cluster.actions += decision.actions
                cluster.gain_sum += decision.gain_sum
                cluster.admissions += decision.rows_in + decision.cols_in
                cluster.evictions += decision.rows_out + decision.cols_out
                cluster.last_residue = decision.residue
                cluster.last_volume = decision.volume
            session(_session_key(record)).sweeps.append(sweep)

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
        # Any other type is counted above and otherwise ignored, so
        # older traces (``action`` and ``span`` records) and newer
        # emitters analyze.

    def order(key: Tuple[object, ...]) -> Tuple[Tuple[int, float, str], ...]:
        return tuple(_sort_token(part) for part in key)

    ordered_sessions = [sessions[key] for key in sorted(sessions, key=order)]
    ordered_clusters = [
        clusters[key]
        for key in sorted(clusters, key=lambda k: (order(k[0]), k[1]))
    ]

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
        warnings=warnings,
        tasks=tasks,
        waves=waves,
        resources=resources,
        processes=[
            process_stats[name] for name in sorted(process_stats)
        ],
    )


def _decisions(entries: object) -> List[ClusterDecision]:
    """The typed ``clusters`` entries of an ``iteration`` record (none
    for a record that predates them or holds no list)."""
    if not isinstance(entries, list):
        return []

    def lines(entry: Record, name: str) -> int:
        value = entry.get(name)
        return len(value) if isinstance(value, list) else 0

    return [
        ClusterDecision(
            cluster=_as_int(entry.get("cluster")),
            actions=_as_int(entry.get("actions")),
            gain_sum=_as_float(entry.get("gain_sum")),
            rows_in=lines(entry, "rows_in"),
            rows_out=lines(entry, "rows_out"),
            cols_in=lines(entry, "cols_in"),
            cols_out=lines(entry, "cols_out"),
            residue_before=_as_float(entry.get("residue_before")),
            residue=_as_float(entry.get("residue")),
            volume=_as_int(entry.get("volume")),
        )
        for entry in entries
        if isinstance(entry, dict)
    ]


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
class UnpairedIteration:
    """An ``iteration`` event that only one of two traces holds."""

    key: Dict[str, object]
    index: int
    side: str  # "A" or "B": the trace that holds it

    def to_dict(self) -> Dict[str, object]:
        return {"key": dict(self.key), "index": self.index, "side": self.side}


@dataclass
class TraceDiff:
    """Aligned comparison of two traces' ``iteration`` streams: the
    iterations both traces hold (``deltas``) and those only one holds
    (``unpaired``), each in alignment order."""

    deltas: List[IterationDelta]
    unpaired: List[UnpairedIteration]

    @property
    def n_only_a(self) -> int:
        return sum(it.side == "A" for it in self.unpaired)

    @property
    def n_only_b(self) -> int:
        return sum(it.side == "B" for it in self.unpaired)

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

    def first_divergence(
        self, tol: float = 0.0
    ) -> Optional[Union[IterationDelta, UnpairedIteration]]:
        """First iteration, in alignment order, where the traces part:
        an aligned one whose |residue delta| exceeds ``tol``, or one
        that only one trace holds (its run stopped later)."""
        found: List[Union[IterationDelta, UnpairedIteration]] = [
            *[d for d in self.deltas if abs(d.residue_delta) > tol][:1],
            *self.unpaired[:1],
        ]
        return min(found, key=lambda it: _alignment(it.key, it.index), default=None)

    def to_dict(self, tol: float = 0.0) -> Dict[str, object]:
        """The ``--json`` document.  ``first_divergence`` names the
        session (``key``), the iteration ``index`` and, for an
        iteration only one trace holds, its ``side`` ("A"/"B"; ``None``
        for an aligned pair beyond ``tol``), or is ``None``."""
        first = self.first_divergence(tol)
        return {
            "schema": 2,
            "deltas": [delta.to_dict() for delta in self.deltas],
            "unpaired": [it.to_dict() for it in self.unpaired],
            "n_aligned": len(self.deltas),
            "n_only_a": self.n_only_a,
            "n_only_b": self.n_only_b,
            "max_abs_residue_delta": self.max_abs_residue_delta,
            "mean_abs_residue_delta": self.mean_abs_residue_delta,
            "final_residue_delta": self.final_residue_delta,
            "first_divergence": None if first is None else {
                "key": dict(first.key),
                "index": first.index,
                "side": first.side if isinstance(first, UnpairedIteration) else None,
            },
        }


def _alignment(key: Dict[str, object], index: int) -> Tuple[object, ...]:
    """Sort key of iteration ``index`` of session ``key``: by session,
    then index."""
    return tuple(_sort_token(key.get(name)) for name in _SESSION_KEYS), index


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
    extra reseed rounds) are listed as unpaired, not paired, and count
    as a divergence.  The canonical use is
    the frozen-bases gain audit: run twinned sessions with
    ``gain_mode="exact"`` and ``"fast"`` on the same seed and diff the
    traces to see where (and by how much) the estimate steers the search
    off the exact objective's path.
    """
    index_a = _iteration_index(records_a)
    index_b = _iteration_index(records_b)
    keys = sorted(
        set(index_a) | set(index_b),
        key=lambda pair: _alignment(_key_dict(pair[0]), pair[1]),
    )
    deltas: List[IterationDelta] = []
    unpaired: List[UnpairedIteration] = []
    for key, index in keys:
        a = index_a.get((key, index))
        b = index_b.get((key, index))
        if a is None or b is None:
            unpaired.append(UnpairedIteration(
                key=_key_dict(key), index=index, side="A" if b is None else "B",
            ))
            continue
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
    return TraceDiff(deltas=deltas, unpaired=unpaired)
