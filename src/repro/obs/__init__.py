"""Observability: structured tracing, metrics and trace analytics for FLOC.

Every piece is optional and zero-cost when not requested:

* :mod:`repro.obs.tracer` -- the :class:`Tracer` handle threaded through
  :func:`repro.core.floc.floc` and friends (spans + typed events);
* :mod:`repro.obs.events` -- the typed event vocabulary
  (:class:`IterationEvent`, :class:`SeedEvent`,
  plus the runtime's :class:`TaskEvent` / :class:`RetryEvent` /
  :class:`FaultEvent`) and the record-field readers its consumers share;
* :mod:`repro.obs.metrics` -- counters / histograms with a
  plain-dict snapshot (the supervised runtime's ``runtime.*`` metrics);
* :mod:`repro.obs.sinks` -- ring buffer, JSONL writer and console
  progress reporter;
* :mod:`repro.obs.analysis` -- trace analytics: typed per-sweep /
  per-cluster aggregates over recorded traces, wave/task
  timelines with straggler detection for runtime traces, plus
  twinned-run diffing (``repro analyze-trace`` / ``repro diff-traces``);
* :mod:`repro.obs.session` -- cross-process session traces for the
  supervised runtime: the supervisor's JSONL shard, each restart's
  shard inside its checkpoint record, clock alignment, and the
  byte-deterministic merge;
* :mod:`repro.obs.export` -- Chrome trace-event / OTLP/JSON renderings
  of recorded and merged session traces (``repro export-trace``);
* :mod:`repro.obs.perf` -- the deterministic work-counter cost model
  (:class:`~repro.obs.perf.counters.WorkCounters`), the environment
  fingerprint, and the ``repro bench`` harness with machine-readable
  baselines and regression comparison.

The names below are imported on first use (:mod:`repro._lazy`): a
process that traces nothing loads no trace analytics or export code.

See ``docs/OBSERVABILITY.md`` for the event schema and recipes.
"""

from .._lazy import lazy_exports

_resolve, __dir__ = lazy_exports(__name__, {
    ".analysis": (
        "ClusterDecision", "ClusterStats", "IterationDelta", "ProcessStats",
        "ResourceStats", "SessionAnalysis", "SweepStats",
        "TaskRun", "TraceAnalysis", "TraceDiff", "UnpairedIteration", "WaveStats",
        "analyze_records", "analyze_trace", "diff_traces",
    ),
    ".events": (
        "EVENT_TYPES", "FaultEvent", "IterationEvent",
        "ResourceEvent", "RetryEvent", "SeedEvent", "TaskEvent", "TraceEvent",
        "event_fields",
    ),
    ".export": ("chrome_trace", "export_chrome", "export_otlp", "otlp_logs"),
    ".metrics": ("Counter", "Histogram", "MetricsRegistry"),
    ".perf.counters": ("WORK_COUNTER_FIELDS", "WorkCounters"),
    ".perf.fingerprint": ("environment_fingerprint", "git_revision"),
    ".session": (
        "SessionTrace", "TraceContext", "collect_session", "merge_session",
        "session_id_for",
    ),
    ".sinks": (
        "ConsoleProgressSink", "JsonlSink", "RingBufferSink", "Sink",
        "read_jsonl",
    ),
    ".tracer": ("NULL_TRACER", "Span", "Tracer"),
})

__all__ = [
    "ClusterDecision",
    "ClusterStats",
    "ConsoleProgressSink",
    "Counter",
    "EVENT_TYPES",
    "FaultEvent",
    "Histogram",
    "IterationDelta",
    "IterationEvent",
    "JsonlSink",
    "MetricsRegistry",
    "NULL_TRACER",
    "ProcessStats",
    "ResourceEvent",
    "ResourceStats",
    "RetryEvent",
    "RingBufferSink",
    "SeedEvent",
    "SessionAnalysis",
    "SessionTrace",
    "Sink",
    "Span",
    "SweepStats",
    "TaskEvent",
    "TaskRun",
    "TraceAnalysis",
    "TraceContext",
    "TraceDiff",
    "TraceEvent",
    "Tracer",
    "UnpairedIteration",
    "WORK_COUNTER_FIELDS",
    "WaveStats",
    "WorkCounters",
    "analyze_records",
    "analyze_trace",
    "chrome_trace",
    "collect_session",
    "diff_traces",
    "environment_fingerprint",
    "event_fields",
    "export_chrome",
    "export_otlp",
    "git_revision",
    "merge_session",
    "otlp_logs",
    "read_jsonl",
    "session_id_for",
]


def __getattr__(name: str) -> object:
    return _resolve(name)
