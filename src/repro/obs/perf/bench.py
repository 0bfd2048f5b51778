"""The bench harness: run workloads, write documents, compare baselines.

One bench *document* (schema ``repro.bench/1``) captures a suite run:

.. code-block:: json

    {
      "schema": "repro.bench/1",
      "suite": "smoke",
      "environment": {"python": "...", "numpy": "...", "git": "..."},
      "timing": {"<workload>": {"best_time_s": 0.12, "times_s": [...]}},
      "work":   {"<workload>": {"residue_evals": 123, ...}},
      "details": {"<workload>": {...}}
    }

The sections separate the two kinds of evidence: ``timing`` is
machine-dependent best-of-N wall time, ``work`` is the deterministic
counter section -- bit-identical across runs at a fixed seed, so two
documents from the same code MUST have byte-identical ``work`` sections
and any drift is a real algorithmic change.  :func:`compare_documents`
enforces exactly that split: timing regressions are judged against a
loose relative tolerance, counter drift against an exact (default 0%)
one.

Wall time is read through an injected ``clock`` callable defaulting to
the tracer's clock seam; this module never calls ``time.*`` directly
(lint rule DCL010), which keeps every code path reachable from the
counters wall-clock-free and the documents reproducible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..tracer import Tracer
from .counters import WorkCounters
from .fingerprint import environment_fingerprint
from .workloads import Workload, iter_workloads

__all__ = [
    "BENCH_SCHEMA",
    "ComparisonResult",
    "compare_documents",
    "document_bytes",
    "load_document",
    "parse_tolerance",
    "record_path",
    "run_suite",
    "run_workload",
    "write_document",
]

BENCH_SCHEMA = "repro.bench/1"

Clock = Callable[[], float]
#: Default clock: the tracer's seam, the one wall-clock source the
#: observability stack is allowed (and tests can stub).
DEFAULT_CLOCK: Clock = Tracer.clock


def run_workload(
    workload: Workload,
    *,
    repeats: int = 3,
    clock: Clock = DEFAULT_CLOCK,
) -> Dict[str, object]:
    """Run one workload ``repeats`` times; best-of time, checked counters.

    Every repetition runs with a fresh :class:`WorkCounters`; the
    repetitions' counters must be identical (the determinism contract),
    otherwise this raises ``RuntimeError`` rather than emit an
    untrustworthy document.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    times: List[float] = []
    counter_dicts: List[Dict[str, int]] = []
    details: Dict[str, object] = {}
    for _ in range(repeats):
        work = WorkCounters()
        started = clock()
        details = workload.run(work)
        times.append(clock() - started)
        counter_dicts.append(work.as_dict())
    for rep, counters in enumerate(counter_dicts[1:], start=2):
        if counters != counter_dicts[0]:
            raise RuntimeError(
                f"workload {workload.name!r} is not deterministic: "
                f"repetition {rep} counted {counters}, "
                f"repetition 1 counted {counter_dicts[0]}"
            )
    return {
        "name": workload.name,
        "description": workload.description,
        "repeats": repeats,
        "best_time_s": min(times),
        "times_s": times,
        "work": counter_dicts[0],
        "details": details,
    }


def run_suite(
    suite: str,
    *,
    repeats: int = 3,
    clock: Clock = DEFAULT_CLOCK,
    cwd: Optional[str] = None,
) -> Dict[str, object]:
    """Run every workload of ``suite`` into one bench document."""
    workloads = list(iter_workloads(suite))
    if not workloads:
        raise ValueError(f"no workloads registered for suite {suite!r}")
    timing: Dict[str, object] = {}
    work: Dict[str, object] = {}
    details: Dict[str, object] = {}
    for workload in workloads:
        record = run_workload(workload, repeats=repeats, clock=clock)
        timing[workload.name] = {
            "best_time_s": record["best_time_s"],
            "times_s": record["times_s"],
            "repeats": record["repeats"],
        }
        work[workload.name] = record["work"]
        details[workload.name] = record["details"]
    return {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "environment": environment_fingerprint(cwd),
        "timing": timing,
        "work": work,
        "details": details,
    }


# -- serialization -----------------------------------------------------

def document_bytes(document: Dict[str, object]) -> bytes:
    """Canonical bytes of a document (sorted keys, 2-space indent)."""
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")


def write_document(document: Dict[str, object], path: Union[str, Path]) -> Path:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(document_bytes(document))
    return target


def record_path(results_dir: Union[str, Path], document: Dict[str, object]) -> Path:
    """Content-addressed per-run record path under ``results_dir``.

    Named by content digest instead of a timestamp so the perf package
    stays wall-clock-free (DCL010) and identical runs coalesce into one
    record instead of piling up duplicates.
    """
    digest = hashlib.sha256(document_bytes(document)).hexdigest()[:12]
    suite = document.get("suite", "suite")
    return Path(results_dir) / f"bench_{suite}_{digest}.json"


def load_document(path: Union[str, Path]) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError(f"{path}: bench document must be a JSON object")
    schema = document.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: unsupported bench schema {schema!r} "
            f"(expected {BENCH_SCHEMA!r})"
        )
    return document


# -- comparison / regression detection ---------------------------------

def parse_tolerance(text: Union[str, float, None]) -> Optional[float]:
    """Parse a tolerance flag: ``"20%"`` or ``"0.2"`` -> 0.2; ``"none"``
    (or ``"inf"``) -> ``None``, meaning the dimension is not gated."""
    if text is None:
        return None
    if isinstance(text, float):
        return text
    cleaned = text.strip().lower()
    if cleaned in ("none", "inf", "infinity", "off"):
        return None
    if cleaned.endswith("%"):
        value = float(cleaned[:-1]) / 100.0
    else:
        value = float(cleaned)
    if value < 0:
        raise ValueError(f"tolerance must be >= 0, got {text!r}")
    return value


@dataclass
class ComparisonResult:
    """Outcome of :func:`compare_documents`: report lines + verdict."""

    lines: List[str] = field(default_factory=list)
    regressions: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        return "\n".join(self.lines)


def _section(document: Dict[str, object], key: str) -> Dict[str, Dict[str, object]]:
    value = document.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"bench document section {key!r} must be an object")
    return {str(k): dict(v) for k, v in value.items()}


def compare_documents(
    old: Dict[str, object],
    new: Dict[str, object],
    *,
    tol_time: Optional[float] = 0.2,
    tol_work: Optional[float] = 0.0,
) -> ComparisonResult:
    """Compare two bench documents; regressions populate ``regressions``.

    Timing fails only on slowdowns beyond ``tol_time`` (faster is never
    a regression).  Work counters fail on *any* relative drift beyond
    ``tol_work`` -- in either direction, because at the default exact
    tolerance a counter change is an algorithmic change that must be
    acknowledged by re-recording the baseline.  A ``None`` tolerance
    skips that dimension entirely.
    """
    result = ComparisonResult()
    old_work = _section(old, "work")
    new_work = _section(new, "work")
    old_timing = _section(old, "timing")
    new_timing = _section(new, "timing")

    removed = sorted(set(old_work) - set(new_work))
    added = sorted(set(new_work) - set(old_work))
    for name in removed:
        result.regressions.append(f"{name}: workload missing from new document")
    for name in added:
        result.lines.append(f"{name}: new workload (no baseline) -- skipped")

    for name in sorted(set(old_work) & set(new_work)):
        before = {k: int(v) for k, v in old_work[name].items()}  # type: ignore[arg-type]
        after = {k: int(v) for k, v in new_work[name].items()}  # type: ignore[arg-type]
        drifted: List[str] = []
        for counter in sorted(set(before) | set(after)):
            b = before.get(counter, 0)
            a = after.get(counter, 0)
            if b == a:
                continue
            delta = a - b
            rel = abs(delta) / b if b else float("inf")
            note = f"{counter}: {b} -> {a} ({delta:+d})"
            if tol_work is not None and rel > tol_work:
                drifted.append(note)
            else:
                result.lines.append(f"{name}: work {note} (within tolerance)")
        if drifted:
            result.regressions.append(
                f"{name}: work counters drifted -- " + "; ".join(drifted)
            )
        else:
            result.lines.append(f"{name}: work counters match")

        old_t = old_timing.get(name, {}).get("best_time_s")
        new_t = new_timing.get(name, {}).get("best_time_s")
        if isinstance(old_t, (int, float)) and isinstance(new_t, (int, float)):
            ratio = new_t / old_t if old_t else float("inf")
            line = (
                f"{name}: time {old_t * 1e3:.2f} ms -> {new_t * 1e3:.2f} ms "
                f"({(ratio - 1.0) * 100:+.1f}%)"
            )
            if tol_time is not None and ratio > 1.0 + tol_time:
                result.regressions.append(
                    line + f" exceeds +{tol_time * 100:.0f}% budget"
                )
            else:
                result.lines.append(line)

    old_env = old.get("environment")
    new_env = new.get("environment")
    if isinstance(old_env, dict) and isinstance(new_env, dict):
        for key in sorted(set(old_env) | set(new_env)):
            if old_env.get(key) != new_env.get(key):
                result.lines.append(
                    f"environment.{key}: {old_env.get(key)!r} -> "
                    f"{new_env.get(key)!r} (informational)"
                )
    for regression in result.regressions:
        result.lines.append(f"REGRESSION {regression}")
    return result
