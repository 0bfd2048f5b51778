"""Worker-side entrypoint for supervised restart tasks.

:func:`execute_restart_task` is the module-level function the supervisor
submits to its :class:`~concurrent.futures.ProcessPoolExecutor` (it must
be importable by name so it pickles).  Each invocation is a pure,
seed-addressable unit of work: restart ``i`` of the session described by
a :class:`~repro.runtime.config.RunConfig` draws its private RNG stream
from ``restart_seed(config.root_seed, i)``, so *any* process -- first
attempt, retry, or resume -- reproduces the identical result.

The worker persists its own restart record (atomic write + digest)
before acking, so a success ack always implies a durable checkpoint.
Fault hooks (:func:`repro.runtime.faults.inject`) run at worker start,
around the checkpoint write, and at worker end -- keyed off the
``REPRO_FAULT_PLAN`` environment variable, which child processes
inherit.

Session tracing: when the payload carries a ``trace`` context
(:class:`~repro.obs.session.TraceContext` dict, attached by the
supervisor for ``--trace`` runs), the restart executes under a real
tracer backed by this worker's durable JSONL shard
(:func:`~repro.obs.session.open_worker_tracer`), and the worker samples
``resource.getrusage`` around the restart -- peak RSS plus user/sys CPU
*deltas*, since pool processes are reused -- reporting the telemetry in
both the shard (:class:`~repro.obs.events.ResourceEvent`) and the
durable record/ack (digest-exempt: telemetry is nondeterministic
observation, never part of the restart's identity).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Union

try:  # pragma: no cover - resource is stdlib on every POSIX platform
    import resource
except ImportError:  # pragma: no cover - e.g. Windows
    resource = None  # type: ignore[assignment]

from ..core.matrix import DataMatrix
from ..core.mining import run_restart
from ..data.io import write_json_atomic
from ..obs.perf.counters import WorkCounters
from ..obs.tracer import NULL_TRACER, Tracer
from .checkpoint import record_digest, result_to_record
from .config import RunConfig
from .faults import FaultSpec, inject

__all__ = ["TaskPayload", "execute_restart_task"]

#: The argument bundle pickled to workers (kept a plain dict so the
#: payload survives refactors of either side independently).
TaskPayload = Dict[str, object]


def _corrupt_bytes(text: str) -> str:
    """Deterministically garble a serialized record (media-corruption
    model): truncate the tail and damage the JSON structure."""
    keep = max(1, len(text) // 2)
    return text[:keep] + "\x00corrupt"


def _write_record(
    run_dir: Path,
    restart: int,
    record: Dict[str, object],
    corrupt: Optional[FaultSpec],
) -> None:
    path = run_dir / "restarts" / f"restart-{restart:05d}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if corrupt is None:
        write_json_atomic(path, record)
        return
    # Injected corruption: the atomic rename still happens (the write
    # itself succeeded from the filesystem's point of view) but the
    # payload bytes are damaged, which the digest check catches on load.
    text = _corrupt_bytes(json.dumps(record, sort_keys=True))
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _rusage_telemetry(
    before: Optional["resource.struct_rusage"],
) -> Optional[Dict[str, float]]:
    """Peak RSS + CPU-time deltas for the restart that just finished.

    ``ru_maxrss`` is a high-water mark (absolute, kilobytes on Linux);
    CPU times are deltas against the pre-restart snapshot because pool
    processes are reused across tasks.  Returns ``None`` where the
    ``resource`` module is unavailable.
    """
    if resource is None or before is None:
        return None
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "max_rss_kb": float(after.ru_maxrss),
        "user_cpu_s": round(after.ru_utime - before.ru_utime, 6),
        "sys_cpu_s": round(after.ru_stime - before.ru_stime, 6),
    }


def execute_restart_task(payload: TaskPayload) -> Dict[str, object]:
    """Run one restart, persist its record, and return a small ack.

    ``payload`` keys: ``matrix`` (:class:`DataMatrix`), ``config``
    (:meth:`RunConfig.to_dict` output), ``restart``, ``attempt``,
    ``run_dir``, and optionally ``trace`` (a session
    :class:`~repro.obs.session.TraceContext` dict).  The ack is
    ``{"restart", "attempt", "digest"}`` plus ``telemetry`` when rusage
    is available -- the record itself is read back from disk by the
    supervisor, which both verifies durability and keeps the pooled
    result byte-identical between uninterrupted and resumed runs.
    """
    restart = int(payload["restart"])  # type: ignore[arg-type]
    attempt = int(payload["attempt"])  # type: ignore[arg-type]
    config = RunConfig.from_dict(dict(payload["config"]))  # type: ignore[arg-type]
    matrix = payload["matrix"]
    if not isinstance(matrix, DataMatrix):
        matrix = DataMatrix(matrix)
    run_dir = Path(str(payload["run_dir"]))
    trace_ctx = payload.get("trace")

    tracer: Tracer = NULL_TRACER
    if isinstance(trace_ctx, dict):
        from ..obs.session import open_worker_tracer

        tracer = open_worker_tracer(run_dir, trace_ctx, restart, attempt)
    try:
        inject("worker_start", restart, attempt)

        rusage_before = (
            resource.getrusage(resource.RUSAGE_SELF)
            if resource is not None
            else None
        )

        # Supervised restarts always count work: counting never changes
        # the result, and the counters ride the checkpoint record so
        # resumed and uninterrupted sessions report identical totals for
        # free.
        work = WorkCounters()
        result = run_restart(
            matrix,
            restart,
            residue_target=config.residue_target,
            root_seed=config.root_seed,
            k=config.k,
            min_rows=config.min_rows,
            min_cols=config.min_cols,
            alpha=config.alpha,
            p=config.p,
            reseed_rounds=config.reseed_rounds,
            ordering=config.ordering,
            gain_mode=config.gain_mode,
            max_iterations=config.max_iterations,
            tracer=tracer,
            work=work,
        )

        telemetry = _rusage_telemetry(rusage_before)

        # Telemetry is attached *after* the digest is computed inside
        # result_to_record and is digest-exempt (see record_digest), so
        # the record still verifies and pooled results stay bit-exact.
        record = result_to_record(restart, result)
        if telemetry is not None:
            record["telemetry"] = telemetry
            if tracer.enabled:
                from ..obs.events import ResourceEvent

                tracer.emit(ResourceEvent(
                    restart=restart,
                    attempt=attempt,
                    max_rss_kb=telemetry["max_rss_kb"],
                    user_cpu_s=telemetry["user_cpu_s"],
                    sys_cpu_s=telemetry["sys_cpu_s"],
                ))
        corrupt = inject("checkpoint", restart, attempt)
        _write_record(run_dir, restart, record, corrupt)

        inject("worker_end", restart, attempt)
        ack: Dict[str, object] = {
            "restart": restart,
            "attempt": attempt,
            "digest": record_digest(record),
        }
        if telemetry is not None:
            ack["telemetry"] = telemetry
        return ack
    finally:
        tracer.close()
