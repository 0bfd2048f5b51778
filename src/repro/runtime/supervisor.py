"""Supervised parallel execution of mining restarts.

The supervisor decomposes a mining session into seed-addressable
restart tasks (:func:`repro.core.mining.run_restart` via
:mod:`repro.runtime.worker`), schedules them on a
:class:`~concurrent.futures.ProcessPoolExecutor`, and survives the
three classic failure modes:

* **exceptions** -- a task raising is retried with exponential backoff;
* **timeouts** -- a wave that exceeds its time budget has its
  stragglers terminated and re-queued;
* **crashes** -- an abrupt worker death (``os._exit``, OOM-kill) breaks
  the pool; the supervisor rebuilds a fresh pool for the next wave and
  retries the affected tasks.

Execution proceeds in *waves*: all currently-runnable tasks are
submitted to a fresh pool, harvested, and failures that still have
retry budget are queued for the next wave after a jittered backoff.
A broken pool therefore never poisons more than the remainder of one
wave.

Determinism: every task's output is a pure function of
``(matrix, config identity, restart index)`` -- retries and resumes
reproduce bit-identical records -- and the final pooled result is
always built from the durable checkpoint records in restart order.
An uninterrupted run, a crash-riddled run, and a resumed run of the
same session all serialize byte-for-byte identically.  Backoff jitter
draws from a dedicated spawned RNG stream
(``SeedSequence(root_seed, spawn_key=(BACKOFF_STREAM_KEY,))``), so
scheduling noise can never perturb mining results.

When retry budgets exhaust, the supervisor degrades gracefully: the
:class:`RuntimeResult` carries a :class:`DegradationReport` naming the
lost restarts, and the pooled clustering is built from the restarts
that did complete (``None`` only when *every* restart was lost).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from tempfile import mkdtemp
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Union

import numpy as np

from ..core.matrix import DataMatrix
from ..core.mining import MiningResult, pool_mining_results
from ..obs.tracer import NULL_TRACER, Tracer
from .checkpoint import (
    CheckpointError,
    CheckpointStore,
    record_digest,
    record_to_result,
)
from .config import RunConfig
from .faults import load_plan_from_env
from .worker import TaskPayload, execute_restart_task

if TYPE_CHECKING:
    from ..obs.session import SessionTrace

__all__ = [
    "BACKOFF_STREAM_KEY",
    "DegradationReport",
    "RuntimeResult",
    "TaskFailure",
    "resume_run",
    "run_supervised",
]

#: Spawn key of the backoff-jitter RNG stream.  Large and fixed so it
#: can never collide with a restart index (restart ``i`` uses
#: ``spawn_key=(i,)``).
BACKOFF_STREAM_KEY = 0x5AFE_B0FF

SleepFn = Callable[[float], None]
PathLike = Union[str, Path]


@dataclass(frozen=True)
class TaskFailure:
    """One failed attempt that exhausted its retry budget."""

    restart: int
    attempt: int
    kind: str  # "exception" | "timeout" | "crash" | "corrupt"
    error: str


@dataclass(frozen=True)
class DegradationReport:
    """What was lost when the supervisor gave up on some restarts.

    Returned *instead of raising* so callers still receive the pooled
    result of every restart that did complete.
    """

    failures: List[TaskFailure] = field(default_factory=list)
    completed: List[int] = field(default_factory=list)
    missing: List[int] = field(default_factory=list)

    @property
    def message(self) -> str:
        lost = ", ".join(str(i) for i in self.missing)
        return (
            f"{len(self.missing)} of "
            f"{len(self.missing) + len(self.completed)} restarts lost "
            f"after exhausting retries (restarts: {lost}); pooled result "
            f"covers the {len(self.completed)} completed restart(s)"
        )


@dataclass
class RuntimeResult:
    """Outcome of a supervised (or resumed) mining session."""

    result: Optional[MiningResult]
    run_dir: Path
    executed: List[int] = field(default_factory=list)
    skipped: List[int] = field(default_factory=list)
    degradation: Optional[DegradationReport] = None
    #: Merged cross-process session trace (``session_trace=True`` runs).
    session_trace: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return self.degradation is None and self.result is not None


@dataclass
class _Attempt:
    """Supervisor-side bookkeeping for one in-flight task."""

    restart: int
    attempt: int
    started: float = 0.0


def _backoff_delay(rng: np.random.Generator, base: float, attempt: int) -> float:
    """Exponential backoff with half-width jitter: ``base * 2^attempt``
    scaled by a factor drawn uniformly from ``[0.5, 1.0)``."""
    return base * (2.0 ** attempt) * (0.5 + 0.5 * float(rng.random()))


def _emit_plan_fault(
    tracer: Tracer, restart: int, attempt: int
) -> None:
    """Attribute an observed failure to the active fault plan, if any.

    Supervisor-side best effort: when ``REPRO_FAULT_PLAN`` is set and an
    entry targets this (restart, attempt), emit a :class:`FaultEvent` so
    chaos traces show which failures were injected rather than organic.
    """
    if not tracer.enabled:
        return
    try:
        plan = load_plan_from_env()
    except ValueError:
        return
    if plan is None:
        return
    for spec in plan.specs:
        if (spec.restart is None or spec.restart == restart) \
                and attempt < spec.attempts:
            from ..obs.events import FaultEvent

            tracer.emit(FaultEvent(site=spec.site, kind=spec.kind,
                                   restart=restart, attempt=attempt))
            return


def _emit_task(
    tracer: Tracer, restart: int, status: str, attempt: int = 0,
    elapsed_s: float = 0.0, error: Optional[str] = None,
) -> None:
    """Emit a :class:`~repro.obs.events.TaskEvent` when tracing: an
    untraced session builds no event and loads no event vocabulary."""
    if tracer.enabled:
        from ..obs.events import TaskEvent

        tracer.emit(TaskEvent(restart=restart, status=status,
                              attempt=attempt, elapsed_s=elapsed_s,
                              error=error))


def _observe_telemetry(tracer: Tracer, telemetry: object) -> None:
    """Surface a completed ack's rusage telemetry as ``runtime.task.*``
    metrics (no-op when the worker platform had no ``resource``)."""
    if not isinstance(telemetry, dict):
        return
    for key in ("max_rss_kb", "user_cpu_s", "sys_cpu_s"):
        value = telemetry.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            tracer.observe(f"runtime.task.{key}", float(value))


def _terminate_stragglers(executor: ProcessPoolExecutor) -> None:
    """Hard-stop worker processes that outlived the wave budget.

    Reaches into the executor's process table (no public API exists);
    guarded so behavior degrades to a plain shutdown on other
    implementations.
    """
    processes = getattr(executor, "_processes", None)
    if not processes:
        return
    for process in list(processes.values()):
        terminate = getattr(process, "terminate", None)
        if terminate is not None:
            terminate()


def _run_wave(
    matrix: DataMatrix,
    config: RunConfig,
    run_dir: Path,
    wave: List[_Attempt],
    tracer: Tracer,
    session: Optional[SessionTrace] = None,
) -> Dict[int, Optional[str]]:
    """Execute one wave of tasks on a fresh pool.

    Returns ``{restart: None}`` for successes and
    ``{restart: "kind: detail"}`` for failures.  The pool is always torn
    down afterwards, so a crash in this wave cannot leak into the next.
    """
    outcomes: Dict[int, Optional[str]] = {}
    n_workers = min(config.workers, len(wave))
    rounds = math.ceil(len(wave) / n_workers)
    budget: Optional[float] = None
    if config.task_timeout is not None:
        budget = config.task_timeout * rounds

    executor = ProcessPoolExecutor(max_workers=n_workers)
    clock = tracer.clock
    wave_start = clock()
    try:
        futures: Dict["Future[Dict[str, object]]", _Attempt] = {}
        for task in wave:
            payload: TaskPayload = {
                "matrix": matrix,
                "config": config.to_dict(),
                "restart": task.restart,
                "attempt": task.attempt,
                "run_dir": str(run_dir),
            }
            if session is not None:
                # Dispatch-time anchor: the worker pairs this session
                # clock reading with its own to align its timestamps.
                payload["trace"] = session.task_context(
                    task.restart, task.attempt
                )
            task.started = clock()
            _emit_task(tracer, restart=task.restart, status="dispatched",
                       attempt=task.attempt)
            futures[executor.submit(execute_restart_task, payload)] = task

        pending = set(futures)
        while pending:
            remaining: Optional[float] = None
            if budget is not None:
                remaining = budget - (clock() - wave_start)
                if remaining <= 0:
                    break
            done, pending = wait(pending, timeout=remaining,
                                 return_when=FIRST_COMPLETED)
            if not done and budget is not None:
                break  # budget exhausted with stragglers still running
            for future in done:
                task = futures[future]
                elapsed = clock() - task.started
                try:
                    ack = future.result()
                except BrokenProcessPool as exc:
                    outcomes[task.restart] = f"crash: {exc}"
                    _emit_task(tracer, restart=task.restart, status="failed",
                               attempt=task.attempt, elapsed_s=elapsed,
                               error="BrokenProcessPool")
                except Exception as exc:
                    outcomes[task.restart] = (
                        f"exception: {type(exc).__name__}: {exc}"
                    )
                    _emit_task(tracer, restart=task.restart, status="failed",
                               attempt=task.attempt, elapsed_s=elapsed,
                               error=type(exc).__name__)
                else:
                    outcomes[task.restart] = None
                    _emit_task(tracer, restart=task.restart, status="completed",
                               attempt=task.attempt, elapsed_s=elapsed)
                    tracer.inc("runtime.ack.digest_ok",
                               int(bool(ack.get("digest"))))
                    _observe_telemetry(tracer, ack.get("telemetry"))

        for future, task in futures.items():
            if task.restart in outcomes:
                continue
            future.cancel()
            outcomes[task.restart] = (
                f"timeout: exceeded wave budget of {budget:.3f}s"
            )
            _emit_task(tracer, restart=task.restart, status="failed",
                       attempt=task.attempt,
                       elapsed_s=clock() - task.started, error="Timeout")
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
        _terminate_stragglers(executor)

    return outcomes


def run_supervised(
    matrix: Union[DataMatrix, np.ndarray],
    config: RunConfig,
    *,
    run_dir: Optional[PathLike] = None,
    resume: bool = False,
    tracer: Tracer = NULL_TRACER,
    sleep: SleepFn = time.sleep,
    backoff_base: float = 0.1,
    session_trace: bool = False,
) -> RuntimeResult:
    """Mine ``config.n_restarts`` restarts under supervision.

    Parameters
    ----------
    matrix:
        The data matrix (raw arrays are wrapped).
    config:
        The session description; its identity fields plus the matrix
        fully determine the result.
    run_dir:
        Checkpoint directory.  ``None`` creates a throwaway directory
        (checkpoints are still written -- the pooled result is *always*
        built from durable records, which is what makes resumed runs
        bit-identical to uninterrupted ones).
    resume:
        Attach to an existing run directory instead of initializing it;
        completed restarts are verified and skipped.
    tracer:
        Receives ``task`` / ``retry`` / ``fault`` events and the
        ``runtime.*`` metrics.
    sleep:
        Injection point for the backoff delay (tests pass a recorder).
    backoff_base:
        First-retry backoff in seconds; doubles per attempt, with
        multiplicative jitter in ``[0.5, 1.0)``.
    session_trace:
        Record a cross-process session trace
        (:mod:`repro.obs.session`): the supervisor writes a JSONL shard
        under ``<run_dir>/traces/``, each worker writes its restart's
        records into that restart's checkpoint record, and the two are
        merged into ``traces/trace_session.jsonl`` on completion
        (:attr:`RuntimeResult.session_trace`).  Tracing never perturbs
        mining -- traced runs stay bit-identical to untraced ones.
    """
    if not isinstance(matrix, DataMatrix):
        matrix = DataMatrix(matrix)
    # Every worker would fail on a seed that cannot fit: refuse it first.
    config.check_shape(matrix.shape)
    if run_dir is None:
        if resume:
            raise ValueError("resume=True requires an explicit run_dir")
        run_dir = Path(mkdtemp(prefix="repro-run-"))
    run_dir = Path(run_dir)

    if resume:
        store = CheckpointStore.open(run_dir)
        store.verify_config(config)
    else:
        store = CheckpointStore.create(run_dir, config)

    session: Optional[SessionTrace] = None
    if session_trace:
        from ..obs.session import SessionTrace

        session = SessionTrace.create(run_dir, config.identity())
        # attach() returns the tracer to use from here on: the caller's
        # (now also feeding the supervisor shard) or, when the caller's
        # is disabled, a fresh shard-only tracer -- NULL_TRACER is
        # shared and must never be mutated.
        tracer = session.attach(tracer)

    try:
        completed: Set[int] = store.completed_restarts()
        skipped = sorted(completed)
        for restart in skipped:
            _emit_task(tracer, restart=restart, status="skipped")
            tracer.inc("runtime.tasks.skipped")

        attempts: Dict[int, int] = {
            i: 0 for i in config.restart_indices() if i not in completed
        }
        executed = sorted(attempts)
        failures: List[TaskFailure] = []
        backoff_rng = np.random.default_rng(
            np.random.SeedSequence(config.root_seed,
                                   spawn_key=(BACKOFF_STREAM_KEY,))
        )

        pending = sorted(attempts)
        wave_index = 0
        while pending:
            wave = [_Attempt(restart=i, attempt=attempts[i]) for i in pending]
            # Every task/retry/fault event of this wave carries a `wave`
            # context key, so live sinks (ConsoleProgressSink) and recorded
            # traces can show wave-by-wave progress of long sessions.
            if tracer.enabled:
                tracer.push_context(wave=wave_index)
            try:
                tracer.inc("runtime.waves")
                outcomes = _run_wave(matrix, config, run_dir, wave, tracer,
                                     session)
                pending = []
                wave_backoff = 0.0
                for restart in sorted(outcomes):
                    error = outcomes[restart]
                    attempt = attempts[restart]
                    if error is None:
                        # Durability check: re-read the record the worker
                        # claims to have persisted; a corrupt record demotes
                        # the task back to failed.
                        try:
                            record = store.load_record(restart)
                        except CheckpointError as exc:
                            error = f"corrupt: {exc}"
                        else:
                            store.mark_done(restart, str(record["digest"]))
                            completed.add(restart)
                            tracer.inc("runtime.tasks.completed")
                            continue
                    kind = error.split(":", 1)[0]
                    tracer.inc("runtime.tasks.failed")
                    tracer.inc(f"runtime.failures.{kind}")
                    _emit_plan_fault(tracer, restart, attempt)
                    if attempt < config.max_retries:
                        attempts[restart] = attempt + 1
                        delay = _backoff_delay(backoff_rng, backoff_base,
                                               attempt)
                        wave_backoff = max(wave_backoff, delay)
                        if tracer.enabled:
                            from ..obs.events import RetryEvent

                            tracer.emit(RetryEvent(
                                restart=restart, attempt=attempt,
                                backoff_s=delay,
                                remaining=config.max_retries - attempt - 1,
                                error=kind))
                        tracer.inc("runtime.retries")
                        pending.append(restart)
                    else:
                        failures.append(TaskFailure(
                            restart=restart, attempt=attempt, kind=kind,
                            error=error))
            finally:
                if tracer.enabled:
                    tracer.pop_context()
            wave_index += 1
            if pending and wave_backoff > 0:
                sleep(wave_backoff)
            pending.sort()

        outcome = _finalize(matrix, config, store, tracer,
                            executed=[i for i in executed if i in completed],
                            skipped=skipped, failures=failures)
    finally:
        if session is not None:
            session.detach()

    if session is not None:
        # Merge after detach so the supervisor shard is closed/durable;
        # merging the same run directory is byte-deterministic.
        outcome.session_trace = session.merge()
    return outcome


def _finalize(
    matrix: DataMatrix,
    config: RunConfig,
    store: CheckpointStore,
    tracer: Tracer,
    *,
    executed: List[int],
    skipped: List[int],
    failures: List[TaskFailure],
) -> RuntimeResult:
    """Pool the durable records into the session result."""
    records = store.completed_records()
    completed = sorted(records)
    runs = [record_to_result(records[i], matrix) for i in completed]
    result: Optional[MiningResult] = None
    if runs:
        result = pool_mining_results(matrix, runs, config)
        result.metrics = tracer.snapshot_metrics() if tracer.enabled else None
        result.trace_summary = tracer.summary() if tracer.enabled else None
        pooled_payload = {
            "clusters": [
                [list(c.rows), list(c.cols)] for c in result.clustering
            ],
        }
        store.update_best(
            record_digest(pooled_payload),
            result.clustering.average_residue(),
            len(result.clustering),
        )

    degradation: Optional[DegradationReport] = None
    if failures:
        missing = sorted({f.restart for f in failures})
        degradation = DegradationReport(
            failures=list(failures), completed=completed, missing=missing)
        tracer.inc("runtime.degraded_restarts", len(missing))

    return RuntimeResult(
        result=result,
        run_dir=store.run_dir,
        executed=executed,
        skipped=skipped,
        degradation=degradation,
    )


def resume_run(
    matrix: Union[DataMatrix, np.ndarray],
    run_dir: PathLike,
    *,
    workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    tracer: Tracer = NULL_TRACER,
    sleep: SleepFn = time.sleep,
    backoff_base: float = 0.1,
    session_trace: bool = False,
) -> RuntimeResult:
    """Resume a checkpointed session from its run directory.

    The session config is read from the manifest; only the
    schedule-only knobs (``workers`` / ``task_timeout`` /
    ``max_retries``) may be overridden -- identity fields are pinned by
    the manifest, so a resume cannot silently change the session.
    ``session_trace`` resumes trace collection too: the resumed
    supervisor writes a generation-suffixed shard and the merge spans
    every generation of the session.
    """
    store = CheckpointStore.open(run_dir)
    config = store.config
    overrides: Dict[str, object] = {}
    if workers is not None:
        overrides["workers"] = workers
    if task_timeout is not None:
        overrides["task_timeout"] = task_timeout
    if max_retries is not None:
        overrides["max_retries"] = max_retries
    if overrides:
        config = replace(config, **overrides)  # type: ignore[arg-type]
    return run_supervised(
        matrix, config,
        run_dir=run_dir, resume=True,
        tracer=tracer, sleep=sleep, backoff_base=backoff_base,
        session_trace=session_trace,
    )
