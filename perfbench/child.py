"""One mining session in a fresh process, timed from outside the program.

Usage: ``python child.py SPEC.json RESULT.json``.  The spec names one of
three entry points:

``cli``
    ``repro.cli.main(argv)`` -- the real ``repro mine`` path, plain or
    supervised.  Module-level names the CLI calls (``load_matrix_npz``,
    ``save_clusters``, ``mine_delta_clusters``) are wrapped to take
    timestamps and keep the returned result; nothing inside the mining
    loop is touched.
``mine``
    ``repro.core.mining.mine_delta_clusters`` with the CLI's defaults,
    for what the CLI has no flag for: ``gain_mode="exact"`` and a
    ``Tracer`` plus ``WorkCounters`` handed in through the public
    ``tracer=`` / ``work=`` arguments.
``supervised``
    ``repro.runtime.run_supervised`` with a session trace and a tracer
    whose sink notes when tasks are dispatched and acknowledged.

Times are ``time.perf_counter`` readings (CLOCK_MONOTONIC on Linux, so
they compare across processes), taken together with this process's CPU
seconds (``c_loaded``, ``c_written``) and, in-process, each restart's
CPU seconds (``restart_cpu_s``).  The result file is JSON; an exception
is recorded as ``error`` with exit code 1.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import Speed

clock = time.perf_counter


def cpu():
    """CPU seconds used so far by this process (workers report their own)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime


def _timed(owner, name, into, key, accumulate=False):
    """Replace ``owner.name`` with a wrapper that records its duration."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        began = clock()
        value = original(*args, **kwargs)
        ended = clock()
        previous = into.get(key, 0.0) if accumulate else 0.0
        into[key] = previous + (ended - began)
        into[key + "_end"] = ended
        into[key + "_cpu"] = cpu()
        return value

    setattr(owner, name, wrapper)


def _restart_cpu(mining, into):
    """Record the CPU seconds of every in-process ``floc`` restart."""
    original = mining.floc

    def wrapper(*args, **kwargs):
        began = time.process_time()
        value = original(*args, **kwargs)
        into.append(time.process_time() - began)
        return value

    mining.floc = wrapper


def _captured(owner, name, into):
    """Replace ``owner.name`` with a wrapper that keeps its return value."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        value = original(*args, **kwargs)
        into["result"] = value
        return value

    setattr(owner, name, wrapper)


def _records(run_dir):
    """Per-restart facts from a supervised run's checkpoint records."""
    run_dir = Path(run_dir)
    records = []
    for path in sorted((run_dir / "restarts").glob("restart-*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        records.append({
            "restart": record["restart"],
            "elapsed_s": record["elapsed_seconds"],
            "work": record.get("work"),
            "telemetry": record.get("telemetry"),
            "bytes": path.stat().st_size,
        })
    manifest = run_dir / "manifest.json"
    return records, manifest.stat().st_size if manifest.exists() else 0


def _mining_facts(result):
    """What a :class:`MiningResult` already carries about its restarts."""
    return {
        "restart_s": [run.elapsed_seconds for run in result.runs],
        "n_actions": sum(run.n_actions for run in result.runs),
        "pooled": result.n_pooled,
        "deduplicated": result.n_deduplicated,
        "work": result.work.as_dict() if result.work is not None else None,
        "spans": (result.trace_summary or {}).get("spans"),
    }


def run_cli(spec, out):
    import repro.cli as cli
    import repro.core.mining as mining

    marks = {}
    _timed(cli, "load_matrix_npz", marks, "load_s")
    _timed(cli, "save_clusters", marks, "save_s")
    _captured(cli, "mine_delta_clusters", marks)
    out["restart_cpu_s"] = []
    _restart_cpu(mining, out["restart_cpu_s"])
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(spec["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    out["exit_code"] = code
    out["t_loaded"] = marks.get("load_s_end")
    out["t_written"] = marks.get("save_s_end")
    out["c_loaded"] = marks.get("load_s_cpu")
    out["c_written"] = marks.get("save_s_cpu")
    out["load_s"] = marks.get("load_s")
    out["save_s"] = marks.get("save_s")
    if "result" in marks:
        out.update(_mining_facts(marks["result"]))
    if spec.get("run_dir"):
        out["records"], out["manifest_bytes"] = _records(spec["run_dir"])


def run_mine(spec, out):
    import repro.core.mining as mining
    from repro.data.io import load_matrix_npz, save_clusters
    from repro.obs import JsonlSink, Tracer, WorkCounters

    began = clock()
    matrix = load_matrix_npz(spec["matrix"])
    out["t_loaded"] = clock()
    out["c_loaded"] = cpu()
    out["load_s"] = out["t_loaded"] - began
    tracer = work = None
    if spec.get("trace_path"):
        tracer = Tracer(sinks=[JsonlSink(spec["trace_path"])])
        work = WorkCounters()
    marks = {}
    _timed(mining, "pool_mining_results", marks, "pool_s", accumulate=True)
    out["restart_cpu_s"] = []
    _restart_cpu(mining, out["restart_cpu_s"])
    try:
        result = mining.mine_delta_clusters(
            matrix, rng=spec["seed"], tracer=tracer, work=work, **spec["params"]
        )
    finally:
        if tracer is not None:
            tracer.close()
    began = clock()
    save_clusters(spec["out"], list(result.clustering))
    out["t_written"] = clock()
    out["c_written"] = cpu()
    out["save_s"] = out["t_written"] - began
    out["pool_s"] = marks.get("pool_s", 0.0)
    out.update(_mining_facts(result))
    out["exit_code"] = 0


class _TaskClock:
    """Sink noting the first dispatch and the last acknowledgement."""

    def __init__(self):
        self.first_dispatch = None
        self.last_ack = None

    def write(self, record):
        if record.get("type") != "task":
            return
        if record.get("status") == "dispatched" and self.first_dispatch is None:
            self.first_dispatch = clock()
        elif record.get("status") == "completed":
            self.last_ack = clock()


def run_supervised(spec, out):
    import repro.obs.session as session
    import repro.runtime.supervisor as supervisor
    from repro.data.io import load_matrix_npz, save_clusters
    from repro.obs import MetricsRegistry, Tracer
    from repro.runtime import RunConfig

    began = clock()
    matrix = load_matrix_npz(spec["matrix"])
    out["t_loaded"] = clock()
    out["c_loaded"] = cpu()
    out["load_s"] = out["t_loaded"] - began
    marks = {}
    _timed(supervisor, "pool_mining_results", marks, "pool_s", accumulate=True)
    _timed(session.SessionTrace, "merge", marks, "merge_s", accumulate=True)
    tasks = _TaskClock()
    metrics = MetricsRegistry()
    tracer = Tracer(sinks=[tasks], metrics=metrics)
    config = RunConfig(root_seed=spec["seed"], **spec["params"])
    outcome = supervisor.run_supervised(
        matrix, config, run_dir=spec["run_dir"], tracer=tracer, session_trace=True
    )
    out["t_returned"] = clock()
    began = clock()
    save_clusters(spec["out"], list(outcome.result.clustering))
    out["t_written"] = clock()
    out["c_written"] = cpu()
    out["save_s"] = out["t_written"] - began
    out["exit_code"] = 3 if outcome.degradation is not None else 0
    out["pool_s"] = marks.get("pool_s", 0.0)
    out["merge_s"] = marks.get("merge_s", 0.0)
    out["first_dispatch"] = tasks.first_dispatch
    out["last_ack"] = tasks.last_ack
    counters = (metrics.snapshot() or {}).get("counters", {})
    out["waves"] = counters.get("runtime.waves", 0)
    out["retries"] = counters.get("runtime.retries", 0)
    out["session_trace"] = str(outcome.session_trace)
    out["pooled"] = outcome.result.n_pooled
    out["deduplicated"] = outcome.result.n_deduplicated
    out["records"], out["manifest_bytes"] = _records(spec["run_dir"])


ENTRY_POINTS = {"cli": run_cli, "mine": run_mine, "supervised": run_supervised}


def main(spec_path, result_path):
    # The speed kernel runs before and after the session, in this
    # process, so it sees the core and the host load the session saw.
    host = Speed()
    began = clock()
    host.sample()
    out = {"kernel_wall_s": clock() - began, "kernel_cpu_s": sum(host.samples)}
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    try:
        ENTRY_POINTS[spec["entry"]](spec, out)
    except Exception:
        out["exit_code"] = 1
        out["error"] = traceback.format_exc()
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    out["max_rss_kb"] = max(own.ru_maxrss, children.ru_maxrss)
    out["cpu_s"] = own.ru_utime + own.ru_stime
    host.sample()
    out["kernel_s"] = host.samples
    Path(result_path).write_text(json.dumps(out), encoding="utf-8")
    return 0 if out["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
