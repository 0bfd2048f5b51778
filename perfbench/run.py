"""Outside-in benchmark of ``repro mine``.

Usage, from the repository root::

    python3 perfbench/run.py --workload mine-dense --seed 1 --seconds 30 --trace 0

The benchmark generates planted-cluster matrices from ``--seed``, runs
each mining session in a fresh child process (``child.py``), checks
every written clustering against the matrix, and prints one JSON object
as its last line: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The line
before it holds details no bound applies to (wall-clock figures, tail
percentile and sample count, the in-process vs supervised comparison,
failure reasons).  ``README.md`` beside this file describes the
workloads and the source of every metric.

Load model: closed loop, one mining session at a time; supervised
sessions use two worker processes.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import speed
import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK_ROOT = ROOT / ".perfbench-work"

#: Whole invocation budget; no child starts after it and none outlives it.
DEADLINE_S = 170.0
WORKERS = 2
MIN_ROWS = 3
MIN_COLS = 3
P = 0.2
#: Traced pairs per invocation at least, so work counters repeat.
MIN_PAIRS = 2

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "plain" | "exact" | "supervised"
    shape: dict  # generate_embedded arguments
    target: float
    k: int
    restarts: int
    reseed_rounds: int
    alpha: float = 0.0


# Small enough that one invocation mines a dozen distinct inputs: the
# session time varies from matrix to matrix by about 15%, so the mean
# over many inputs is what keeps two seeds' figures close.
DENSE = {"n_rows": 140, "n_cols": 30, "n_clusters": 4, "cluster_shape": (25, 10),
         "noise": 3.0}
SPARSE = {"n_rows": 160, "n_cols": 32, "n_clusters": 4, "cluster_shape": (30, 12),
          "noise": 2.0, "missing_fraction": 0.2}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("mine-dense", "plain", DENSE, 6.0, 6, 3, 10),
        Workload("mine-dense-exact", "exact", DENSE, 6.0, 6, 3, 10),
        # alpha stays 0: with missing entries and any alpha > 0 tried
        # (0.1-0.5), the program writes clusters below alpha on 20-55% of
        # inputs, so every run would fail the occupancy check.
        Workload("mine-sparse-supervised", "supervised", SPARSE, 8.0, 8, 24, 2),
    )
}


@dataclass
class Input:
    index: int
    matrix_path: Path
    values: object  # numpy array, NaN = missing
    truth: list  # [(rows, cols)] of the planted clusters
    seed: int  # mining seed


def _cpu(telemetry):
    return telemetry.get("user_cpu_s", 0) + telemetry.get("sys_cpu_s", 0)


@dataclass
class Run:
    input: Input
    kind: str  # "untraced" | "traced" | "inprocess"
    path: str  # which mining path; runs on one path must agree bit for bit
    child: dict
    failures: list = field(default_factory=list)
    cells: tuple = (0, 0, 0)  # (planted, found, both)

    @property
    def timed(self):
        return self.child.get("exit_code") == 0 and self.child.get("t_written") is not None

    @property
    def scale(self):
        """Factor turning this child's CPU seconds into nominal ones (speed.py)."""
        return speed.REFERENCE_S / statistics.median(self.child["kernel_s"])

    @property
    def setup_s(self):
        """CPU seconds from process start to matrix loaded, less the kernel's."""
        return self.child["c_loaded"] - self.child["kernel_cpu_s"]

    @property
    def setup_wall_s(self):
        return self.child["t_loaded"] - self.child["spawned"] - self.child["kernel_wall_s"]

    @property
    def mine_s(self):
        return self.child["t_written"] - self.child["t_loaded"]

    @property
    def records(self):
        return self.child.get("records") or []

    @property
    def telemetry(self):
        return [r["telemetry"] or {} for r in self.records]

    @property
    def mine_cpu_s(self):
        """CPU seconds from matrix loaded to clusters written, workers included."""
        own = self.child["c_written"] - self.child["c_loaded"]
        return own + sum(_cpu(t) for t in self.telemetry)

    @property
    def restart_s(self):
        if self.records:
            return [record["elapsed_s"] for record in self.records]
        return self.child.get("restart_s") or []

    @property
    def restart_cpu_s(self):
        if self.records:
            return [_cpu(t) for t in self.telemetry]
        return self.child.get("restart_cpu_s") or []

    @property
    def work(self):
        if self.records:
            total = {}
            for record in self.records:
                for name, value in (record["work"] or {}).items():
                    total[name] = total.get(name, 0) + value
            return total
        return self.child.get("work")

    @property
    def peak_rss_mb(self):
        peaks = [self.child.get("max_rss_kb", 0)]
        peaks += [t.get("max_rss_kb", 0) for t in self.telemetry]
        return max(peaks) / 1024


# ----------------------------------------------------------------------
# Inputs and child processes
# ----------------------------------------------------------------------
def make_input(workload, seed, index, work_dir):
    """Input ``index`` of ``seed``: the same on every workload sharing a shape."""
    import numpy as np
    from repro.data.io import save_matrix_npz
    from repro.data.synthetic import generate_embedded

    data = generate_embedded(**workload.shape, rng=np.random.default_rng([seed, index]))
    path = work_dir / f"input-{index}.npz"
    save_matrix_npz(path, data.matrix)
    truth = [(np.asarray(c.rows), np.asarray(c.cols)) for c in data.embedded]
    return Input(index, path, data.matrix.values, truth, seed * 1000 + index)


def _mine_argv(w, inp, out):
    return ["mine", str(inp.matrix_path), "--target", str(w.target), "--k", str(w.k),
            "--restarts", str(w.restarts), "--min-rows", str(MIN_ROWS),
            "--min-cols", str(MIN_COLS), "--alpha", str(w.alpha), "--p", str(P),
            "--reseed-rounds", str(w.reseed_rounds), "--seed", str(inp.seed),
            "--out", str(out)]


def _mining_params(w):
    return {"residue_target": w.target, "k": w.k, "n_restarts": w.restarts,
            "min_rows": MIN_ROWS, "min_cols": MIN_COLS, "alpha": w.alpha, "p": P,
            "reseed_rounds": w.reseed_rounds}


def child_spec(w, inp, kind, traced, run_dir):
    """The child process's instructions for one run (see child.py)."""
    out = run_dir / "clusters.txt"
    spec = {"matrix": str(inp.matrix_path), "out": str(out), "seed": inp.seed}
    supervised = w.entry == "supervised" and kind != "inprocess"
    if supervised and not traced:
        argv = _mine_argv(w, inp, out) + ["--workers", str(WORKERS),
                                          "--run-dir", str(run_dir / "run")]
        spec.update(entry="cli", argv=argv, run_dir=str(run_dir / "run"))
    elif supervised:
        spec.update(entry="supervised", run_dir=str(run_dir / "run"),
                    params=dict(_mining_params(w), workers=WORKERS, max_retries=2))
    elif w.entry == "exact" or traced:
        spec.update(entry="mine", params=dict(_mining_params(w),
                                              gain_mode="exact" if w.entry == "exact" else "fast"))
        if traced:
            spec["trace_path"] = str(run_dir / "trace.jsonl")
    else:
        spec.update(entry="cli", argv=_mine_argv(w, inp, out))
    return spec


def _stop_group(proc):
    """Kill what is left of a child's process group and wait for it to end."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):  # grandchildren are reaped by their own parent
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


class Launcher:
    """Starts child processes inside one work directory, one at a time."""

    def __init__(self, work_dir, started):
        self.work_dir = work_dir
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def remaining(self):
        return DEADLINE_S - (clock() - self.started)

    def launch(self, spec, run_dir):
        spec_path = run_dir / "spec.json"
        result_path = run_dir / "result.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = self.remaining()
        if timeout <= 0:
            return {"exit_code": None, "error": "benchmark deadline reached"}
        spawned = clock()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(spec_path), str(result_path)],
            cwd=run_dir, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            stderr = b"killed at the benchmark deadline"
        finally:
            _stop_group(proc)
        if result_path.exists():
            child = json.loads(result_path.read_text(encoding="utf-8"))
        else:
            child = {"exit_code": proc.returncode,
                     "error": stderr.decode("utf-8", "replace")[-2000:]}
        child["spawned"] = spawned
        return child


# ----------------------------------------------------------------------
# Checking runs
# ----------------------------------------------------------------------
class Verifier:
    """Checks each run's output and its agreement with earlier runs."""

    def __init__(self, workload):
        self.workload = workload
        self.clusters = {}  # (input, path) -> bytes of the first clusters file
        self.work = {}  # (input, path) -> work counters of the first counted run

    def verify(self, run, out_path):
        from repro.data.io import load_clusters

        w = self.workload
        code = run.child.get("exit_code")
        if code != 0:
            error = (run.child.get("error") or "").strip().splitlines()
            run.failures.append(f"exit code {code}" + (f": {error[-1]}" if error else ""))
        try:
            found = [(list(c.rows), list(c.cols)) for c in load_clusters(out_path)]
            data = out_path.read_bytes()
        except (OSError, ValueError) as exc:
            run.failures.append(f"clusters file does not load: {exc}")
            return
        for number, (rows, cols) in enumerate(found):
            for problem in checks.cluster_violations(
                    run.input.values, rows, cols, target=w.target,
                    min_rows=MIN_ROWS, min_cols=MIN_COLS, alpha=w.alpha):
                run.failures.append(f"cluster {number}: {problem}")
        run.cells = checks.shared_cells(run.input.truth, found, run.input.values.shape)
        key = (run.input.index, run.path)
        first = self.clusters.setdefault(key, data)
        if data != first:
            what = "traced" if run.kind == "traced" else "repeated"
            run.failures.append(f"{what} run's clusters differ from an earlier run "
                                "at the same seed")
        if run.work:
            counted = self.work.setdefault(key, run.work)
            if run.work != counted:
                run.failures.append("work counters differ from an earlier run at the "
                                    "same seed")


class Session:
    """One benchmark invocation: the inputs, the launcher and all runs."""

    def __init__(self, workload, seed, launcher):
        self.workload = workload
        self.seed = seed
        self.launcher = launcher
        self.verifier = Verifier(workload)
        self.inputs = []
        self.runs = []

    def input(self, index):
        """Input ``index``, generated on first use."""
        while len(self.inputs) <= index:
            self.inputs.append(make_input(self.workload, self.seed, len(self.inputs),
                                          self.launcher.work_dir))
        return self.inputs[index]

    def run(self, inp, kind, traced=False):
        w = self.workload
        if kind == "inprocess":
            path = "plain"
        else:
            path = w.entry
        run_dir = self.launcher.work_dir / f"run-{len(self.runs)}"
        run_dir.mkdir()
        child =self.launcher.launch(child_spec(w, inp, kind, traced, run_dir), run_dir)
        run = Run(inp, kind, path, child)
        self.verifier.verify(run, run_dir / "clusters.txt")
        trace = child.get("session_trace")
        if trace and Path(trace).exists():
            child["trace_bytes"] = Path(trace).stat().st_size
        shutil.rmtree(run_dir, ignore_errors=True)
        self.runs.append(run)
        return run

    def no_result(self, what):
        reasons = [f for run in self.runs for f in run.failures]
        return f"{what}: " + "; ".join(reasons[:5])


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
def measure_end_to_end(session, seconds):
    """Untraced runs, each on a new input, for ``seconds``.

    The gated times are CPU seconds rescaled to the nominal host speed
    (see speed.py); the wall-clock figures go to ``details``.
    """
    began = clock()
    samples = 0
    while samples < 2 * summary.TAIL_MARGIN or clock() - began < seconds:
        if session.launcher.remaining() < 30:
            break
        run = session.run(session.input(len(session.runs)), "untraced")
        samples += len(run.restart_cpu_s)
    main = [r for r in session.runs if r.kind == "untraced" and r.timed]
    if not main:
        raise SystemExit(session.no_result("no run completed"))
    restart_cpu = [t * run.scale for run in main for t in run.restart_cpu_s]
    restart_wall = [t for run in main for t in run.restart_s]
    tail_cpu, tail_p, tail_n = summary.tail(restart_cpu)
    planted, found, both = (sum(run.cells[i] for run in main) for i in range(3))
    metrics = {
        "setup_s": statistics.median(run.setup_s * run.scale for run in main),
        "mine_cpu_s": statistics.mean(run.mine_cpu_s * run.scale for run in main),
        "restart_cpu_s.p50": statistics.median(restart_cpu),
        "peak_rss_mb": statistics.median(run.peak_rss_mb for run in main),
        "recall": summary.ratio(both, planted),
        "precision": summary.ratio(both, found),
    }
    details = {
        # Ungated: its spread between seeds is near the largest bound.
        "restart_cpu_s.tail": {"value": tail_cpu, "percentile": tail_p,
                               "samples": tail_n},
        "runs": len(main),
        "speed": {"scale": statistics.median(run.scale for run in main)},
        "wall": {
            "setup_s": statistics.median(run.setup_wall_s for run in main),
            "mine_s": statistics.mean(run.mine_s for run in main),
            "restarts_per_s": statistics.median(len(run.restart_s) / run.mine_s
                                                for run in main),
            "restart_s.p50": statistics.median(restart_wall),
            "restart_s.tail": summary.tail(restart_wall)[0],
        },
    }
    return metrics, details


LEAF_SPANS = ("phase1", "ordering", "gain_eval", "perform_action", "reseed")
CORE_COUNTERS = {
    "core.gain_engine.toggle_evals": "toggle_evals",
    "core.gain_engine.batch_evals": "batch_evals",
    "core.gain_engine.lane_builds": "lane_builds",
    "core.gain_engine.cells_scanned": "cells_scanned",
    "core.floc.sweeps": "sweeps",
    "core.floc.toggles": "toggles",
    "core.floc.snapshots": "snapshots",
    "core.floc.restores": "restores",
    "core.floc.residue_evals": "residue_evals",
}


#: Per-layer metrics of layers a workload does not run, keyed by
#: "is the workload supervised"; they read 0.
NOT_RUN = {
    False: ("runtime.supervisor.task_overhead_s", "runtime.supervisor.parallel_eff",
            "runtime.supervisor.waves", "runtime.supervisor.retries",
            "runtime.checkpoint.finalize_s", "runtime.checkpoint.bytes",
            "runtime.worker.rss_mb", "runtime.worker.cpu_s",
            "obs.session.overhead_frac", "obs.session.merge_s",
            "obs.session.trace_bytes", "obs.session.peak_rss_mb"),
    True: ("obs.tracer.overhead_frac",),
}


def _span(spans, name, field_name="total_s"):
    return (spans or {}).get(name, {}).get(field_name, 0)


def core_layers(child):
    """Seeding, ordering, gain engine and driver figures of one traced run."""
    spans = child.get("spans") or {}
    work = child.get("work") or {}
    consults = _span(spans, "gain_eval", "count")
    leaf = sum(_span(spans, name) for name in LEAF_SPANS)
    metrics = {
        "core.seeding.phase1_s": _span(spans, "phase1"),
        "core.seeding.reseed_s": _span(spans, "reseed"),
        "core.ordering.s": _span(spans, "ordering"),
        "core.gain_engine.consult_s": _span(spans, "gain_eval"),
        "core.gain_engine.consults": consults,
        "core.gain_engine.action_yield": summary.ratio(child.get("n_actions", 0), consults),
        "core.floc.perform_s": _span(spans, "perform_action"),
        "core.floc.bookkeeping_s": _span(spans, "restart") - leaf,
        "core.floc.rollback_frac": summary.ratio(work.get("restores", 0),
                                                 work.get("sweeps", 0)),
    }
    for metric, counter in CORE_COUNTERS.items():
        metrics[metric] = work.get(counter, 0)
    return metrics, leaf


def mining_layers(child):
    return {
        "core.mining.pool_s": child.get("pool_s", 0.0),
        "core.mining.pooled": child.get("pooled", 0),
        "core.mining.dedup_frac": summary.ratio(child.get("deduplicated", 0),
                                                child.get("pooled", 0)),
        "data.io.load_s": child["load_s"],
        "data.io.save_s": child["save_s"],
    }


def supervised_layers(untraced, traced):
    """Runtime and session-trace figures of one untraced/traced pair."""
    child = traced.child
    restart_total = sum(untraced.restart_s)
    finalize_s = child["t_returned"] - child["last_ack"] - child["merge_s"]
    wave_s = child["last_ack"] - child["first_dispatch"]
    timed = {"waves": wave_s, "finalize": finalize_s, "merge": child["merge_s"],
             "save": child["save_s"]}
    return {
        # Worker time in the waves not spent computing restarts: dispatch,
        # pickling, record writes, and idle workers at the end of a wave.
        "runtime.supervisor.task_overhead_s": WORKERS * wave_s - sum(traced.restart_s),
        "runtime.supervisor.parallel_eff": restart_total / (WORKERS * untraced.mine_s),
        "runtime.supervisor.waves": child["waves"],
        "runtime.supervisor.retries": child["retries"],
        "runtime.checkpoint.finalize_s": finalize_s,
        "runtime.checkpoint.bytes": sum(r["bytes"] for r in untraced.records)
        + untraced.child["manifest_bytes"],
        "runtime.worker.rss_mb": max(t.get("max_rss_kb", 0)
                                     for t in untraced.telemetry) / 1024,
        "runtime.worker.cpu_s": sum(untraced.restart_cpu_s),
        "obs.session.merge_s": child["merge_s"],
        "obs.session.trace_bytes": child["trace_bytes"],
        "obs.session.peak_rss_mb": traced.peak_rss_mb,
        "layers.coverage_frac": summary.coverage_frac(timed, traced.mine_s),
    }


def measure_per_layer(session, seconds):
    """Untraced/traced pairs on the first input, for ``seconds``."""
    w = session.workload
    inp = session.input(0)
    began = clock()
    pairs = []
    while len(pairs) < MIN_PAIRS or clock() - began < seconds:
        if session.launcher.remaining() < 45:
            break
        pairs.append((session.run(inp, "untraced"), session.run(inp, "traced", True)))
    pairs = [(u, t) for u, t in pairs if u.timed and t.timed]
    if not pairs:
        raise SystemExit(session.no_result("no traced pair completed"))
    overhead = (statistics.median(t.mine_s for _, t in pairs)
                / statistics.median(u.mine_s for u, _ in pairs) - 1)
    samples = []
    for untraced, traced in pairs:
        layers = mining_layers(traced.child)
        if w.entry == "supervised":
            layers.update(supervised_layers(untraced, traced))
            layers["obs.session.overhead_frac"] = overhead
        else:
            core, leaf = core_layers(traced.child)
            layers.update(core)
            timed = {"spans": leaf, "pool": layers["core.mining.pool_s"],
                     "save": layers["data.io.save_s"]}
            layers["layers.coverage_frac"] = summary.coverage_frac(timed, traced.mine_s)
            layers["obs.tracer.overhead_frac"] = overhead
        samples.append(layers)
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    details = {"pairs": len(pairs)}
    return metrics, details


def compare_inprocess(session, traced):
    """Run the supervised workload's first input in-process at the same seed."""
    inp = session.input(0)
    run = session.run(inp, "inprocess", traced)
    supervised = session.verifier.clusters.get((inp.index, "supervised"))
    plain = session.verifier.clusters.get((inp.index, "plain"))
    details = {"inprocess_matches_supervised": plain is not None and plain == supervised}
    if traced and run.timed:
        core, _ = core_layers(run.child)
        return core, details
    return {}, details


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def declared_metrics(trace):
    """``{name: unit}`` of the metrics BENCHMARK.json declares for this mode."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = document["per_layer" if trace else "end_to_end"]
    return {summary.check_metric_name(m["name"]): m["unit"] for m in section}


def result_line(metrics, declared, attempted, failed):
    missing = sorted(set(declared) - set(metrics))
    extra = sorted(set(metrics) - set(declared))
    if missing or extra:
        raise SystemExit(f"metrics do not match BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}")
    values = {}
    for name, unit in declared.items():
        value = float(metrics[name])
        if not math.isfinite(value):
            raise SystemExit(f"metric {name} is not finite: {value}")
        values[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": values}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None):
    started = clock()
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)  # so children are stopped on the way out
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is not at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = declared_metrics(args.trace)
    workload = WORKLOADS[args.workload]
    work_dir = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        session = Session(workload, args.seed, Launcher(work_dir, started))
        if args.trace:
            metrics, details = measure_per_layer(session, args.seconds)
        else:
            metrics, details = measure_end_to_end(session, args.seconds)
        if workload.entry == "supervised":
            core, compared = compare_inprocess(session, bool(args.trace))
            metrics.update(core)
            details.update(compared)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted, failed = summary.count_failures(session.runs)
    if args.trace:
        for name in NOT_RUN[workload.entry == "supervised"]:
            metrics[name] = 0.0
    else:
        metrics["ok_frac"] = summary.ok_fraction(attempted, failed)
    details.update(workload=workload.name, seed=args.seed,
                   failures=[f"run {i} ({r.kind}, input {r.input.index}): {f}"
                             for i, r in enumerate(session.runs) for f in r.failures])
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result_line(metrics, declared, attempted, failed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
