"""Command-line interface: mine, generate, evaluate, predict.

Examples
--------
Generate a synthetic workload and mine it::

    python -m repro generate synthetic --rows 300 --cols 60 \
        --clusters 10 --cluster-rows 30 --cluster-cols 20 --noise 3 \
        --out matrix.npz --truth-out truth.txt --seed 3
    python -m repro mine matrix.npz --target 5.0 --k 12 --restarts 2 \
        --out found.txt --seed 5
    python -m repro evaluate matrix.npz found.txt --truth truth.txt

Mine a ratings CSV (missing = empty cells) with the paper's MovieLens
settings::

    python -m repro mine ratings.csv --target 0.8 --alpha 0.6 --k 10
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple,
    TypeVar,
)

import numpy as np

# Only what ``repro mine`` runs is imported here; each other subcommand
# imports what it alone needs, so a mining process loads no generator,
# trace analytics, export or supervisor code it does not use.
from .core.cluster import DeltaCluster
from .core.matrix import DataMatrix
from .core.mining import MiningResult, mine_delta_clusters
from .core.params import ParameterError, check_params
from .data.io import (
    load_clusters,
    load_matrix_csv,
    load_matrix_npz,
    save_clusters,
    save_matrix_npz,
)
from .eval.reporting import format_histogram, format_table
from .obs.metrics import MetricsRegistry
from .obs.perf.counters import WorkCounters
from .obs.sinks import ConsoleProgressSink, JsonlSink, Sink, read_jsonl
from .obs.tracer import Tracer

if TYPE_CHECKING:
    from .obs.analysis import TraceAnalysis
    from .runtime import RunConfig

__all__ = [
    "build_parser",
    "cmd_analyze_trace",
    "cmd_bench",
    "cmd_diff_traces",
    "cmd_evaluate",
    "cmd_export_trace",
    "cmd_generate",
    "cmd_lint",
    "cmd_mine",
    "cmd_predict",
    "main",
]


_Loaded = TypeVar("_Loaded")


class _UsageError(Exception):
    """Bad input on the command line: :func:`main` prints the message
    as one stderr line and exits 2."""


def _load_matrix(path: str) -> DataMatrix:
    suffix = Path(path).suffix.lower()
    if suffix == ".npz":
        return load_matrix_npz(path)
    if suffix == ".csv":
        return load_matrix_csv(path, header=False)
    raise _UsageError(f"unsupported matrix format: {path} (use .npz or .csv)")


def _read(what: str, path: str, load: Callable[[str], _Loaded]) -> _Loaded:
    """``load(path)``; a file that cannot be read or parsed is a usage
    error."""
    try:
        return load(path)
    except OSError as exc:
        raise _UsageError(
            f"cannot read {what} {path}: {exc.strerror or exc}"
        ) from None
    except ValueError as exc:  # includes UnicodeDecodeError
        reason = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        prefix = f"{path}: "
        if reason.startswith(prefix):
            reason = reason[len(prefix):]
        raise _UsageError(f"malformed {what} {path}: {reason}") from None


def _seed(text: str) -> int:
    """``--seed`` type: a non-negative integer, else a usage error."""
    if not text.isdecimal():
        raise _UsageError(f"--seed must be a non-negative integer, got {text!r}")
    return int(text)


def _check_writable(
    flag: str, path: Optional[str], make_parents: bool = False
) -> None:
    """Fail on a ``flag`` path where no file can be created.

    With ``make_parents`` the command creates missing directories, so
    only the nearest existing ancestor has to be a directory.
    """
    if not path:
        return
    target = Path(path)
    ancestor = target.parent
    while make_parents and not ancestor.exists() and ancestor != ancestor.parent:
        ancestor = ancestor.parent
    if not ancestor.exists():
        problem = f"directory {ancestor} does not exist"
    elif not ancestor.is_dir():
        problem = f"{ancestor} is not a directory"
    elif target.is_dir():
        problem = "it is a directory"
    elif not os.access(ancestor, os.W_OK | os.X_OK):
        problem = f"directory {ancestor} is not writable"
    else:
        return
    raise _UsageError(f"cannot write {flag} {path}: {problem}")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _build_tracer(
    args: argparse.Namespace, supervised: bool = False
) -> Optional[Tracer]:
    """Tracer for ``mine`` per the --trace/--progress/--metrics flags.

    Supervised runs skip the plain ``--trace`` JSONL sink: the session
    trace machinery records the supervisor shard itself, and the merged
    session trace is copied to the ``--trace`` path afterwards.
    """
    sinks: List[Sink] = []
    if getattr(args, "trace", None) and not supervised:
        sinks.append(JsonlSink(args.trace))
    if getattr(args, "progress", False):
        sinks.append(ConsoleProgressSink())
    metrics = MetricsRegistry() if getattr(args, "metrics", False) else None
    if not sinks and metrics is None:
        return None
    return Tracer(sinks=sinks, metrics=metrics)


def _print_metrics(snapshot: Dict[str, Any]) -> None:
    rows = []
    for name, value in snapshot["counters"].items():
        rows.append([name, "counter", value])
    for name, value in snapshot["gauges"].items():
        rows.append([name, "gauge", round(value, 6) if value is not None else ""])
    for name, hist in snapshot["histograms"].items():
        rows.append([
            name, "histogram",
            f"n={hist['count']} mean={hist['mean']:.3g} p90={hist['p90']:.3g}",
        ])
    print(format_table(rows, headers=["metric", "kind", "value"],
                       title="run metrics"))


def _print_mining_result(
    matrix: DataMatrix, result: MiningResult, args: argparse.Namespace
) -> None:
    rows = [
        [
            index,
            cluster.n_rows,
            cluster.n_cols,
            cluster.volume(matrix),
            cluster.residue(matrix),
        ]
        for index, cluster in enumerate(result.clustering)
    ]
    print(format_table(
        rows,
        headers=["cluster", "rows", "cols", "volume", "residue"],
        title=(
            f"{len(result.clustering)} delta-clusters "
            f"(target residue {args.target}, {len(result.runs)} restart(s), "
            f"{result.elapsed_seconds:.1f}s)"
        ),
    ))
    if args.out:
        save_clusters(args.out, list(result.clustering))
        print(f"clusters written to {args.out}")
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.metrics and result.metrics is not None:
        _print_metrics(result.metrics)


def _mining_params(args: argparse.Namespace) -> Dict[str, Any]:
    """``mine``'s mining parameters, named as both
    :func:`mine_delta_clusters` and ``RunConfig`` take them."""
    return dict(
        residue_target=args.target, n_restarts=args.restarts, k=args.k,
        min_rows=args.min_rows, min_cols=args.min_cols, alpha=args.alpha,
        p=args.p, reseed_rounds=args.reseed_rounds,
        max_clusters=args.max_clusters,
    )


def _cmd_mine_supervised(
    args: argparse.Namespace,
    matrix: DataMatrix,
    config: RunConfig,
    tracer: Optional[Tracer],
) -> int:
    """The fault-tolerant path: ``mine`` under :mod:`repro.runtime`.

    A fresh run and a ``--resume`` take the same ``config``, built from
    the flags; a resume refuses a run directory whose session differs
    in any mining flag.
    """
    from .runtime import CheckpointError, CheckpointMismatchError, run_supervised

    kwargs: Dict[str, Any] = {"session_trace": bool(args.trace)}
    if tracer is not None:
        kwargs["tracer"] = tracer
    try:
        runtime_result = run_supervised(
            matrix, config, run_dir=args.run_dir, resume=args.resume, **kwargs,
        )
    except CheckpointMismatchError as exc:
        if not exc.fields:
            raise _UsageError(str(exc)) from None
        flags = ", ".join(_MINE_FLAGS.get(name, name) for name in exc.fields)
        raise _UsageError(
            f"cannot resume {args.run_dir}: its session was mined with "
            f"different {flags}"
        ) from None
    except CheckpointError as exc:
        raise _UsageError(str(exc)) from None
    if args.trace and runtime_result.session_trace is not None:
        # The merged cross-process session trace stands in for the plain
        # JSONL trace a non-supervised run would have written here.
        shutil.copyfile(runtime_result.session_trace, args.trace)
    if runtime_result.skipped:
        print(f"resumed: {len(runtime_result.skipped)} restart(s) already "
              f"checkpointed, {len(runtime_result.executed)} executed")
    if runtime_result.result is not None:
        _print_mining_result(matrix, runtime_result.result, args)
    print(f"checkpoints in {runtime_result.run_dir} "
          f"(continue with: repro mine ... --run-dir "
          f"{runtime_result.run_dir} --resume)")
    if runtime_result.degradation is not None:
        print(f"warning: {runtime_result.degradation.message}",
              file=sys.stderr)
        return 3
    if runtime_result.result is None:
        print("no restarts completed", file=sys.stderr)
        return 3
    return 0


#: ``mine``'s flag of each parameter :func:`check_params` may refuse or
#: a resumed session may differ in.
_MINE_FLAGS = {
    "residue_target": "--target", "n_restarts": "--restarts", "k": "--k",
    "root_seed": "--seed",
    "min_rows": "--min-rows", "min_cols": "--min-cols", "alpha": "--alpha",
    "p": "--p", "reseed_rounds": "--reseed-rounds",
    "max_clusters": "--max-clusters", "workers": "--workers",
    "max_retries": "--max-retries", "task_timeout": "--task-timeout",
}


def cmd_mine(args: argparse.Namespace) -> int:
    """Mine delta-clusters from a matrix file and print/save them.

    Plain invocations run in-process; any of ``--workers`` /
    ``--task-timeout`` / ``--run-dir`` / ``--resume`` selects the
    supervised runtime (checkpointed, retrying, resumable -- see
    ``docs/ROBUSTNESS.md``).  Exit code 3 signals graceful degradation:
    some restarts were lost after exhausting retries.
    """
    # Fail on a bad --out or --trace before any mining runs, not after it.
    _check_writable("--out", args.out)
    _check_writable("--trace", args.trace)
    supervised = (
        args.workers is not None
        or args.task_timeout is not None
        or args.run_dir is not None
        or args.resume
    )
    if args.resume and not args.run_dir:
        raise _UsageError("--resume requires --run-dir")
    if supervised:
        # Imported before the matrix loads, as everything the plain path
        # runs is: loading modules is start-up cost, not mining time.
        from .runtime import RunConfig
    matrix = _read("matrix", args.matrix, _load_matrix)
    # Refuse an out-of-range value once, before any restart runs or is
    # dispatched (every worker would fail on it alike).
    try:
        check_params(
            matrix.shape, residue_target=args.target, n_restarts=args.restarts,
            k=args.k, min_rows=args.min_rows, min_cols=args.min_cols,
            alpha=args.alpha, p=args.p, reseed_rounds=args.reseed_rounds,
            max_clusters=args.max_clusters, workers=args.workers,
            max_retries=args.max_retries, task_timeout=args.task_timeout,
        )
    except ParameterError as exc:
        raise _UsageError(f"invalid {_MINE_FLAGS[exc.name]}: {exc}") from None
    tracer = _build_tracer(args, supervised=supervised)
    # --metrics also turns on work counting so the perf.* counters show
    # up in the metrics table (counting is inert: --out is unchanged).
    work = WorkCounters() if args.metrics else None
    try:
        if supervised:
            config = RunConfig(
                root_seed=args.seed,
                workers=args.workers if args.workers is not None else 1,
                task_timeout=args.task_timeout,
                max_retries=args.max_retries
                if args.max_retries is not None else 2,
                **_mining_params(args),
            )
            return _cmd_mine_supervised(args, matrix, config, tracer)
        result = mine_delta_clusters(
            matrix, rng=args.seed, tracer=tracer, work=work,
            **_mining_params(args),
        )
    finally:
        if tracer is not None:
            tracer.close()
    _print_mining_result(matrix, result, args)
    return 0


def _generate(
    args: argparse.Namespace,
) -> Tuple[DataMatrix, List[DeltaCluster]]:
    """``(matrix, truth clusters)`` of ``generate``'s workload."""
    if args.kind == "synthetic":
        from .data.synthetic import generate_embedded

        synthetic = generate_embedded(
            args.rows, args.cols, args.clusters,
            cluster_shape=(args.cluster_rows, args.cluster_cols),
            noise=args.noise,
            missing_fraction=args.missing,
            rng=args.seed,
        )
        return synthetic.matrix, synthetic.embedded
    if args.kind == "movielens":
        from .data.movielens import generate_ratings

        ratings = generate_ratings(
            n_users=args.rows, n_movies=args.cols,
            n_groups=args.clusters,
            group_size=max(2, args.rows // (3 * max(args.clusters, 1))),
            density=max(args.missing, 0.05),
            rng=args.seed,
        )
        return ratings.matrix, ratings.groups
    from .data.microarray import generate_yeast_like

    yeast = generate_yeast_like(
        n_genes=args.rows, n_conditions=args.cols,
        n_modules=args.clusters,
        module_shape=(args.cluster_rows, args.cluster_cols),
        noise=args.noise,
        missing_fraction=args.missing,
        rng=args.seed,
    )
    return yeast.matrix, yeast.modules


def cmd_generate(args: argparse.Namespace) -> int:
    """Generate a synthetic / movielens / yeast workload matrix."""
    _check_writable("--out", args.out)
    _check_writable("--truth-out", args.truth_out)
    try:
        matrix, truth = _generate(args)
    except ValueError as exc:
        raise _UsageError(f"cannot generate {args.kind}: {exc}") from None
    save_matrix_npz(args.out, matrix)
    print(f"{args.kind} matrix {matrix.shape} written to {args.out} "
          f"(density {matrix.density:.2f})")
    if args.truth_out:
        save_clusters(args.truth_out, truth)
        print(f"{len(truth)} ground-truth clusters written to {args.truth_out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Score stored clusters against a matrix (and optional truth)."""
    matrix = _read("matrix", args.matrix, _load_matrix)
    clusters = _read("clusters", args.clusters, load_clusters)
    truth = _read("truth", args.truth, load_clusters) if args.truth else None
    rows = [
        [
            index,
            cluster.n_rows,
            cluster.n_cols,
            cluster.volume(matrix),
            cluster.residue(matrix),
            cluster.diameter(matrix),
        ]
        for index, cluster in enumerate(clusters)
    ]
    print(format_table(
        rows,
        headers=["cluster", "rows", "cols", "volume", "residue", "diameter"],
        title=f"{len(clusters)} clusters against {args.matrix}",
    ))
    if truth is not None:
        from .eval.metrics import recall_precision

        scores = recall_precision(truth, clusters, matrix.shape)
        print(f"\nrecall    = {scores.recall:.3f}")
        print(f"precision = {scores.precision:.3f}")
        print(f"f1        = {scores.f1:.3f}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    """Predict one cell's value from the clusters covering it."""
    from .core.predict import predict_entry

    matrix = _read("matrix", args.matrix, _load_matrix)
    clusters = _read("clusters", args.clusters, load_clusters)
    covering = [
        c for c in clusters if c.contains(args.row, args.col)
    ]
    if not covering:
        print(f"no cluster covers cell ({args.row}, {args.col})")
        return 1
    predictions = []
    for cluster in covering:
        try:
            predictions.append(
                predict_entry(matrix, cluster, args.row, args.col)
            )
        except ValueError:
            continue
    if not predictions:
        print(f"covering clusters carry no data for ({args.row}, {args.col})")
        return 1
    value = float(np.mean(predictions))
    print(f"predicted d[{args.row}, {args.col}] = {value:.4f} "
          f"(from {len(predictions)} cluster(s))")
    if matrix.mask[args.row, args.col]:
        truth = float(matrix.values[args.row, args.col])
        print(f"actual value: {truth:.4f} (abs error {abs(value - truth):.4f})")
    return 0


def _session_label(key: Dict[str, object]) -> str:
    if not key:
        return "-"
    return " ".join(f"{name}={value}" for name, value in sorted(key.items()))


def _print_analysis(analysis: TraceAnalysis, top_slots: int) -> None:
    counts = ", ".join(
        f"{kind}={count}"
        for kind, count in sorted(analysis.event_counts.items())
    )
    print(f"{analysis.n_records} records ({counts})")

    for session in analysis.sessions:
        rows = [
            [
                sweep.index,
                sweep.residue,
                sweep.total_volume,
                sweep.actions_observed,
                sweep.admissions,
                sweep.evictions,
                sweep.row_actions,
                sweep.col_actions,
                sweep.gain_sum,
                "yes" if sweep.improved else "no",
                sweep.elapsed_s,
            ]
            for sweep in session.sweeps
        ]
        print()
        print(format_table(
            rows,
            headers=["sweep", "residue", "volume", "actions", "adm", "evi",
                     "row", "col", "gain_sum", "improved", "seconds"],
            title=f"session [{_session_label(session.key)}]: "
                  f"{len(session.sweeps)} sweep(s), "
                  f"{session.n_actions} action(s)",
            precision=4,
        ))
        if session.dangling_actions:
            print(f"  ({session.dangling_actions} dangling action(s) after "
                  "the last sweep)")

    if analysis.clusters:
        rows = [
            [
                c.cluster, c.seeds, c.reseeds, c.actions,
                c.admissions, c.evictions, c.gain_sum,
                "-" if c.last_residue is None else c.last_residue,
                "-" if c.last_volume is None else c.last_volume,
            ]
            for c in analysis.clusters
        ]
        print()
        print(format_table(
            rows,
            headers=["cluster", "seeds", "reseeds", "actions", "adm", "evi",
                     "gain_sum", "last_residue", "last_volume"],
            title="per-cluster lifetime",
            precision=4,
        ))

    busiest = sorted(
        analysis.slots, key=lambda s: (-s.actions, s.kind, s.cluster)
    )[:top_slots]
    for slot in busiest:
        if slot.histogram is None:
            continue
        print()
        print(format_histogram(
            slot.histogram.edges,
            slot.histogram.counts,
            title=(
                f"gain histogram [{slot.kind} x cluster {slot.cluster}]: "
                f"{slot.actions} action(s), mean gain {slot.gain_mean:.4g}"
            ),
        ))

    if analysis.spans:
        rows = [
            [name, int(agg["count"]), agg["total_s"],
             agg["total_s"] / agg["count"] if agg["count"] else 0.0]
            for name, agg in analysis.spans.items()
        ]
        print()
        print(format_table(
            rows,
            headers=["span", "count", "total_s", "mean_s"],
            title="wall-time by span",
            precision=5,
        ))

    if analysis.waves:
        rows = [
            [w.index, w.completed, w.failed, w.retries, w.faults,
             w.median_elapsed_s, w.max_elapsed_s, w.stragglers]
            for w in analysis.waves
        ]
        print()
        print(format_table(
            rows,
            headers=["wave", "done", "failed", "retries", "faults",
                     "median_s", "max_s", "stragglers"],
            title="wave timeline",
            precision=4,
        ))

    stragglers = analysis.stragglers
    if stragglers:
        rows = [
            [t.restart, t.attempt, t.wave, t.elapsed_s]
            for t in stragglers
        ]
        print()
        print(format_table(
            rows,
            headers=["restart", "attempt", "wave", "seconds"],
            title=f"stragglers ({len(stragglers)} task(s) beyond the "
                  "wave-median budget)",
            precision=4,
        ))

    if analysis.resources:
        rows = [
            [r.restart, r.attempt, r.max_rss_kb, r.user_cpu_s, r.sys_cpu_s]
            for r in analysis.resources
        ]
        print()
        print(format_table(
            rows,
            headers=["restart", "attempt", "max_rss_kb",
                     "user_cpu_s", "sys_cpu_s"],
            title="worker resource telemetry",
            precision=4,
        ))

    if analysis.processes:
        rows = [
            [
                p.name,
                p.n_records,
                ", ".join(f"{kind}={count}"
                          for kind, count in sorted(p.event_counts.items())),
            ]
            for p in analysis.processes
        ]
        print()
        print(format_table(
            rows,
            headers=["process", "records", "events"],
            title="per-process activity",
        ))

    for warning in analysis.warnings:
        print(f"\nwarning: {warning}", file=sys.stderr)


def cmd_analyze_trace(args: argparse.Namespace) -> int:
    """Aggregate a recorded JSONL trace into per-sweep/cluster/slot stats."""
    from .obs.analysis import DEFAULT_STRAGGLER_FACTOR, analyze_trace

    if not Path(args.trace).is_file():
        print(f"no such trace file: {args.trace}", file=sys.stderr)
        return 2
    try:
        analysis = analyze_trace(
            args.trace,
            strict=args.strict,
            straggler_factor=DEFAULT_STRAGGLER_FACTOR
            if args.straggler_factor is None else args.straggler_factor,
        )
    except ValueError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(analysis.to_dict(), sort_keys=True, indent=2))
    else:
        _print_analysis(analysis, top_slots=args.top_slots)
    return 0


def _load_trace_source(args: argparse.Namespace) -> Optional[List[Dict[str, object]]]:
    """Load records from a trace file or a run directory with shards.

    A directory source is merged in-memory via
    :func:`~repro.obs.session.collect_session` (session meta first); a
    file source is read as plain JSONL.  Returns ``None`` (after
    printing to stderr) when the source does not exist.
    """
    source = Path(args.source)
    if source.is_dir():
        from .obs.session import collect_session

        meta, records = collect_session(source)
        skipped = meta.get("skipped_shards")
        if isinstance(skipped, list) and skipped:
            names = ", ".join(str(name) for name in sorted(skipped))
            print(f"warning: {len(skipped)} unreadable shard(s) skipped: "
                  f"{names}", file=sys.stderr)
        return [meta] + records
    if source.is_file():
        skipped_lines: List[int] = []
        records = read_jsonl(source, skipped=skipped_lines)
        if skipped_lines:
            print(f"warning: {len(skipped_lines)} corrupt line(s) skipped",
                  file=sys.stderr)
        return records
    print(f"no such trace file or run directory: {args.source}",
          file=sys.stderr)
    return None


def cmd_export_trace(args: argparse.Namespace) -> int:
    """Render a session trace as Chrome trace-event JSON, OTLP, or JSONL."""
    from .obs.export import chrome_trace, otlp_logs

    _check_writable("--out", args.out, make_parents=True)
    records = _load_trace_source(args)
    if records is None:
        return 2
    if args.format == "chrome":
        text = json.dumps(chrome_trace(records), sort_keys=True) + "\n"
    elif args.format == "otlp":
        text = json.dumps(otlp_logs(records)) + "\n"
    else:  # jsonl
        text = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        )
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
        print(f"{args.format} trace written to {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_diff_traces(args: argparse.Namespace) -> int:
    """Align two twinned traces' iterations and report divergence."""
    from .obs.analysis import diff_traces

    for path in (args.trace_a, args.trace_b):
        if not Path(path).is_file():
            print(f"no such trace file: {path}", file=sys.stderr)
            return 2
    try:
        skipped: List[int] = []
        diff = diff_traces(
            read_jsonl(args.trace_a, skipped=skipped),
            read_jsonl(args.trace_b, skipped=skipped),
        )
    except ValueError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return 2
    if skipped:
        print(
            f"warning: {len(skipped)} corrupt line(s) skipped while "
            "reading the traces", file=sys.stderr,
        )
    if args.json:
        print(json.dumps(diff.to_dict(tol=args.tol), sort_keys=True, indent=2))
        return 0
    rows = [
        [
            _session_label(d.key), d.index,
            d.residue_a, d.residue_b, d.residue_delta,
            d.volume_delta, d.actions_a, d.actions_b,
        ]
        for d in diff.deltas
    ]
    print(format_table(
        rows,
        headers=["session", "iter", "residue_a", "residue_b", "delta",
                 "vol_delta", "act_a", "act_b"],
        title=f"{len(diff.deltas)} aligned iteration(s), "
              f"{diff.n_only_a} only in A, {diff.n_only_b} only in B",
        precision=5,
    ))
    first = diff.first_divergence(args.tol)
    print(f"\nmax |residue delta|  = {diff.max_abs_residue_delta:.6g}")
    print(f"mean |residue delta| = {diff.mean_abs_residue_delta:.6g}")
    print(f"final residue delta  = {diff.final_residue_delta:.6g}")
    if first is None:
        print(f"no divergence beyond tol={args.tol:g}")
    else:
        print(f"first divergence at iteration {first.index} "
              f"(|delta| {abs(first.residue_delta):.6g} > tol {args.tol:g})")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench run/list/compare``: the perf harness front end.

    ``run`` executes a suite of seed-pinned workloads from the registry
    (:mod:`repro.obs.perf.workloads`), writing a schema-versioned
    ``BENCH_<suite>.json`` document plus a content-addressed per-run
    record under ``--results-dir``.  ``compare`` judges a new document
    against a baseline: wall time against ``--tol-time`` (slowdowns
    only), deterministic work counters against ``--tol-work`` (default
    exact -- any drift is an algorithmic change) and exits 1 on
    regression.
    """
    from .obs.perf import bench, workloads

    if args.bench_command == "list":
        rows = [
            [w.name, ",".join(w.suites), w.description]
            for w in workloads.iter_workloads(args.suite)
        ]
        if not rows:
            print(f"no workloads registered for suite {args.suite!r}",
                  file=sys.stderr)
            return 2
        print(format_table(
            rows,
            headers=["workload", "suites", "description"],
            title=f"{len(rows)} registered workload(s) "
                  f"(suites: {', '.join(workloads.suite_names())})",
        ))
        return 0

    if args.bench_command == "run":
        try:
            document = bench.run_suite(args.suite, repeats=args.repeats)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        out = args.out or f"BENCH_{args.suite}.json"
        bench.write_document(document, out)
        record = bench.record_path(args.results_dir, document)
        bench.write_document(document, record)
        timing = document["timing"]
        work = document["work"]
        assert isinstance(timing, dict) and isinstance(work, dict)
        rows = [
            [
                name,
                f"{1e3 * timing[name]['best_time_s']:.2f}",
                work[name]["toggle_evals"],
                work[name]["cells_scanned"],
                work[name]["sweeps"],
            ]
            for name in sorted(work)
        ]
        print(format_table(
            rows,
            headers=["workload", "best ms", "toggle_evals",
                     "cells_scanned", "sweeps"],
            title=f"suite {args.suite!r}: {len(rows)} workload(s), "
                  f"best of {args.repeats}",
        ))
        print(f"document written to {out}")
        print(f"per-run record written to {record}")
        return 0

    # compare
    try:
        old = bench.load_document(args.old)
        new = bench.load_document(args.new)
        comparison = bench.compare_documents(
            old, new,
            tol_time=bench.parse_tolerance(args.tol_time),
            tol_work=bench.parse_tolerance(args.tol_work),
        )
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(comparison.render())
    if not comparison.ok:
        print(f"{len(comparison.regressions)} regression(s) detected",
              file=sys.stderr)
        return 1
    print("no regressions")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the DCL invariant linter (see :mod:`repro.devtools`)."""
    from .devtools.lint import main as lint_main

    argv: List[str] = list(args.paths)
    if args.format != "human":
        argv += ["--format", args.format]
    if args.select:
        argv += ["--select", args.select]
    if args.list_rules:
        argv += ["--list-rules"]
    if args.deep:
        argv += ["--deep"]
    if args.call_graph:
        argv += ["--call-graph", args.call_graph]
    if args.strict_suppressions:
        argv += ["--strict-suppressions"]
    return lint_main(argv)


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="delta-Clusters / FLOC (Yang et al., ICDE 2002)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine delta-clusters from a matrix")
    mine.add_argument("matrix", help=".npz or .csv matrix (empty cell = missing)")
    mine.add_argument("--target", type=float, required=True,
                      help="residue target r (r-residue delta-clusters)")
    mine.add_argument("--k", type=int, default=10)
    mine.add_argument("--restarts", type=int, default=2)
    mine.add_argument("--max-clusters", type=int, default=None)
    mine.add_argument("--min-rows", type=int, default=3)
    mine.add_argument("--min-cols", type=int, default=3)
    mine.add_argument("--alpha", type=float, default=0.0,
                      help="occupancy threshold (Definition 3.1)")
    mine.add_argument("--p", type=float, default=0.2,
                      help="Phase-1 seed inclusion probability")
    mine.add_argument("--reseed-rounds", type=int, default=10)
    mine.add_argument("--seed", type=_seed, default=0,
                      help="root seed, the same on every path (default 0)")
    mine.add_argument("--out", default=None, help="write clusters here")
    mine.add_argument("--trace", default=None, metavar="PATH",
                      help="write a JSONL trace (seed/action/iteration "
                           "events) to PATH")
    mine.add_argument("--progress", action="store_true",
                      help="print per-iteration progress to stderr")
    mine.add_argument("--metrics", action="store_true",
                      help="collect and print run metrics "
                           "(actions, gain-eval timings, residue)")
    runtime = mine.add_argument_group(
        "supervised runtime",
        "any of these flags runs restarts as checkpointed, retried tasks "
        "on a process pool (exit code 3 = degraded result)",
    )
    runtime.add_argument("--workers", type=int, default=None, metavar="N",
                         help="worker processes for parallel restarts")
    runtime.add_argument("--task-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-restart time budget; stragglers are "
                              "terminated and retried")
    runtime.add_argument("--max-retries", type=int, default=None, metavar="N",
                         help="retry budget per restart (default 2)")
    runtime.add_argument("--run-dir", default=None, metavar="DIR",
                         help="checkpoint directory (manifest + per-restart "
                              "records)")
    runtime.add_argument("--resume", action="store_true",
                         help="continue a checkpointed session from "
                              "--run-dir, re-executing only missing restarts")
    mine.set_defaults(func=cmd_mine)

    generate = sub.add_parser("generate", help="generate a workload")
    generate.add_argument("kind", choices=("synthetic", "movielens", "yeast"))
    generate.add_argument("--rows", type=int, default=300)
    generate.add_argument("--cols", type=int, default=60)
    generate.add_argument("--clusters", type=int, default=10)
    generate.add_argument("--cluster-rows", type=int, default=30)
    generate.add_argument("--cluster-cols", type=int, default=20)
    generate.add_argument("--noise", type=float, default=3.0)
    generate.add_argument("--missing", type=float, default=0.0,
                          help="missing fraction (synthetic/yeast) or "
                               "density (movielens)")
    generate.add_argument("--seed", type=_seed, default=None)
    generate.add_argument("--out", required=True, help="output .npz")
    generate.add_argument("--truth-out", default=None,
                          help="write ground-truth clusters here")
    generate.set_defaults(func=cmd_generate)

    evaluate = sub.add_parser("evaluate", help="score clusters on a matrix")
    evaluate.add_argument("matrix")
    evaluate.add_argument("clusters", help="cluster file from 'mine'")
    evaluate.add_argument("--truth", default=None,
                          help="ground-truth cluster file for recall/precision")
    evaluate.set_defaults(func=cmd_evaluate)

    predict = sub.add_parser("predict", help="predict one cell from clusters")
    predict.add_argument("matrix")
    predict.add_argument("clusters")
    predict.add_argument("--row", type=int, required=True)
    predict.add_argument("--col", type=int, required=True)
    predict.set_defaults(func=cmd_predict)

    analyze = sub.add_parser(
        "analyze-trace",
        help="aggregate a recorded JSONL trace (sweeps, clusters, gains)",
    )
    analyze.add_argument("trace", help="JSONL trace from 'mine --trace'")
    analyze.add_argument("--json", action="store_true",
                         help="emit the full analysis as deterministic JSON")
    analyze.add_argument("--strict", action="store_true",
                         help="fail on a truncated final line instead of "
                              "skipping it")
    analyze.add_argument("--top-slots", type=int, default=3, metavar="N",
                         help="gain histograms for the N busiest "
                              "(kind, cluster) slots (default 3)")
    analyze.add_argument("--straggler-factor", type=float, default=None,
                         metavar="X",
                         help="a task is a straggler when it runs longer "
                              "than X times its wave's median (default: "
                              "repro.obs.analysis.DEFAULT_STRAGGLER_FACTOR)")
    analyze.set_defaults(func=cmd_analyze_trace)

    export = sub.add_parser(
        "export-trace",
        help="render a session trace as Chrome trace-event JSON or OTLP",
    )
    export.add_argument(
        "source",
        help="a merged session trace (JSONL file) or a run directory "
             "whose traces/ shards are merged in-memory",
    )
    export.add_argument("--format", choices=("chrome", "otlp", "jsonl"),
                        default="chrome",
                        help="chrome: trace-event JSON (Perfetto/"
                             "chrome://tracing); otlp: OTLP/JSON LogsData; "
                             "jsonl: merged records (default chrome)")
    export.add_argument("--out", metavar="PATH",
                        help="write to PATH instead of stdout")
    export.set_defaults(func=cmd_export_trace)

    diff = sub.add_parser(
        "diff-traces",
        help="align two twinned traces and quantify residue divergence",
    )
    diff.add_argument("trace_a", help="baseline trace (e.g. exact gains)")
    diff.add_argument("trace_b", help="comparison trace (e.g. fast gains)")
    diff.add_argument("--json", action="store_true",
                      help="emit the aligned diff as deterministic JSON")
    diff.add_argument("--tol", type=float, default=0.0,
                      help="residue |delta| below this is not divergence")
    diff.set_defaults(func=cmd_diff_traces)

    bench = sub.add_parser(
        "bench",
        help="run registered perf workloads, write/compare BENCH_*.json",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_run = bench_sub.add_parser(
        "run", help="run one suite and write its bench document"
    )
    bench_run.add_argument("--suite", default="smoke",
                           help="workload suite to run (default: smoke)")
    bench_run.add_argument("--repeats", type=int, default=3, metavar="N",
                           help="repetitions per workload; wall time is "
                                "best-of-N, counters must be identical "
                                "(default 3)")
    bench_run.add_argument("--out", default=None, metavar="PATH",
                           help="document path (default BENCH_<suite>.json)")
    bench_run.add_argument("--results-dir", default="benchmarks/results",
                           metavar="DIR",
                           help="directory for content-addressed per-run "
                                "records (default benchmarks/results)")
    bench_run.set_defaults(func=cmd_bench)
    bench_list = bench_sub.add_parser(
        "list", help="list registered workloads and suites"
    )
    bench_list.add_argument("--suite", default=None,
                            help="restrict the listing to one suite")
    bench_list.set_defaults(func=cmd_bench)
    bench_compare = bench_sub.add_parser(
        "compare",
        help="compare two bench documents; exit 1 on regression",
    )
    bench_compare.add_argument("old", help="baseline document")
    bench_compare.add_argument("new", help="candidate document")
    bench_compare.add_argument("--tol-time", default="20%",
                               help="relative slowdown budget, e.g. 20%% "
                                    "or 0.2; 'none' skips timing checks "
                                    "(default 20%%)")
    bench_compare.add_argument("--tol-work", default="0%",
                               help="relative work-counter drift budget "
                                    "(default 0%% -- exact; counters are "
                                    "deterministic)")
    bench_compare.set_defaults(func=cmd_bench)

    lint = sub.add_parser(
        "lint", help="run the DCL invariant linter over a source tree"
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", choices=("human", "json"), default="human")
    lint.add_argument("--select", default=None, metavar="CODES",
                      help="comma-separated rule codes (e.g. DCL001,DCL005)")
    lint.add_argument("--list-rules", action="store_true")
    lint.add_argument("--deep", action="store_true",
                      help="also run the whole-program rules "
                           "(DCL010-DCL013) over the cross-module "
                           "call graph")
    lint.add_argument("--call-graph", default=None, metavar="FN",
                      help="print a function's transitive reach "
                           "(qualname or dotted suffix) and exit")
    lint.add_argument("--strict-suppressions", action="store_true",
                      help="fail on malformed, unknown, or stale "
                           "suppression comments")
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    try:
        # A bad --seed raises _UsageError from inside parse_args.
        args = parser.parse_args(list(argv) if argv is not None else None)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout went away (``repro analyze-trace ... |
        # head``).  Point stdout at devnull so the interpreter's final
        # flush stays quiet, and exit like a process killed by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 128 + 13


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
