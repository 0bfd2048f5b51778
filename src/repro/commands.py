"""The ``repro`` subcommands other than ``mine``.

:mod:`repro.cli` builds the parser for every subcommand and dispatches
these by name, importing this module only when one of them runs: a
``repro mine`` process loads none of them (see DESIGN.md, "Start-up").
Each command imports what it alone needs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cli import _check_writable, _load_matrix, _read, _UsageError
from .core.cluster import DeltaCluster
from .core.matrix import DataMatrix
from .data.io import load_clusters, save_clusters, save_matrix_npz
from .eval.reporting import format_table
from .obs.sinks import read_jsonl

if TYPE_CHECKING:
    from .obs.analysis import TraceAnalysis

__all__ = [
    "cmd_analyze_trace",
    "cmd_bench",
    "cmd_diff_traces",
    "cmd_evaluate",
    "cmd_export_trace",
    "cmd_generate",
    "cmd_lint",
    "cmd_predict",
]


def _check_fit(
    what: str, path: str, clusters: Sequence[DeltaCluster],
    matrix: DataMatrix, matrix_path: str,
) -> None:
    """Clusters with an index outside the matrix are a usage error."""
    for cluster in clusters:
        for axis, indices, size in (("row", cluster.rows, matrix.n_rows),
                                    ("column", cluster.cols, matrix.n_cols)):
            if indices and indices[-1] >= size:
                raise _UsageError(
                    f"{what} in {path} do not fit {matrix_path}: {axis} index "
                    f"{indices[-1]} out of range for {size} {axis}s"
                )


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
    _check_fit("clusters", args.clusters, clusters, matrix, args.matrix)
    truth = _read("truth", args.truth, load_clusters) if args.truth else None
    if truth is not None:
        _check_fit("truth clusters", args.truth, truth, matrix, args.matrix)
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
    _check_fit("clusters", args.clusters, clusters, matrix, args.matrix)
    for flag, index, size, axis in (("--row", args.row, matrix.n_rows, "rows"),
                                    ("--col", args.col, matrix.n_cols, "columns")):
        if not 0 <= index < size:
            raise _UsageError(
                f"invalid {flag}: {index} is outside the matrix's {size} {axis}"
            )
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


def _print_analysis(analysis: TraceAnalysis) -> None:
    counts = ", ".join(
        f"{kind}={count}"
        for kind, count in sorted(analysis.event_counts.items())
    )
    print(f"{analysis.n_records} records ({counts})")

    for session in analysis.sessions:
        label = _session_label(session.key)
        rows = [
            [
                sweep.index,
                sweep.residue,
                sweep.total_volume,
                sweep.n_actions,
                sweep.n_adopted,
                sweep.admissions,
                sweep.evictions,
                sweep.gain_sum,
                "yes" if sweep.improved else "no",
                sweep.elapsed_s,
            ]
            for sweep in session.sweeps
        ]
        print()
        print(format_table(
            rows,
            headers=["sweep", "residue", "volume", "actions", "adopted",
                     "adm", "evi", "gain_sum", "improved", "seconds"],
            title=f"session [{label}]: {len(session.sweeps)} sweep(s), "
                  f"{session.n_actions} action(s)",
            precision=4,
        ))
        rows = [
            [
                sweep.index, d.cluster, d.rows_in, d.rows_out,
                d.cols_in, d.cols_out,
                f"{d.residue_before:.4f} -> {d.residue:.4f}",
            ]
            for sweep in session.sweeps
            for d in sweep.decisions
        ]
        if rows:
            print()
            print(format_table(
                rows,
                headers=["sweep", "cluster", "+rows", "-rows", "+cols",
                         "-cols", "residue before -> after"],
                title=f"session [{label}]: decisions (lines each sweep "
                      "left admitted and evicted)",
            ))

    for session in analysis.sessions:
        rows = [
            [
                c.cluster, c.seeds, c.reseeds, c.actions,
                c.admissions, c.evictions, c.gain_sum,
                "-" if c.last_residue is None else c.last_residue,
                "-" if c.last_volume is None else c.last_volume,
            ]
            for c in analysis.clusters if c.session == session.key
        ]
        if rows:
            print()
            print(format_table(
                rows,
                headers=["cluster", "seeds", "reseeds", "actions", "adm",
                         "evi", "gain_sum", "last_residue", "last_volume"],
                title=f"session [{_session_label(session.key)}]: "
                      "per-cluster lifetime",
                precision=4,
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
    """Aggregate a recorded JSONL trace into per-sweep/cluster stats."""
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
        _print_analysis(analysis)
    return 0


def _load_trace_source(args: argparse.Namespace) -> Optional[List[Dict[str, object]]]:
    """Load records from a trace file or a supervised run directory.

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
            print(f"warning: {len(skipped)} damaged shard(s) skipped: "
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
    from .obs.analysis import UnpairedIteration, diff_traces

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
    elif isinstance(first, UnpairedIteration):
        print(f"first divergence at iteration {first.index} of "
              f"[{_session_label(first.key)}] (only in {first.side})")
    else:
        print(f"first divergence at iteration {first.index} of "
              f"[{_session_label(first.key)}] "
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
        out = args.out or f"BENCH_{args.suite}.json"
        # Fail on a bad --out or --results-dir before the suite runs.
        _check_writable("--out", out, make_parents=True)
        _check_writable("--results-dir", args.results_dir,
                        make_parents=True, directory=True)
        try:
            document = bench.run_suite(args.suite, repeats=args.repeats)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
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
    old = _read("bench document", args.old, bench.load_document)
    new = _read("bench document", args.new, bench.load_document)
    try:
        comparison = bench.compare_documents(
            old, new,
            tol_time=bench.parse_tolerance(args.tol_time),
            tol_work=bench.parse_tolerance(args.tol_work),
        )
    except ValueError as exc:
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
    if args.strict_suppressions:
        argv += ["--strict-suppressions"]
    return lint_main(argv)
