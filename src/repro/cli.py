"""Command-line interface: mine, generate, evaluate, predict, and more.

This module builds the parser for every subcommand and runs ``mine``;
the other subcommands live in :mod:`repro.commands`, which loads only
when one of them runs.

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
import os
import shutil
import sys
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, TypeVar,
    cast,
)

# Only what an untraced ``repro mine`` runs is imported here.  Tracing
# and the supervised runtime load in ``cmd_mine`` when its flags ask for
# them, and the other subcommands from :mod:`repro.commands` when they
# run, so a mining process loads no generator, trace vocabulary,
# analytics or export code it does not use.
from ._lazy import lazy_exports
from .core.matrix import DataMatrix
from .core.mining import MiningResult, mine_delta_clusters
from .core.params import MiningParams, ParameterError
from .data.io import load_matrix_csv, load_matrix_npz, save_clusters
from .eval.reporting import format_table
from .obs.perf.counters import WorkCounters
from .obs.tracer import Tracer

if TYPE_CHECKING:
    from .obs.sinks import Sink
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


_COMMANDS = (
    "cmd_analyze_trace", "cmd_bench", "cmd_diff_traces", "cmd_evaluate",
    "cmd_export_trace", "cmd_generate", "cmd_lint", "cmd_predict",
)
_resolve, __dir__ = lazy_exports(__name__, {"repro.commands": _COMMANDS})


def __getattr__(name: str) -> object:
    return _resolve(name)


def _command(name: str) -> Callable[[argparse.Namespace], int]:
    """The parser's handler for :mod:`repro.commands`' ``name``: it
    imports that module when the subcommand runs, not when it parses."""

    def run(args: argparse.Namespace) -> int:
        return cast(Callable[[argparse.Namespace], int], _resolve(name))(args)

    return run


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
    # ValueError includes UnicodeDecodeError; a cluster file with a
    # negative index raises IndexError.
    except (ValueError, IndexError) as exc:
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
    flag: str, path: Optional[str], make_parents: bool = False,
    directory: bool = False,
) -> None:
    """Fail on a ``flag`` path where no file can be created.

    With ``make_parents`` the command creates missing directories, so
    only the nearest existing ancestor has to be a directory.  With
    ``directory`` the path names a directory to write files into.
    """
    if not path:
        return
    target = Path(path)
    ancestor = target if directory else target.parent
    while make_parents and not ancestor.exists() and ancestor != ancestor.parent:
        ancestor = ancestor.parent
    if not ancestor.exists():
        problem = f"directory {ancestor} does not exist"
    elif not ancestor.is_dir():
        problem = f"{ancestor} is not a directory"
    elif not directory and target.is_dir():
        problem = "it is a directory"
    elif not os.access(ancestor, os.W_OK | os.X_OK):
        problem = f"directory {ancestor} is not writable"
    else:
        return
    raise _UsageError(f"cannot write {flag} {path}: {problem}")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _traced(args: argparse.Namespace, supervised: bool) -> bool:
    """Whether ``mine``'s flags ask for a tracer: ``--trace`` or
    ``--progress``, or ``--metrics`` on a supervised run (whose
    ``runtime.*`` metrics the tracer's registry collects)."""
    return bool(args.trace or args.progress or (args.metrics and supervised))


def _build_tracer(
    args: argparse.Namespace, supervised: bool = False
) -> Optional[Tracer]:
    """Tracer for ``mine`` per the --trace/--progress/--metrics flags.

    Supervised runs skip the plain ``--trace`` JSONL sink: the session
    trace machinery records the supervisor shard itself, and the merged
    session trace is copied to the ``--trace`` path afterwards.
    """
    if not _traced(args, supervised):
        return None
    from .obs.metrics import MetricsRegistry
    from .obs.sinks import ConsoleProgressSink, JsonlSink

    sinks: List[Sink] = []
    if args.trace and not supervised:
        sinks.append(JsonlSink(args.trace))
    if args.progress:
        sinks.append(ConsoleProgressSink())
    metrics = MetricsRegistry() if args.metrics and supervised else None
    if not sinks and metrics is None:
        return None
    return Tracer(sinks=sinks, metrics=metrics)


def _print_metrics(result: MiningResult) -> None:
    """The ``--metrics`` table: a supervised run's ``runtime.*`` metrics
    and one ``perf.<counter>`` row per nonzero field of ``result.work``."""
    snapshot = result.metrics or {"counters": {}, "histograms": {}}
    counters = dict(snapshot["counters"])
    if result.work is not None:
        counters.update((f"perf.{name}", value) for name, value in result.work
                        if value)
    rows = [[name, "counter", counters[name]] for name in sorted(counters)]
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
    if args.metrics:
        _print_metrics(result)


def _given(**flags: Any) -> Dict[str, Any]:
    """The flags set on the command line: an unset one (``None``) takes
    the default of :class:`MiningParams` or ``RunConfig``."""
    return {name: value for name, value in flags.items() if value is not None}


def _mining_params(args: argparse.Namespace) -> MiningParams:
    """``mine``'s mining parameters, from its flags."""
    return MiningParams(**_given(
        residue_target=args.target, n_restarts=args.restarts, k=args.k,
        min_rows=args.min_rows, min_cols=args.min_cols, alpha=args.alpha,
        p=args.p, reseed_rounds=args.reseed_rounds,
        max_clusters=args.max_clusters,
    ))


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


#: ``mine``'s flag of each parameter that may be refused or that a
#: resumed session may differ in.
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
    # What the flags ask for is imported before the matrix loads, as
    # everything the plain path runs is: loading modules is start-up
    # cost, not mining time.
    if supervised:
        from .runtime import RunConfig
    if _traced(args, supervised):
        from .obs import events, metrics, sinks  # noqa: F401
        if supervised and args.trace:
            from .obs import session  # noqa: F401
    matrix = _read("matrix", args.matrix, _load_matrix)
    # Refuse an out-of-range value once, before any restart runs or is
    # dispatched (every worker would fail on it alike).
    try:
        params = _mining_params(args)
        params.check_shape(matrix.shape)
        if supervised:
            config = RunConfig(
                root_seed=args.seed,
                **_given(workers=args.workers, task_timeout=args.task_timeout,
                         max_retries=args.max_retries),
                **params.mining_params(),
            )
    except ParameterError as exc:
        raise _UsageError(f"invalid {_MINE_FLAGS[exc.name]}: {exc}") from None
    tracer = _build_tracer(args, supervised=supervised)
    # --metrics turns on work counting: its table prints result.work as
    # perf.* rows (counting is inert: --out is unchanged).  Supervised
    # workers always count.
    work = WorkCounters() if args.metrics else None
    try:
        if supervised:
            return _cmd_mine_supervised(args, matrix, config, tracer)
        result = mine_delta_clusters(
            matrix, rng=args.seed, tracer=tracer, work=work,
            **params.mining_params(),
        )
    finally:
        if tracer is not None:
            tracer.close()
    _print_mining_result(matrix, result, args)
    return 0


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
    # An unset mining flag takes MiningParams' default.
    mine.add_argument("--k", type=int)
    mine.add_argument("--restarts", type=int)
    mine.add_argument("--max-clusters", type=int)
    mine.add_argument("--min-rows", type=int)
    mine.add_argument("--min-cols", type=int)
    mine.add_argument("--alpha", type=float,
                      help="occupancy threshold (Definition 3.1)")
    mine.add_argument("--p", type=float,
                      help="Phase-1 seed inclusion probability")
    mine.add_argument("--reseed-rounds", type=int)
    mine.add_argument("--seed", type=_seed, default=0,
                      help="root seed, the same on every path (default 0)")
    mine.add_argument("--out", default=None, help="write clusters here")
    mine.add_argument("--trace", default=None, metavar="PATH",
                      help="write a JSONL trace (seed and per-sweep "
                           "iteration events) to PATH")
    mine.add_argument("--progress", action="store_true",
                      help="print per-iteration progress to stderr")
    mine.add_argument("--metrics", action="store_true",
                      help="print the run's work counters (perf.*) and, "
                           "when supervised, its runtime.* metrics")
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
    generate.set_defaults(func=_command("cmd_generate"))

    evaluate = sub.add_parser("evaluate", help="score clusters on a matrix")
    evaluate.add_argument("matrix")
    evaluate.add_argument("clusters", help="cluster file from 'mine'")
    evaluate.add_argument("--truth", default=None,
                          help="ground-truth cluster file for recall/precision")
    evaluate.set_defaults(func=_command("cmd_evaluate"))

    predict = sub.add_parser("predict", help="predict one cell from clusters")
    predict.add_argument("matrix")
    predict.add_argument("clusters")
    predict.add_argument("--row", type=int, required=True)
    predict.add_argument("--col", type=int, required=True)
    predict.set_defaults(func=_command("cmd_predict"))

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
    analyze.add_argument("--straggler-factor", type=float, default=None,
                         metavar="X",
                         help="a task is a straggler when it runs longer "
                              "than X times its wave's median (default: "
                              "repro.obs.analysis.DEFAULT_STRAGGLER_FACTOR)")
    analyze.set_defaults(func=_command("cmd_analyze_trace"))

    export = sub.add_parser(
        "export-trace",
        help="render a session trace as Chrome trace-event JSON or OTLP",
    )
    export.add_argument(
        "source",
        help="a merged session trace (JSONL file) or a run directory "
             "whose supervisor shards and restart records are merged "
             "in-memory",
    )
    export.add_argument("--format", choices=("chrome", "otlp", "jsonl"),
                        default="chrome",
                        help="chrome: trace-event JSON (Perfetto/"
                             "chrome://tracing); otlp: OTLP/JSON LogsData; "
                             "jsonl: merged records (default chrome)")
    export.add_argument("--out", metavar="PATH",
                        help="write to PATH instead of stdout")
    export.set_defaults(func=_command("cmd_export_trace"))

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
    diff.set_defaults(func=_command("cmd_diff_traces"))

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
    bench_run.set_defaults(func=_command("cmd_bench"))
    bench_list = bench_sub.add_parser(
        "list", help="list registered workloads and suites"
    )
    bench_list.add_argument("--suite", default=None,
                            help="restrict the listing to one suite")
    bench_list.set_defaults(func=_command("cmd_bench"))
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
    bench_compare.set_defaults(func=_command("cmd_bench"))

    lint = sub.add_parser(
        "lint", help="run the DCL invariant linter over a source tree"
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", choices=("human", "json"), default="human")
    lint.add_argument("--select", default=None, metavar="CODES",
                      help="comma-separated rule codes (e.g. DCL005,DCL011)")
    lint.add_argument("--list-rules", action="store_true")
    lint.add_argument("--strict-suppressions", action="store_true",
                      help="fail on malformed, unknown, or stale "
                           "suppression comments")
    lint.set_defaults(func=_command("cmd_lint"))

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
