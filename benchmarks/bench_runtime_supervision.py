"""Supervision overhead: what fault tolerance costs, and what it buys.

The `repro.runtime` supervisor adds process-pool dispatch, durable
digest-verified checkpoints, and finalize-from-disk pooling on top of
the plain in-process restart loop.  That machinery must stay cheap
relative to the mining it protects, and the parallel path must actually
pay for itself.  This bench measures, on one workload:

1. the plain in-process `run_restart` loop + pooling (the floor --
   the same seed-addressable restarts the supervisor dispatches, so
   the clusterings are directly comparable);
2. single-worker supervised mining (checkpoint + verify overhead);
3. multi-worker supervised mining (the speedup fault tolerance enables);
4. resume of a completed run (the cost of "nothing left to do").

The overhead budget is deliberately loose (supervision may cost up to
60% of the floor on this laptop-sized workload — process spawn and
durable fsyncs amortize over runs minutes long, not seconds) but it is
*asserted*, so a regression that makes checkpointing accidentally
quadratic or re-executes completed restarts fails the suite rather than
silently taxing every supervised run.
"""

import shutil
import tempfile
import time
from pathlib import Path

from repro.core.mining import pool_mining_results, run_restart
from repro.data.synthetic import generate_embedded
from repro.obs import WorkCounters
from repro.runtime import RunConfig, resume_run, run_supervised

N_RESTARTS = 4
WORKERS = 2
N_REPEATS = 3


def _workload():
    dataset = generate_embedded(
        120, 24, 3, cluster_shape=(18, 8), noise=1.0, rng=0
    )
    config = RunConfig(
        residue_target=2.0, n_restarts=N_RESTARTS, root_seed=9, k=4,
        max_iterations=12, min_volume=16, workers=1, max_retries=0,
    )
    return dataset.matrix, config


def _timed(func, repeats=N_REPEATS):
    """Best-of-N wall-clock timing.

    A single run bakes one scheduler hiccup or cold page cache straight
    into the overhead ratio, which used to fail the budget assertion
    spuriously; the min over repeats is the honest cost.  The runs are
    deterministic, so every repeat returns the same value.
    """
    best_out, best_s = None, float("inf")
    for __ in range(repeats):
        started = time.perf_counter()
        out = func()
        elapsed = time.perf_counter() - started
        if elapsed < best_s:
            best_out, best_s = out, elapsed
    return best_out, best_s


def test_supervision_overhead_and_parallel_payoff(report):
    matrix, config = _workload()
    scratch = Path(tempfile.mkdtemp(prefix="bench-runtime-"))
    try:
        # 1. The unsupervised floor: same restarts, no supervision.
        # Each restart counts its work so the floor's deterministic
        # totals are comparable against every supervised path below.
        def _plain_loop():
            runs = [
                run_restart(
                    matrix, restart, config,
                    root_seed=config.root_seed, work=WorkCounters(),
                )
                for restart in range(N_RESTARTS)
            ]
            return pool_mining_results(matrix, runs, config)

        plain, plain_s = _timed(_plain_loop)

        # 2. Supervised, serial: pure fault-tolerance overhead.  A run
        # directory cannot be created twice, so each repeat gets a fresh
        # one; any of them serves as the resume target afterwards.
        serial_dirs = iter(
            scratch / f"serial{i}" for i in range(N_REPEATS)
        )
        serial, serial_s = _timed(lambda: run_supervised(
            matrix, config, run_dir=next(serial_dirs)))

        # 3. Supervised, parallel: the payoff.
        from dataclasses import replace
        par_config = replace(config, workers=WORKERS)
        parallel_dirs = iter(
            scratch / f"parallel{i}" for i in range(N_REPEATS)
        )
        parallel, parallel_s = _timed(lambda: run_supervised(
            matrix, par_config, run_dir=next(parallel_dirs)))

        # 4. Resume with everything checkpointed: near-free (and
        # idempotent, so repeats can share the directory).
        resumed, resume_s = _timed(lambda: resume_run(
            matrix, scratch / "serial0"))

        assert serial.ok and parallel.ok and resumed.ok
        assert resumed.executed == []

        shapes = lambda r: [(c.rows, c.cols) for c in r.clustering]  # noqa: E731
        assert shapes(serial.result) == shapes(plain)
        assert shapes(parallel.result) == shapes(plain)
        assert shapes(resumed.result) == shapes(plain)

        # The deterministic work totals must agree across all four
        # paths: supervised restarts always count, their counters ride
        # the checkpoint records, and pooling sums per-restart objects
        # -- so plain, serial, parallel and resumed see identical work.
        assert plain.work is not None
        for pooled in (serial.result, parallel.result, resumed.result):
            assert pooled.work is not None
            assert pooled.work.as_dict() == plain.work.as_dict()

        overhead = serial_s / plain_s - 1.0
        speedup = serial_s / parallel_s

        report("runtime_supervision", "\n".join([
            f"supervised mining overhead/payoff "
            f"({N_RESTARTS} restarts, {WORKERS} workers)",
            f"plain restart loop      : {plain_s * 1e3:9.1f} ms",
            f"supervised, 1 worker    : {serial_s * 1e3:9.1f} ms "
            f"({100 * overhead:+.1f}% vs plain)",
            f"supervised, {WORKERS} workers   : {parallel_s * 1e3:9.1f} ms "
            f"({speedup:.2f}x vs 1 worker)",
            f"resume (all done)       : {resume_s * 1e3:9.1f} ms",
            "clusterings             : identical across all four paths",
            f"work (deterministic)    : {plain.work.total()} units "
            f"(toggle_evals={plain.work.toggle_evals}, "
            f"cells_scanned={plain.work.cells_scanned}) "
            "-- identical across all four paths",
        ]))

        assert overhead < 0.60, (
            f"supervision costs {100 * overhead:.1f}% over the plain loop "
            f"(budget: 60%)"
        )
        assert resume_s < serial_s, "resume must not re-execute restarts"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
