"""Seed-pinned bench workloads behind a registry.

A *workload* is one deterministic unit of measurable FLOC work: it owns
its data generation (pinned seeds, no ambient entropy), runs with a
caller-supplied :class:`~repro.obs.perf.counters.WorkCounters`, and
returns a small dict of deterministic result details.  The bench
harness (:mod:`repro.obs.perf.bench`) times workloads and packages
counters + details + environment fingerprint into schema-versioned
documents; workloads themselves never read a clock (lint rule DCL010)
so their output is bit-identical across runs and machines.

The built-in workloads are grouped into *suites*:

``smoke``
    Seconds-scale runs of both gain modes, a pooled mining session and
    counted restarts on input with missing entries -- the CI perf gate
    (`.github/workflows/ci.yml` compares their counters against
    ``benchmarks/baselines/BENCH_smoke.json``).
``scaling``
    Cells of the Tables 2/3 response-time sweep, sharing
    :func:`scaling_cell_config` with ``benchmarks/bench_table2_3_scaling.py``
    so the pytest bench and the harness measure the same configuration.
``table23``
    The same Tables 2/3 cells in the *default* (exact) gain mode -- the
    batched-gain-engine acceptance suite.  CI compares it against
    ``benchmarks/baselines/BENCH_table23.json`` so the engine's exact-mode
    speedup is gated alongside smoke.
``primitives``
    Fixed-repetition loops over the core per-operation primitives,
    sharing :func:`make_primitives_payload` with
    ``benchmarks/bench_primitives.py``.

Third parties (including the ``benchmarks/bench_*.py`` files) register
additional workloads with :func:`register_workload`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .counters import WorkCounters

if TYPE_CHECKING:  # runtime imports stay lazy: core imports this package
    from ...core.floc import _State
    from ...eval.experiment import ExperimentConfig

__all__ = [
    "Workload",
    "get_workload",
    "iter_workloads",
    "make_primitives_payload",
    "register_workload",
    "scaling_cell_config",
    "suite_names",
    "workload_names",
]

#: A runner receives the counter object to count into and returns a
#: dict of deterministic result details (no wall-clock values).
Runner = Callable[[WorkCounters], Dict[str, object]]


@dataclass(frozen=True)
class Workload:
    """One registered bench workload (see module docstring)."""

    name: str
    description: str
    suites: Tuple[str, ...]
    runner: Runner

    def run(self, work: WorkCounters) -> Dict[str, object]:
        return self.runner(work)


_REGISTRY: Dict[str, Workload] = {}


def register_workload(
    name: str,
    description: str,
    suites: Tuple[str, ...],
    runner: Runner,
) -> Workload:
    """Register a workload; re-registering a name replaces it."""
    if not name:
        raise ValueError("workload name must be non-empty")
    if not suites:
        raise ValueError(f"workload {name!r} must belong to >= 1 suite")
    workload = Workload(
        name=name, description=description, suites=tuple(suites), runner=runner
    )
    _REGISTRY[name] = workload
    return workload


def get_workload(name: str) -> Workload:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown workload {name!r}; registered: {known}") from None


def iter_workloads(suite: Optional[str] = None) -> Iterator[Workload]:
    """Registered workloads in name order, optionally one suite's."""
    for name in sorted(_REGISTRY):
        workload = _REGISTRY[name]
        if suite is None or suite in workload.suites:
            yield workload


def workload_names(suite: Optional[str] = None) -> List[str]:
    return [w.name for w in iter_workloads(suite)]


def suite_names() -> List[str]:
    names = {suite for w in _REGISTRY.values() for suite in w.suites}
    return sorted(names)


# -- shared payload / config builders ----------------------------------
# These are the single source of truth for the configurations that the
# pytest benches under benchmarks/ measure, so `repro bench` and the
# pytest path exercise identical work.

def make_primitives_payload(
    work: Optional[WorkCounters] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, "_State"]:
    """The 600x80 primitives payload (10% missing, 16 bernoulli seeds).

    Returns ``(values, row_member, col_member, state)`` -- exactly the
    fixture of ``benchmarks/bench_primitives.py``, with the state
    counting into ``work`` when given.
    """
    from ...core.floc import _State
    from ...core.seeding import bernoulli_seeds

    rng = np.random.default_rng(0)
    values = rng.normal(size=(600, 80))
    values[rng.random((600, 80)) < 0.1] = np.nan
    seeds = bernoulli_seeds(600, 80, 16, 0.15, rng)
    state = _State(values, seeds, work=work)
    row_member = np.zeros(600, dtype=bool)
    row_member[:120] = True
    col_member = np.zeros(80, dtype=bool)
    col_member[:16] = True
    return values, row_member, col_member, state


def scaling_cell_config(n_rows: int, n_cols: int, k: int) -> "ExperimentConfig":
    """The Tables 2/3 sweep-cell config (one cell of the paper's grid).

    Shared with ``benchmarks/bench_table2_3_scaling.py`` so the scaling
    bench and the ``scaling`` suite measure the same configuration.
    """
    from ...core.constraints import Constraints
    from ...eval.experiment import ExperimentConfig

    return ExperimentConfig(
        n_rows=n_rows,
        n_cols=n_cols,
        n_embedded=12,
        embedded_mean_volume=0.004 * n_rows * n_cols,
        embedded_aspect=1.5,
        noise=3.0,
        k=k,
        p=(0.05 + 0.2) / 2,  # paper: 0.05*N rows, 0.2*M cols
        ordering="weighted",
        gain_mode="fast",
        residue_target_factor=2.0,
        constraints=Constraints(min_rows=3, min_cols=3),
        max_iterations=40,
    )


# -- built-in workloads ------------------------------------------------

def _smoke_floc(gain_mode: str) -> Runner:
    def run(work: WorkCounters) -> Dict[str, object]:
        from ...core.floc import floc
        from ...data.synthetic import generate_embedded

        dataset = generate_embedded(
            90, 18, 2, cluster_shape=(14, 7), noise=1.0, rng=0
        )
        result = floc(
            dataset.matrix, 4,
            gain_mode=gain_mode,
            residue_target=2.0,
            max_iterations=12,
            rng=7,
            work=work,
        )
        return {
            "gain_mode": gain_mode,
            "n_iterations": result.n_iterations,
            "n_actions": result.n_actions,
            "converged": result.converged,
            "average_residue": round(result.average_residue, 12),
            "total_volume": result.clustering.total_volume(),
        }

    return run


def _smoke_mining(work: WorkCounters) -> Dict[str, object]:
    from ...core.mining import pool_mining_results, run_restart
    from ...core.params import MiningParams
    from ...data.synthetic import generate_embedded

    dataset = generate_embedded(
        100, 20, 3, cluster_shape=(15, 8), noise=1.0, rng=1
    )
    params = MiningParams(
        residue_target=2.0, k=4, reseed_rounds=2, max_iterations=10,
        min_volume=16,
    )
    runs = [
        run_restart(dataset.matrix, restart, params, root_seed=11, work=work)
        for restart in range(params.n_restarts)
    ]
    pooled = pool_mining_results(dataset.matrix, runs, params)
    return {
        "n_restarts": len(runs),
        "n_pooled": pooled.n_pooled,
        "n_clusters": len(pooled.clustering.clusters),
        "total_volume": pooled.clustering.total_volume(),
    }


def _smoke_mining_sparse(work: WorkCounters) -> Dict[str, object]:
    from ...core.mining import run_restart
    from ...core.params import MiningParams
    from ...data.synthetic import generate_embedded

    # 20% missing entries: the estimate lane's overlays for lines
    # without a specified cell on a cluster run here.
    dataset = generate_embedded(
        100, 20, 3, cluster_shape=(15, 8), noise=1.0, missing_fraction=0.2,
        rng=1,
    )
    params = MiningParams(
        residue_target=4.0, k=4, reseed_rounds=2, max_iterations=10,
    )
    runs = [
        run_restart(dataset.matrix, restart, params, root_seed=13, work=work)
        for restart in range(params.n_restarts)
    ]
    return {
        "n_restarts": len(runs),
        "n_actions": sum(run.n_actions for run in runs),
        "average_residue": [round(run.average_residue, 12) for run in runs],
        "total_volume": sum(run.clustering.total_volume() for run in runs),
    }


def _scaling_cell(
    n_rows: int, n_cols: int, k: int, gain_mode: Optional[str] = None
) -> Runner:
    def run(work: WorkCounters) -> Dict[str, object]:
        from ...eval.experiment import run_trial

        config = scaling_cell_config(n_rows, n_cols, k)
        if gain_mode is not None:
            config = config.with_overrides(gain_mode=gain_mode)
        trial = run_trial(config, rng=1, work=work)
        return {
            "size": f"{n_rows}x{n_cols}",
            "k": k,
            "gain_mode": config.gain_mode,
            "n_iterations": trial.n_iterations,
            "recall": round(trial.recall, 12),
            "precision": round(trial.precision, 12),
            "total_volume": trial.total_volume,
        }

    return run


def _primitives_residue_scan(work: WorkCounters) -> Dict[str, object]:
    _, _, _, state = make_primitives_payload(work=work)
    reps = 50
    for _ in range(reps):
        state.refresh_cluster(0)
    return {"reps": reps, "volume": int(state.volumes[0])}


def _primitives_exact_lane(work: WorkCounters) -> Dict[str, object]:
    from ...core.gain_engine import exact_lane

    _, _, _, state = make_primitives_payload(work=work)
    reps = 50
    checksum = 0.0
    for _ in range(reps):
        lane = exact_lane(state, "row", 0)
        checksum += float(lane.new_residues.sum())
    return {"reps": reps, "width": 600, "checksum": round(checksum, 9)}


def _primitives_exact_lane_block(work: WorkCounters) -> Dict[str, object]:
    from ...core.gain_engine import _BLOCK, exact_context, exact_lane

    _, _, _, state = make_primitives_payload(work=work)
    reps = 50
    checksum = 0.0
    for rep in range(reps):
        # One context amortized over the sweep's block rebuilds -- the
        # shape _resync_block drives during a real Phase 2 iteration.
        ctx = exact_context(state, "row", 0)
        for start in range(0, 600, _BLOCK):
            sel = np.arange(start, min(start + _BLOCK, 600), dtype=np.intp)
            lane = exact_lane(state, "row", 0, sel=sel, ctx=ctx)
            checksum += float(lane.new_residues.sum())
    return {"reps": reps, "block": _BLOCK, "checksum": round(checksum, 9)}


def _primitives_estimate_lane(work: WorkCounters) -> Dict[str, object]:
    from ...core.gain_engine import estimate_lane

    _, _, _, state = make_primitives_payload(work=work)
    reps = 200
    checksum = 0.0
    for _ in range(reps):
        lane = estimate_lane(state, 0)
        checksum += float(lane.new_residues.sum())
    return {"reps": reps, "checksum": round(checksum, 9)}


register_workload(
    "smoke_floc_exact",
    "Single FLOC run, exact gain mode, 90x18 embedded workload",
    ("smoke",),
    _smoke_floc("exact"),
)
register_workload(
    "smoke_floc_fast",
    "Single FLOC run, fast gain mode, 90x18 embedded workload",
    ("smoke",),
    _smoke_floc("fast"),
)
register_workload(
    "smoke_mining",
    "3-restart mining session with pooling, 100x20 embedded workload",
    ("smoke",),
    _smoke_mining,
)
register_workload(
    "smoke_mining_sparse",
    "3 counted restarts on a 100x20 embedded workload, 20% missing",
    ("smoke",),
    _smoke_mining_sparse,
)
register_workload(
    "scaling_100x20_k6",
    "Tables 2/3 sweep cell: 100x20 matrix, k=6",
    ("scaling",),
    _scaling_cell(100, 20, 6),
)
register_workload(
    "scaling_250x30_k12",
    "Tables 2/3 sweep cell: 250x30 matrix, k=12",
    ("scaling",),
    _scaling_cell(250, 30, 12),
)
register_workload(
    "table23_100x20_k6_exact",
    "Tables 2/3 cell in default (exact) gain mode: 100x20 matrix, k=6",
    ("table23",),
    _scaling_cell(100, 20, 6, gain_mode="exact"),
)
register_workload(
    "table23_250x30_k12_exact",
    "Tables 2/3 cell in default (exact) gain mode: 250x30 matrix, k=12",
    ("table23",),
    _scaling_cell(250, 30, 12, gain_mode="exact"),
)
register_workload(
    "table23_500x40_k12_exact",
    "Tables 2/3 cell in default (exact) gain mode: 500x40 matrix, k=12",
    ("table23",),
    _scaling_cell(500, 40, 12, gain_mode="exact"),
)
register_workload(
    "table23_750x50_k10_exact",
    "Tables 2/3 cell in default (exact) gain mode: 750x50 matrix, k=10",
    ("table23",),
    _scaling_cell(750, 50, 10, gain_mode="exact"),
)
register_workload(
    "primitives_residue_scan",
    "50 repetitions of the exact cluster residue refresh (600x80 state)",
    ("primitives",),
    _primitives_residue_scan,
)
register_workload(
    "primitives_exact_lane",
    "50 full exact-lane builds (600 row toggles batched per call)",
    ("primitives",),
    _primitives_exact_lane,
)
register_workload(
    "primitives_exact_lane_block",
    "50 sweeps of context-shared 128-slot block exact-lane builds",
    ("primitives",),
    _primitives_exact_lane_block,
)
register_workload(
    "primitives_estimate_lane",
    "200 frozen-bases estimate-lane builds (fast-mode engine path)",
    ("primitives",),
    _primitives_estimate_lane,
)
