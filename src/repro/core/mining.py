"""High-level mining front end: restarts, pooling, deduplication.

FLOC is a randomized local search; any single run can leave some planted
structure undiscovered.  :func:`mine_delta_clusters` wraps the paper's
algorithm in the standard practitioner loop:

1. run FLOC ``n_restarts`` times with independent seeds,
2. pool the clusters that meet the residue target (and a minimum size),
3. deduplicate near-identical clusters across runs (keeping the larger),
4. return the best ``max_clusters`` by volume.

This is the entry point a downstream user actually wants; ``floc()``
itself remains the faithful single-run algorithm.

Task decomposition
------------------
A mining session is a set of independent, seed-addressable restart
tasks plus one pooling tail, whichever process runs them:

* :func:`restart_seed` derives restart ``i``'s private
  :class:`~numpy.random.SeedSequence` from a root seed -- the same
  child regardless of which process computes it or in what order, so
  restarts can be scheduled, retried or resumed arbitrarily;
* :func:`run_restart` executes exactly one restart from its derived
  seed and returns the :class:`FlocResult`;
* :func:`pool_mining_results` pools/deduplicates any ordered collection
  of restart results into a :class:`MiningResult`.

:func:`mine_delta_clusters` runs these tasks in process; the supervised
runtime (:mod:`repro.runtime`) runs them on workers.  Its ``rng`` gives
the root seed -- an integer is the root itself, anything else gives one
draw from ``resolve_rng(rng)`` -- so ``mine_delta_clusters(rng=7)`` and
a supervised run with root seed 7 write the same clusters, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Union

import numpy as np

from ..obs.perf.counters import WorkCounters
from ..obs.tracer import NULL_TRACER, Tracer
from .cluster import DeltaCluster
from .clustering import Clustering
from .constraints import Constraints
from .floc import FlocResult, floc
from .matrix import DataMatrix
from .params import MiningParams
from .rng import RngLike, resolve_rng

__all__ = [
    "MiningResult",
    "mine_delta_clusters",
    "pool_mining_results",
    "restart_seed",
    "run_restart",
]


@dataclass
class MiningResult:
    """Pooled outcome of a multi-restart mining session.

    ``trace_summary`` is the tracer's end-of-session aggregate over *all*
    restarts (``None`` when the session was not traced); per-run
    convergence detail lives on each entry of ``runs``.  ``metrics`` is
    the supervised runtime's ``runtime.*`` metrics snapshot (``None``
    in process: no mining code writes a metric).
    ``work`` aggregates the restarts' deterministic
    :class:`~repro.obs.perf.counters.WorkCounters` (``None`` when no
    restart counted work).
    """

    clustering: Clustering
    runs: List[FlocResult] = field(default_factory=list)
    n_pooled: int = 0
    n_deduplicated: int = 0
    metrics: Optional[dict] = None
    trace_summary: Optional[dict] = None
    work: Optional[WorkCounters] = None

    @property
    def elapsed_seconds(self) -> float:
        return sum(run.elapsed_seconds for run in self.runs)


def mine_delta_clusters(
    matrix: Union[DataMatrix, np.ndarray],
    residue_target: float,
    *,
    rng: RngLike = None,
    tracer: Optional[Tracer] = None,
    work: Optional[WorkCounters] = None,
    **params: Any,
) -> MiningResult:
    """Mine r-residue delta-clusters with restarts and deduplication.

    Parameters
    ----------
    matrix:
        Data matrix (``NaN`` = missing).
    residue_target, **params:
        The session's :class:`~repro.core.params.MiningParams` (the ``r``
        of the r-residue delta-cluster, ``k``, ``n_restarts``,
        ``min_rows``, ...), with its defaults; an out-of-range value, or
        a ``min_rows`` / ``min_cols`` above the matrix's shape, raises
        :class:`~repro.core.params.ParameterError` before any restart
        runs.
    rng:
        The root seed: an integer is the root itself, anything else gives
        one draw from ``resolve_rng(rng)``.  Restart ``i`` is
        :func:`run_restart` with that ``root_seed``, as on a worker.
    tracer:
        Optional :class:`~repro.obs.Tracer` shared by every restart; each
        restart's events carry a ``restart`` context key so a single
        JSONL trace covers the whole session.  Tracing never changes the
        mining result.
    work:
        Optional :class:`~repro.obs.perf.counters.WorkCounters` that
        receives the session total; each restart counts into its own
        (``runs[i].work``), as on a worker.  It never changes the result.

    Returns
    -------
    MiningResult -- ``result.clustering`` holds the deduplicated
    clusters, largest first.
    """
    if not isinstance(matrix, DataMatrix):
        matrix = DataMatrix(matrix)
    session = MiningParams(residue_target, **params)
    # Every restart would fail on a seed that cannot fit: refuse it first.
    session.check_shape(matrix.shape)
    root_seed = (int(rng) if isinstance(rng, (int, np.integer))
                 else int(resolve_rng(rng).integers(2**63)))
    if tracer is None:
        tracer = NULL_TRACER

    runs = [
        run_restart(
            matrix, restart, session, root_seed=root_seed, tracer=tracer,
            work=None if work is None else WorkCounters(),
        )
        for restart in range(session.n_restarts)
    ]

    result_pool = pool_mining_results(matrix, runs, session)
    if work is not None and result_pool.work is not None:
        work.merge(result_pool.work)
    result_pool.trace_summary = tracer.summary() if tracer.enabled else None
    return result_pool


def restart_seed(root_seed: int, restart: int) -> np.random.SeedSequence:
    """Restart ``restart``'s private seed, derived from ``root_seed``.

    Equivalent to ``SeedSequence(root_seed).spawn(n)[restart]`` for any
    ``n > restart`` but computable without materializing the siblings:
    the child is addressed directly by its spawn key.  This is what
    makes restarts independent *tasks* -- any process can reconstruct
    restart ``i``'s exact stream from ``(root_seed, i)`` alone, so a
    retried or resumed restart is bit-identical to the original attempt.
    """
    if restart < 0:
        raise ValueError(f"restart index must be >= 0, got {restart}")
    return np.random.SeedSequence(root_seed, spawn_key=(restart,))


def run_restart(
    matrix: Union[DataMatrix, np.ndarray],
    restart: int,
    params: MiningParams,
    *,
    root_seed: int,
    tracer: Optional[Tracer] = None,
    work: Optional[WorkCounters] = None,
) -> FlocResult:
    """Execute one seed-addressable restart of a mining session.

    The restart draws only from ``restart_seed(root_seed, restart)``.
    :func:`mine_delta_clusters` (root seed: its integer ``rng``, or one
    draw from any other) and the runtime's workers both run restarts
    here.  Under ``tracer`` the restart runs in a ``restart`` span, and
    its records carry a ``restart`` context key.  ``params`` gives
    :func:`floc` its parameters and its ``min_rows`` x ``min_cols``
    floor.
    """
    if not isinstance(matrix, DataMatrix):
        matrix = DataMatrix(matrix)
    if tracer is None:
        tracer = NULL_TRACER
    constraints = Constraints(min_rows=params.min_rows, min_cols=params.min_cols)
    if tracer.enabled:
        tracer.push_context(restart=restart)
    try:
        with tracer.span("restart"):
            return floc(
                matrix, params.k,
                p=params.p,
                alpha=params.alpha,
                ordering=params.ordering,
                gain_mode=params.gain_mode,
                residue_target=params.residue_target,
                reseed_rounds=params.reseed_rounds,
                constraints=constraints,
                rng=restart_seed(root_seed, restart),
                max_iterations=params.max_iterations,
                tracer=tracer,
                work=work,
            )
    finally:
        if tracer.enabled:
            tracer.pop_context()


def pool_mining_results(
    matrix: Union[DataMatrix, np.ndarray],
    runs: Sequence[FlocResult],
    params: MiningParams,
) -> MiningResult:
    """Pool restart results into a deduplicated :class:`MiningResult`.

    This is the deterministic tail every mining front end shares:
    :func:`mine_delta_clusters` calls it on its in-process runs, and the
    supervised runtime (:mod:`repro.runtime`) calls it on the restart
    results replayed from a checkpoint store.  The outcome depends only
    on ``runs`` *in order* (pass them sorted by restart index), never on
    completion order or scheduling, which is what makes crash/resume
    parity possible.  ``work`` sums the runs' own counters.  A cluster
    is pooled when it meets ``params``' size floor, ``min_volume`` and
    ``residue_target``, and, with ``alpha > 0``, the alpha-occupancy
    condition (:meth:`~repro.core.cluster.DeltaCluster.occupancy_ok`).
    """
    if not isinstance(matrix, DataMatrix):
        matrix = DataMatrix(matrix)
    work_total: Optional[WorkCounters] = None
    for result in runs:
        if result.work is not None:
            if work_total is None:
                work_total = WorkCounters()
            work_total.merge(result.work)
    pooled: List[DeltaCluster] = []
    for result in runs:
        for cluster in result.clustering:
            if cluster.n_rows < params.min_rows or cluster.n_cols < params.min_cols:
                continue
            if cluster.volume(matrix) < params.min_volume:
                continue
            if cluster.residue(matrix) > params.residue_target:
                continue
            if params.alpha > 0.0 and not cluster.occupancy_ok(matrix, params.alpha):
                continue
            pooled.append(cluster)
    n_pooled = len(pooled)
    kept = _deduplicate(pooled, matrix, params.max_overlap)
    if params.max_clusters is not None:
        kept = kept[:params.max_clusters]
    return MiningResult(
        clustering=Clustering(matrix, kept),
        runs=list(runs),
        n_pooled=n_pooled,
        n_deduplicated=n_pooled - len(kept),
        work=work_total,
    )


def _deduplicate(
    pooled: List[DeltaCluster],
    matrix: DataMatrix,
    max_overlap: float,
) -> List[DeltaCluster]:
    """Greedy dedup: biggest volume first, drop heavy overlappers."""
    ordered = sorted(pooled, key=lambda c: -c.volume(matrix))
    kept: List[DeltaCluster] = []
    for candidate in ordered:
        duplicate = any(
            candidate.overlap_fraction(existing) > max_overlap
            for existing in kept
        )
        if not duplicate:
            kept.append(candidate)
    return kept
