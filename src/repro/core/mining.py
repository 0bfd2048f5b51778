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
from typing import List, Optional, Sequence, Union

import numpy as np

from ..obs.perf.counters import WorkCounters
from ..obs.tracer import NULL_TRACER, Tracer
from .cluster import DeltaCluster
from .clustering import Clustering
from .constraints import Constraints
from .floc import FlocResult, floc
from .matrix import DataMatrix
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

    ``metrics`` / ``trace_summary`` are the tracer's end-of-session
    aggregates over *all* restarts (``None`` when the session was not
    traced); per-run convergence detail lives on each entry of ``runs``.
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
    k: int = 10,
    n_restarts: int = 3,
    max_clusters: Optional[int] = None,
    min_rows: int = 3,
    min_cols: int = 3,
    min_volume: int = 25,
    max_overlap: float = 0.5,
    alpha: float = 0.0,
    p: float = 0.2,
    reseed_rounds: int = 10,
    ordering: str = "greedy",
    gain_mode: str = "fast",
    rng: RngLike = None,
    tracer: Optional[Tracer] = None,
    work: Optional[WorkCounters] = None,
) -> MiningResult:
    """Mine r-residue delta-clusters with restarts and deduplication.

    Parameters
    ----------
    matrix:
        Data matrix (``NaN`` = missing).
    residue_target:
        The ``r`` of the r-residue delta-cluster: every returned cluster
        has mean absolute residue at most this.
    k, p, reseed_rounds, ordering, gain_mode, alpha:
        Forwarded to :func:`repro.core.floc.floc` per restart.
    n_restarts:
        Independent FLOC runs to pool.
    max_clusters:
        Keep at most this many clusters (largest volume first);
        ``None`` keeps all.
    min_rows, min_cols, min_volume:
        Discard clusters smaller than this (``min_volume`` counts
        *specified* entries).
    max_overlap:
        Pooled clusters overlapping a kept cluster by more than this
        fraction (of the smaller one's cells) are dropped as duplicates.
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
    if residue_target <= 0:
        raise ValueError(f"residue_target must be positive, got {residue_target}")
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be >= 1, got {n_restarts}")
    if not 0.0 <= max_overlap <= 1.0:
        raise ValueError(f"max_overlap must be in [0, 1], got {max_overlap}")
    root_seed = (int(rng) if isinstance(rng, (int, np.integer))
                 else int(resolve_rng(rng).integers(2**63)))
    if tracer is None:
        tracer = NULL_TRACER

    runs: List[FlocResult] = []
    for restart in range(n_restarts):
        if tracer.enabled:
            tracer.push_context(restart=restart)
        try:
            with tracer.span("restart", index=restart):
                runs.append(run_restart(
                    matrix, restart,
                    residue_target=residue_target,
                    root_seed=root_seed,
                    k=k,
                    min_rows=min_rows,
                    min_cols=min_cols,
                    alpha=alpha,
                    p=p,
                    reseed_rounds=reseed_rounds,
                    ordering=ordering,
                    gain_mode=gain_mode,
                    tracer=tracer,
                    work=None if work is None else WorkCounters(),
                ))
        finally:
            if tracer.enabled:
                tracer.pop_context()

    result_pool = pool_mining_results(
        matrix, runs,
        residue_target=residue_target,
        min_rows=min_rows,
        min_cols=min_cols,
        min_volume=min_volume,
        max_overlap=max_overlap,
        max_clusters=max_clusters,
    )
    if work is not None and result_pool.work is not None:
        work.merge(result_pool.work)
    result_pool.metrics = tracer.snapshot_metrics() if tracer.enabled else None
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
    *,
    residue_target: float,
    root_seed: int,
    k: int = 10,
    min_rows: int = 3,
    min_cols: int = 3,
    alpha: float = 0.0,
    p: Union[float, Sequence[float]] = 0.2,
    reseed_rounds: int = 10,
    ordering: str = "greedy",
    gain_mode: str = "fast",
    max_iterations: int = 100,
    tracer: Optional[Tracer] = None,
    work: Optional[WorkCounters] = None,
) -> FlocResult:
    """Execute one seed-addressable restart of a mining session.

    The restart draws only from ``restart_seed(root_seed, restart)``.
    :func:`mine_delta_clusters` (root seed: its integer ``rng``, or one
    draw from any other) and the runtime's workers both run restarts
    here.  Other parameters are forwarded to :func:`floc`.
    """
    if not isinstance(matrix, DataMatrix):
        matrix = DataMatrix(matrix)
    constraints = Constraints(min_rows=min_rows, min_cols=min_cols)
    return floc(
        matrix, k,
        p=p,
        alpha=alpha,
        ordering=ordering,
        gain_mode=gain_mode,
        residue_target=residue_target,
        reseed_rounds=reseed_rounds,
        constraints=constraints,
        rng=restart_seed(root_seed, restart),
        max_iterations=max_iterations,
        tracer=tracer,
        work=work,
    )


def pool_mining_results(
    matrix: Union[DataMatrix, np.ndarray],
    runs: Sequence[FlocResult],
    *,
    residue_target: float,
    max_clusters: Optional[int] = None,
    min_rows: int = 3,
    min_cols: int = 3,
    min_volume: int = 25,
    max_overlap: float = 0.5,
) -> MiningResult:
    """Pool restart results into a deduplicated :class:`MiningResult`.

    This is the deterministic tail every mining front end shares:
    :func:`mine_delta_clusters` calls it on its in-process runs, and the
    supervised runtime (:mod:`repro.runtime`) calls it on the restart
    results replayed from a checkpoint store.  The outcome depends only
    on ``runs`` *in order* (pass them sorted by restart index), never on
    completion order or scheduling, which is what makes crash/resume
    parity possible.  ``work`` sums the runs' own counters.
    """
    if not isinstance(matrix, DataMatrix):
        matrix = DataMatrix(matrix)
    if residue_target <= 0:
        raise ValueError(f"residue_target must be positive, got {residue_target}")
    if not 0.0 <= max_overlap <= 1.0:
        raise ValueError(f"max_overlap must be in [0, 1], got {max_overlap}")
    work_total: Optional[WorkCounters] = None
    for result in runs:
        if result.work is not None:
            if work_total is None:
                work_total = WorkCounters()
            work_total.merge(result.work)
    pooled: List[DeltaCluster] = []
    for result in runs:
        for cluster in result.clustering:
            if cluster.n_rows < min_rows or cluster.n_cols < min_cols:
                continue
            if cluster.volume(matrix) < min_volume:
                continue
            if cluster.residue(matrix) > residue_target:
                continue
            pooled.append(cluster)
    n_pooled = len(pooled)
    kept = _deduplicate(pooled, matrix, max_overlap)
    if max_clusters is not None:
        kept = kept[:max_clusters]
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
