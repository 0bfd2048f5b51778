"""FLOC: FLexible Overlapped Clustering (Sections 4-5 of the paper).

FLOC approximates the ``k`` delta-clusters with the lowest average residue
by move-based local search:

Phase 1
    Generate ``k`` random seed clusters (each row/column joins a seed with
    probability ``p``; optionally a different ``p`` per seed, or seeds with
    prescribed volumes).

Phase 2
    Iterate.  Every row and every column performs its best *action* -- the
    membership toggle ``Action(x, c)`` with the largest gain among the
    ``k`` clusters -- in an order produced by the ``fixed`` / ``random`` /
    ``weighted`` scheduler (or the ``greedy`` extension).  The score is
    recorded after every action, and the best intermediate clustering of
    the iteration becomes the starting point of the next one.  The search
    stops when an iteration fails to improve on the best clustering seen
    so far (optionally followed by reseed rounds that retry dead seeds).

Behavioural switches (all documented in :func:`floc` and ablated in the
benchmarks): ``residue_target`` selects the r-residue objective instead
of the degenerate bare average residue; ``mandatory_moves`` restores the
paper's perform-even-negative rule; ``reseed_rounds`` enables restarts.

Two gain-evaluation modes are provided:

``exact`` (default)
    The true after-toggle residue of every candidate -- the quantity the
    paper recomputes from scratch per action in Section 4.1.  It is now
    produced by the batched gain engine
    (:mod:`repro.core.gain_engine`), which derives all candidates of a
    (kind, cluster) *lane* at once from the incremental sufficient
    statistics, so no candidate submatrix is ever rescanned.
``fast``
    An O(m) (resp. O(n)) approximation that freezes the cluster's bases
    while estimating the residue contribution of the toggled row/column;
    every *performed* action is one fused update (``_State.perform``)
    that recomputes exactly what the toggle moved -- the cross axis's
    counts and sums, the volume and the residue -- so the objective is
    always tracked exactly.  This trades a little per-move greediness
    accuracy for an additional speedup; it is the mining default and is
    benchmarked against ``exact`` as an ablation.

What one action barely moves is kept in ledgers instead of being
recomputed per action: each cluster's toggle signs (``_State.sign``),
its relative residue excess and the exact total volume that
:func:`_score` reads, and the specified cells of its member lines.
Every ledger keeps the bits of the formula it replaces (DESIGN.md §5,
"What a fast-mode action no longer recomputes").

Both modes consult :class:`~repro.core.gain_engine.GainEngine`, which
keeps every cluster's gains over all M + N lines (rows first, the
state's layout), invalidates them through the state's per-cluster
modification stamps, and scans each sweep from one performed action to
the next -- see that module's docstring for the design and DESIGN.md
for the derivation.

The run is observable end to end: pass a :class:`repro.obs.Tracer` to
stream per-seed / per-action / per-iteration events into sinks (JSONL,
ring buffer, console progress) and collect metrics -- see
``docs/OBSERVABILITY.md``.  All timing goes through the tracer clock;
instrumentation is inert (and free) without a tracer and never touches
the RNG stream, so traced and untraced runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs.perf.counters import WorkCounters
from ..obs.tracer import NULL_TRACER, Tracer
from . import gain_engine
from .actions import ROW
from .cluster import DeltaCluster
from .clustering import Clustering
from .constraints import Constraints
from .matrix import DataMatrix
from .ordering import ORDERINGS, action_slots, make_order
from .params import check_params
from .rng import RngLike, resolve_rng
from .seeding import Seed, bernoulli_seeds, mixed_seeds

__all__ = ["FlocResult", "floc", "GAIN_MODES"]

GAIN_MODES = ("exact", "fast")

_PerformedAction = Tuple[str, int, int]  # (kind, index, cluster)


@dataclass
class FlocResult:
    """Outcome of a FLOC run.

    Attributes
    ----------
    clustering:
        The best clustering found (``best_clustering`` in the paper).
    n_iterations:
        Number of Phase-2 iterations executed, including the final
        non-improving one that triggers termination.
    initial_residue:
        Average residue of the Phase-1 seed clustering.
    history:
        Average residue of ``best_clustering`` after each iteration
        (non-increasing; the last entry repeats when the final iteration
        brought no improvement).
    iteration_times:
        Wall-clock seconds of each Phase-2 iteration, index-aligned with
        ``history`` (``len(iteration_times) == len(history)``), measured
        with the tracer clock whether or not tracing is enabled.  Summing
        it gives the pure Phase-2 time; ``elapsed_seconds`` additionally
        includes seeding and bookkeeping.
    elapsed_seconds:
        Wall-clock time of the whole run.
    converged:
        ``True`` when the run stopped because an iteration failed to
        improve (as opposed to hitting ``max_iterations``).
    n_actions:
        Total number of actions performed across all iterations.
    metrics:
        :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` of the
        tracer's registry at the end of the run, or ``None`` when the run
        was not traced with metrics.  Shared tracers (e.g. one handed to
        :func:`repro.core.mining.mine_delta_clusters`) accumulate across
        runs, so the snapshot is cumulative up to this run's end.
    trace_summary:
        :meth:`~repro.obs.tracer.Tracer.summary` (event counts, span
        aggregates), or ``None`` for untraced runs.  Cumulative under a
        shared tracer, like ``metrics``.
    work:
        The :class:`~repro.obs.perf.counters.WorkCounters` the run
        counted into, or ``None`` when counting was not requested.
        Deterministic: bit-identical across runs at a fixed seed,
        wall-clock free.  When one counter object is shared across runs
        (e.g. a mining session accumulator), this is that shared,
        cumulative object -- the same sharing semantics as ``metrics``.
    """

    clustering: Clustering
    n_iterations: int
    initial_residue: float
    history: List[float] = field(default_factory=list)
    iteration_times: List[float] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    converged: bool = True
    n_actions: int = 0
    metrics: Optional[Dict[str, object]] = None
    trace_summary: Optional[Dict[str, object]] = None
    work: Optional[WorkCounters] = None

    @property
    def average_residue(self) -> float:
        return self.clustering.average_residue()


def _line_view(name: str, cols: bool) -> property:
    """The row (``cols=False``) or column block of one of ``_State``'s
    ``(k, M+N)`` line arrays, as a writable view."""
    def view(state: "_State") -> np.ndarray:
        lines: np.ndarray = getattr(state, name)
        return lines[:, state.n_rows:] if cols else lines[:, :state.n_rows]
    return property(view)


class _State:
    """Mutable FLOC state: membership vectors plus per-cluster statistics.

    Rows and columns are *lines* of one index space, rows first: line
    ``i < M`` is row ``i``, line ``M + j`` is column ``j``.  Each
    cluster's line statistics are one row of a ``(k, M+N)`` array:
    ``member[c, g]`` (does line ``g`` belong to cluster ``c``) and
    ``sums[c, g]`` / ``counts[c, g]`` -- sum / count of the specified
    entries of line ``g`` over c's member lines of the *other* axis, for
    every line of the matrix (``counts_f`` is their float copy), so
    scoring any toggle starts from O(1) line statistics.
    ``row_member``/``col_member``, ``row_sums``/``col_sums``,
    ``row_counts``/``col_counts`` and ``row_counts_f``/``col_counts_f``
    are writable ``(k, M)`` / ``(k, N)`` views of them.  ``residues`` and
    ``volumes`` (float copy ``volumes_f``) always reflect the current
    membership exactly; the integer counts stay exact under toggles,
    the float sums of exact mode drift in their last bits.

    Fast mode keeps the *freshness invariant*: whenever the gain engine
    consults, every statistic is bitwise equal to a full
    :meth:`refresh_cluster`.  Each performed action keeps it through
    :meth:`perform`, which recomputes only what the toggle moved;
    initialisation, reseeds and best-prefix replays end in full
    refreshes, and snapshots are taken of fresh states.  Exact mode
    uses :meth:`toggle` and lets the sums drift between the full
    refreshes that close each improving sweep.

    ``filled_T``/``mask_T`` are transposed contiguous copies of the
    matrix, so column blocks gather contiguous memory; ``mask_i`` and
    ``mask_T_i`` are integer copies of the mask, the rows a toggle adds
    to or subtracts from the counts.  ``nan_filled``/``nan_filled_T``
    hold NaN at the unspecified cells, which the deviation pass drops
    with one ``fmax``.  ``dense`` says the matrix has no missing entry:
    there is then nothing to drop, and every line of a cluster with
    member rows and member columns has specified cells, so the pass
    also skips the base's ``max(count, 1)`` guard.
    ``member_cells[c]`` is the number of specified cells of c's member
    lines, each counted over the whole matrix -- the sum of
    ``counts[c]`` -- kept by every operation that moves membership, as
    is ``sign`` (-1.0 at member lines, +1.0 elsewhere: the sign of
    each line's toggle).  ``total_volume`` (the exact sum of
    ``volumes``) and, for the ``residue_target`` the state was built
    with, ``excess`` (each cluster's ``max(residue - target, 0) /
    target``) are the score ledgers, kept by every residue or volume
    write (:meth:`set_score` for exact mode's actions).
    ``stamp`` is a per-cluster modification counter, bumped by every
    operation that can change a cluster's statistics (:meth:`toggle`,
    :meth:`perform`, :meth:`refresh_cluster`, and :meth:`restore` for
    the clusters that changed since the snapshot).  The gain engine's
    lane caches and the :meth:`line_deviations` cache key on it; it
    never repeats a value, so a cached entry is valid iff its stamp
    still matches.
    """

    row_member = _line_view("member", cols=False)
    col_member = _line_view("member", cols=True)
    row_sums = _line_view("sums", cols=False)
    col_sums = _line_view("sums", cols=True)
    row_counts = _line_view("counts", cols=False)
    col_counts = _line_view("counts", cols=True)
    row_counts_f = _line_view("counts_f", cols=False)
    col_counts_f = _line_view("counts_f", cols=True)

    def __init__(
        self,
        values: np.ndarray,
        mask: np.ndarray,
        seeds: Sequence[Seed],
        work: Optional[WorkCounters] = None,
        residue_target: Optional[float] = None,
    ) -> None:
        self.values = values
        self.residue_target = residue_target
        self.mask = mask
        self.work = work
        self.filled = np.where(mask, values, 0.0)
        self.filled_T = np.ascontiguousarray(self.filled.T)
        self.mask_T = np.ascontiguousarray(mask.T)
        self.mask_i = mask.astype(np.int64)
        self.mask_T_i = np.ascontiguousarray(self.mask_i.T)
        self.dense = bool(mask.all())
        if self.dense:
            self.nan_filled, self.nan_filled_T = self.filled, self.filled_T
        else:
            self.nan_filled = np.where(mask, values, np.nan)
            self.nan_filled_T = np.ascontiguousarray(self.nan_filled.T)
        #: Specified cells of every line over the whole matrix.
        self._line_cells: List[int] = np.concatenate(
            (self.mask_i.sum(axis=1), self.mask_i.sum(axis=0))
        ).tolist()
        self.k = len(seeds)
        self.n_rows, n_cols = values.shape
        n_lines = self.n_rows + n_cols
        self.member = np.array(
            [np.concatenate((seed[0], seed[1])) for seed in seeds], dtype=bool
        ).reshape(self.k, n_lines)
        self.residues = np.zeros(self.k)
        self.volumes = np.zeros(self.k, dtype=np.int64)
        self.volumes_f = np.zeros(self.k)
        #: Score ledgers: the exact total volume and, for the state's
        #: ``residue_target``, each cluster's relative residue excess.
        self.total_volume = 0
        self.excess = np.zeros(self.k)
        self.stamp = np.zeros(self.k, dtype=np.int64)
        #: Global modification counter (sum-free companion of ``stamp``):
        #: lets the gain engine answer "did anything change?" in O(1).
        self.rev = 0
        self.sums = np.zeros((self.k, n_lines))
        self.counts = np.zeros((self.k, n_lines), dtype=np.int64)
        self.counts_f = np.zeros((self.k, n_lines))
        self.member_cells = np.zeros(self.k, dtype=np.int64)
        #: -1.0 at member lines, +1.0 elsewhere: a toggle's sign.
        self.sign = np.where(self.member, -1.0, 1.0)
        #: ``(stamp, line_deviations, member rows, member columns)``.
        self._deviations: List[Optional[Tuple[int, np.ndarray, int, int]]] = (
            [None] * self.k
        )
        for c in range(self.k):
            self.refresh_cluster(c)

    # -- bookkeeping ---------------------------------------------------
    def _members(self, c: int) -> Tuple[np.ndarray, np.ndarray]:
        """Cluster ``c``'s member rows and member columns."""
        member = self.member[c]
        return member[:self.n_rows].nonzero()[0], member[self.n_rows:].nonzero()[0]

    def refresh_cluster(self, c: int) -> None:
        """Rebuild cluster ``c``'s statistics from its membership.

        Each line sum adds the member lines of the other axis one at a
        time, in index order: the rows of a ``take`` gather reduced
        over axis 0 (for the row sums, of the transposed copy).
        """
        rows, cols = self._members(c)
        split = self.n_rows
        np.add.reduce(self.filled_T.take(cols, axis=0), axis=0, out=self.sums[c, :split])
        np.add.reduce(self.filled.take(rows, axis=0), axis=0, out=self.sums[c, split:])
        np.add.reduce(self.mask_T_i.take(cols, axis=0), axis=0, out=self.counts[c, :split])
        np.add.reduce(self.mask_i.take(rows, axis=0), axis=0, out=self.counts[c, split:])
        self.counts_f[c] = self.counts[c]
        self.member_cells[c] = np.add.reduce(self.counts[c])
        self.sign[c] = np.where(self.member[c], -1.0, 1.0)
        self._settle(c, rows, cols, int(self.counts[c, :split].take(rows).sum()))

    def perform(self, kind: str, index: int, c: int) -> None:
        """Fast mode's action: toggle one membership bit of a *fresh*
        cluster (every array bitwise equal to a full refresh) and leave
        it fresh again.

        Only the cross axis's statistics move: a row toggle changes the
        column counts by the row's mask and the column sums, which are
        recomputed from the member rows exactly as
        :meth:`refresh_cluster` does; the other axis is untouched.  The
        volume moves by the toggled line's own count, which the toggle
        leaves unchanged, so it stays exact.
        """
        if self.work is not None:
            self.work.toggles += 1
        split = self.n_rows
        line = index if kind == ROW else split + index
        joining = not self.member[c, line]
        self.member[c, line] = joining
        self.sign[c, line] = -1.0 if joining else 1.0
        rows, cols = self._members(c)
        shift = np.add if joining else np.subtract
        if kind == ROW:
            counts = self.counts[c, split:]
            shift(counts, self.mask_i[index], out=counts)
            self.counts_f[c, split:] = counts
            np.add.reduce(self.filled.take(rows, axis=0), axis=0, out=self.sums[c, split:])
        else:
            counts = self.counts[c, :split]
            shift(counts, self.mask_T_i[index], out=counts)
            self.counts_f[c, :split] = counts
            np.add.reduce(self.filled_T.take(cols, axis=0), axis=0, out=self.sums[c, :split])
        cells = self._line_cells[line]
        count = int(self.counts[c, line])
        if joining:
            self.member_cells[c] += cells
            volume = int(self.volumes[c]) + count
        else:
            self.member_cells[c] -= cells
            volume = int(self.volumes[c]) - count
        self._settle(c, rows, cols, volume)

    def _settle(self, c: int, rows: np.ndarray, cols: np.ndarray, volume: int) -> None:
        """Close a statistics update of cluster ``c``: new stamp, the
        exact ``volume``, and the residue -- the member rows'
        :meth:`line_deviations` over it."""
        self.stamp[c] += 1
        self.rev += 1
        self._set_volume(c, volume)
        member_sums = np.add.reduce(self._deviation_pass(c, rows, cols).take(rows))
        self._set_residue(c, member_sums / volume if volume else 0.0)
        if self.work is not None and rows.size and cols.size:
            self.work.residue_evals += 1

    def set_score(self, c: int, residue: float, volume: int) -> None:
        """Record cluster ``c``'s residue and exact volume (exact mode's
        action, whose lane scored both), keeping the score ledgers."""
        self._set_volume(c, volume)
        self._set_residue(c, residue)

    def _set_volume(self, c: int, volume: int) -> None:
        self.total_volume += volume - int(self.volumes[c])
        self.volumes[c] = volume
        self.volumes_f[c] = volume

    def _set_residue(self, c: int, residue: float) -> None:
        # ``excess[c]`` keeps the bits of the vector form
        # ``np.maximum(residues - target, 0.0) / target``: the same
        # IEEE operations, and ``max`` keeps a NaN as ``np.maximum`` does.
        self.residues[c] = residue
        target = self.residue_target
        if target is not None:
            self.excess[c] = max(residue - target, 0.0) / target

    def line_deviations(self, c: int) -> np.ndarray:
        """Per-line ``|residual|`` sums of cluster ``c``, M rows then N
        columns: row ``i`` sums ``|d_ij - a_i - b_j + g|`` over its
        specified cells in c's member columns (the state's bases and
        grand mean), column ``j`` the same over c's member rows.  One
        base computation over all lines and one gathered block per
        axis, cached under ``stamp``; reads the ledger volume, which is
        exact whenever a consumer asks."""
        cached = self._deviations[c]
        if cached is not None and cached[0] == self.stamp[c]:
            return cached[1]
        return self._deviation_pass(c, *self._members(c))

    def sizes(self, c: int) -> Tuple[int, int]:
        """Cluster ``c``'s numbers of member rows and member columns:
        the ones the current deviation pass recorded, else counted."""
        cached = self._deviations[c]
        if cached is not None and cached[0] == self.stamp[c]:
            return cached[2], cached[3]
        member = self.member[c]
        split = self.n_rows
        return (int(np.count_nonzero(member[:split])),
                int(np.count_nonzero(member[split:])))

    def _deviation_pass(self, c: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Compute and cache :meth:`line_deviations` of cluster ``c``,
        whose member rows and columns are ``rows`` and ``cols``."""
        split = self.n_rows
        volume = int(self.volumes[c])
        sums = self.sums[c]
        dense = self.dense
        if dense and rows.size and cols.size:
            # Every count is positive, so the empty-base guard is idle.
            base = sums / self.counts_f[c]
        else:
            # An empty base reads 0.0: whenever the pass runs the sums
            # are fresh, and a line without specified cells sums only
            # the +0.0 of ``filled``'s unspecified cells.  As a line
            # base it meets only unspecified cells, which are dropped.
            base = sums / np.maximum(self.counts_f[c], 1.0)
        masked = not dense
        deviations = np.empty(base.size)
        for values_x, lines, cross, members, out in (
            (self.nan_filled_T, slice(0, split), slice(split, None), cols,
             deviations[:split]),
            (self.nan_filled, slice(split, None), slice(0, split), rows,
             deviations[split:]),
        ):
            block = _block_residuals(values_x, masked, base[lines], base[cross],
                                     sums[cross], members, volume)
            # Each line sums its members as a contiguous row of the
            # ``(lines, members)`` block would: one at a time below 8
            # members, as this layout's column-wise reduce does, and
            # pairwise from 8 on, so from there a contiguous copy.
            if members.size < 8:
                np.add.reduce(block, axis=0, out=out)
            else:
                np.add.reduce(np.ascontiguousarray(block.T), axis=1, out=out)
        self._deviations[c] = (int(self.stamp[c]), deviations, rows.size, cols.size)
        if self.work is not None:
            self.work.cells_scanned += split * cols.size + (base.size - split) * rows.size
        return deviations

    def toggle(self, kind: str, index: int, c: int) -> None:
        """Flip one membership bit and update the statistics
        incrementally (exact mode and best-prefix replays)."""
        if self.work is not None:
            self.work.toggles += 1
        split = self.n_rows
        line = index if kind == ROW else split + index
        joining = not self.member[c, line]
        self.member[c, line] = joining
        self.sign[c, line] = -1.0 if joining else 1.0
        if kind == ROW:
            cross, filled, mask = slice(split, None), self.filled[index], self.mask_i[index]
        else:
            cross, filled, mask = slice(0, split), self.filled_T[index], self.mask_T_i[index]
        # ``x - y`` is ``x + (-y)`` bit for bit, and the float counts are
        # exact integers: the same bits as adding ``-1.0 *`` the rows.
        shift = np.add if joining else np.subtract
        sums = self.sums[c, cross]
        shift(sums, filled, out=sums)
        counts = self.counts[c, cross]
        shift(counts, mask, out=counts)
        self.counts_f[c, cross] = counts
        cells = self._line_cells[line]
        self.member_cells[c] += cells if joining else -cells
        self.stamp[c] += 1
        self.rev += 1

    def snapshot(self) -> dict:
        if self.work is not None:
            self.work.snapshots += 1
        return {
            "member": self.member.copy(),
            "residues": self.residues.copy(),
            "volumes": self.volumes.copy(),
            "sums": self.sums.copy(),
            "counts": self.counts.copy(),
            "stamp": self.stamp.copy(),
        }

    def restore(self, state: dict) -> None:
        if self.work is not None:
            self.work.restores += 1
        self.member[...] = state["member"]
        self.residues[...] = state["residues"]
        self.volumes[...] = state["volumes"]
        self.sums[...] = state["sums"]
        self.counts[...] = state["counts"]
        self.counts_f[...] = self.counts
        self.volumes_f[...] = self.volumes
        np.add.reduce(self.counts, axis=1, out=self.member_cells)
        self.sign[...] = np.where(self.member, -1.0, 1.0)
        self.total_volume = int(np.add.reduce(self.volumes))
        target = self.residue_target
        if target is not None:
            self.excess[...] = np.maximum(self.residues - target, 0.0) / target
        # A cluster whose stamp has not moved since the snapshot holds
        # the snapshot's statistics already, so its cached lanes stay
        # valid.  The others get a fresh stamp: stamps only ever move
        # forward, so no lane cached before the restore can masquerade
        # as fresh.
        moved = self.stamp != state["stamp"]
        if moved.any():
            self.stamp[moved] += 1
            self.rev += 1


def _block_residuals(
    values_x: np.ndarray, masked: bool, line_base: np.ndarray,
    cross_base: np.ndarray, cross_sums: np.ndarray, members: np.ndarray, volume: int,
) -> np.ndarray:
    """``|d - line base - cross base + grand|`` on the ``members`` lines
    of the other axis, as a ``(members, lines)`` block, 0.0 at the
    unspecified cells: ``values_x`` is the matrix with the other axis
    first, holding NaN there when ``masked``.  Every broadcast runs
    along the long line axis, and each cell sees the same operations
    in the same order as in a ``(lines, members)`` block."""
    grand = float(np.add.reduce(cross_sums.take(members))) / volume if volume else 0.0
    block = values_x.take(members, axis=0)
    block -= line_base
    block -= cross_base.take(members)[:, None]
    block += grand
    np.abs(block, out=block)
    if masked:
        # ``fmax`` returns its other operand for a NaN: an unspecified
        # cell becomes +0.0 (what a ``* 0.0`` mask product made of it),
        # and ``fmax(|x|, 0.0)`` is ``|x|`` (what ``* 1.0`` made of it).
        np.fmax(block, 0.0, out=block)
    return block


def _build_seeds(
    matrix: DataMatrix,
    k: int,
    p: Union[float, Sequence[float]],
    seeds: Optional[Sequence[Seed]],
    constraints: Constraints,
    rng: np.random.Generator,
    tracer: Tracer = NULL_TRACER,
) -> List[Seed]:
    if seeds is not None:
        seeds = list(seeds)
        if len(seeds) != k:
            raise ValueError(f"got {len(seeds)} seeds but k={k}")
        for row_member, col_member in seeds:
            if row_member.shape != (matrix.n_rows,) or col_member.shape != (
                matrix.n_cols,
            ):
                raise ValueError("seed membership vector shape mismatch")
        return seeds
    if np.isscalar(p):
        candidates = bernoulli_seeds(
            matrix.n_rows, matrix.n_cols, k, float(p), rng,
            constraints.min_rows, constraints.min_cols, tracer=tracer,
        )
    else:
        candidates = mixed_seeds(
            matrix.n_rows, matrix.n_cols, k, list(p), rng,
            constraints.min_rows, constraints.min_cols, tracer=tracer,
        )
    # Phase 1 must emit constraint-compliant seeds (Section 4.3); retry the
    # cheap structural checks a bounded number of times.
    for attempt in range(100):
        if all(constraints.seed_ok(r, c) for r, c in candidates):
            return candidates
        tracer.inc("seed_retries")
        candidates = [
            seed
            if constraints.seed_ok(*seed)
            else bernoulli_seeds(
                matrix.n_rows, matrix.n_cols, 1, _slot_p(p, c),
                rng, constraints.min_rows, constraints.min_cols,
                tracer=tracer,
            )[0]
            for c, seed in enumerate(candidates)
        ]
    raise RuntimeError("could not generate constraint-compliant seeds")


def _slot_p(p: Union[float, Sequence[float]], c: int) -> float:
    """Seed inclusion probability of slot ``c``: a list of ``p`` values
    cycles across slots, as :func:`~repro.core.seeding.mixed_seeds`
    does for Phase 1."""
    values = np.atleast_1d(np.asarray(p, dtype=float))
    return float(values[c % values.size])


def floc(
    matrix: DataMatrix,
    k: int,
    *,
    p: Union[float, Sequence[float]] = 0.3,
    alpha: float = 0.0,
    ordering: str = "weighted",
    gain_mode: str = "exact",
    residue_target: Optional[float] = None,
    mandatory_moves: bool = False,
    reseed_rounds: int = 0,
    constraints: Optional[Constraints] = None,
    seeds: Optional[Sequence[Seed]] = None,
    rng: RngLike = None,
    max_iterations: int = 100,
    tol: float = 1e-12,
    tracer: Optional[Tracer] = None,
    work: Optional[WorkCounters] = None,
) -> FlocResult:
    """Run FLOC and return the best clustering found.

    Parameters
    ----------
    matrix:
        The data matrix (missing entries as ``NaN``).
    k:
        Number of clusters to maintain.
    p:
        Seed inclusion probability; a sequence enables the mixed-p seeding
        of Section 5.1 (cycled across seeds).  Ignored when ``seeds`` is
        given.
    alpha:
        Occupancy threshold of Definition 3.1; actions producing a cluster
        that violates it are blocked.  0 disables the check (dense data).
    ordering:
        Action order per iteration: ``"fixed"``, ``"random"`` or
        ``"weighted"`` (Section 5.2; ``weighted`` is the paper's best),
        plus the ``"greedy"`` descending-gain extension (see
        :func:`repro.core.ordering.greedy_order`).
    gain_mode:
        ``"exact"`` or ``"fast"`` -- see the module docstring.  Fast mode
        refreshes only what each performed action moved (the freshness
        invariant of ``_State``); both modes keep a sweep whose best
        prefix is the whole sweep in place instead of rolling it back and
        replaying it.
    residue_target:
        When ``None`` (the paper-literal default) the objective is the
        average residue and an action's gain is the residue reduction it
        causes.  When set, FLOC mines *r-residue delta-clusters* (the
        concept of Section 3): clusters must reach residue <= target, and
        among target-respecting candidates actions compete on **volume
        growth** instead.  This stabilizes the search -- the bare
        average-residue objective is degenerate (any 2x2 submatrix has
        near-zero residue, so unconstrained greedy shrinks every cluster
        to a sliver), which is also why the paper offers the Cons_v
        volume constraint and reports discovered residues roughly twice
        the embedded ones.  A good target is 1.5-3x the noise level one
        expects inside a genuine cluster.
    mandatory_moves:
        The paper performs every row/column's best action even at a
        negative gain ("such negative gain action(s) will still be
        performed", Section 4.1), relying on the per-action snapshots to
        discard degradations.  At reproduction scale the mandatory
        additions of rows that fit *no* cluster flood the snapshot signal
        (every row outside all clusters must join its least-bad one each
        iteration), so the default skips a slot whose best gain is not
        positive.  Pass ``True`` for the literal behaviour; the ablation
        bench compares both.
    reseed_rounds:
        r-residue mode only: after Phase 2 converges, replace clusters
        that died at the structural floor (or stayed above the target, or
        duplicate an already-locked cluster) with fresh random seeds and
        run Phase 2 again, up to this many extra rounds.  Locked clusters
        are never disturbed.  0 (default) is the paper-literal single
        Phase 2; 3-10 rounds substantially raise recall on workloads with
        many embedded clusters because each round gives unlucky seeds a
        fresh draw.
    constraints:
        Optional :class:`~repro.core.constraints.Constraints`; the default
        enforces only the structural 2x2 floor.
    seeds:
        Explicit Phase-1 seeds (e.g. from
        :func:`~repro.core.seeding.volume_seeds`); must have length ``k``.
    rng:
        ``None`` (fresh entropy), an ``int`` seed, or a ``Generator``.
    max_iterations:
        Safety cap on Phase-2 iterations.
    tol:
        Minimum average-residue improvement an iteration must achieve to
        continue.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`.  When given, the run
        emits span timings (``phase1``, ``gain_eval`` -- one per sweep
        scan of :meth:`~repro.core.gain_engine.GainEngine.next_action`,
        ``perform_action``, ``reseed``) and typed events
        (:class:`~repro.obs.events.SeedEvent`,
        :class:`~repro.obs.events.ActionEvent`,
        :class:`~repro.obs.events.IterationEvent`) to the tracer's sinks,
        and updates its metrics registry (``actions_performed``,
        ``actions_blocked_by_constraint``, ``gain_eval_ns``,
        ``residue_after_iteration``, ...).  Tracing never draws random
        numbers and never changes the result: the clustering, history and
        RNG stream are bit-identical with and without it.  ``None`` (the
        default) uses the shared disabled tracer at zero cost.
    work:
        Optional :class:`~repro.obs.perf.counters.WorkCounters` the run
        accumulates its deterministic work counts into (residue
        evaluations, cells scanned, toggle evaluations, rollbacks that
        change the state, ...).  Counting obeys the same invariant as
        tracing -- it never draws random numbers and never changes the
        result -- and its contribution is additionally mirrored into the
        tracer's metrics registry as ``perf.*`` counters when both are
        given.  Pass the same object
        across runs to accumulate a session total.  ``None`` (the
        default) disables counting entirely.

    Returns
    -------
    FlocResult
    """
    if not isinstance(matrix, DataMatrix):
        matrix = DataMatrix(matrix)
    check_params(
        residue_target=residue_target, k=k, alpha=alpha, reseed_rounds=reseed_rounds
    )
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")
    if gain_mode not in GAIN_MODES:
        raise ValueError(f"gain_mode must be one of {GAIN_MODES}, got {gain_mode!r}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    generator = resolve_rng(rng)
    active = constraints if constraints is not None else Constraints()
    if tracer is None:
        tracer = NULL_TRACER
    # Snapshot so only THIS run's contribution is mirrored into perf.*
    # metrics, even when one counter object is shared across runs.
    work_before = work.as_dict() if work is not None else None

    started = tracer.clock()
    with tracer.span("phase1", k=k):
        seed_list = _build_seeds(matrix, k, p, seeds, active, generator, tracer)
        if alpha > 0.0:
            seed_list = [
                _trim_seed_to_alpha(
                    row_member, col_member, matrix.mask, alpha,
                    active.min_rows, active.min_cols,
                )
                for row_member, col_member in seed_list
            ]
        state = _State(
            matrix.values, matrix.mask, seed_list, work=work,
            residue_target=residue_target,
        )
    initial_residue = float(state.residues.mean())
    if tracer.enabled:
        # The event vocabulary loads only for a traced run.
        from ..obs.events import SeedEvent

        for c in range(state.k):
            tracer.emit(SeedEvent(
                cluster=c,
                origin="phase1",
                n_rows=int(state.row_member[c].sum()),
                n_cols=int(state.col_member[c].sum()),
                residue=float(state.residues[c]),
                volume=int(state.volumes[c]),
            ))

    # One engine for every round: the lanes of clusters a reseed round
    # leaves alone stay cached, while ``refresh_cluster`` moves the
    # stamps of the reseeded ones.
    engine = gain_engine.GainEngine(
        state, active, alpha, residue_target, gain_mode, tracer,
        mandatory_moves=mandatory_moves,
    )
    history: List[float] = []
    iteration_times: List[float] = []
    n_actions = 0
    n_iterations = 0
    converged = False
    rounds = reseed_rounds + 1 if residue_target is not None else 1
    for round_index in range(rounds):
        iters, acts, round_converged = _phase2(
            state, engine, matrix, ordering, residue_target, generator,
            max_iterations, tol, tracer,
            history, iteration_times, n_iterations,
        )
        n_iterations += iters
        n_actions += acts
        converged = round_converged
        if round_index == rounds - 1:
            break
        with tracer.span("reseed", round=round_index):
            reseeded = _reseed_dead_slots(
                state, p, active, generator, residue_target, tracer, alpha=alpha
            )
        if not reseeded:
            break

    # Materialize best_clustering.
    clusters = []
    for c in range(k):
        rows = np.flatnonzero(state.row_member[c])
        cols = np.flatnonzero(state.col_member[c])
        clusters.append(DeltaCluster(rows, cols))
    clustering = Clustering(matrix, clusters)
    elapsed = tracer.clock() - started
    if (
        work is not None
        and work_before is not None
        and tracer.enabled
        and tracer.metrics is not None
    ):
        for name, value in work:
            delta = value - work_before[name]
            if delta:
                tracer.inc(f"perf.{name}", delta)
    return FlocResult(
        clustering=clustering,
        n_iterations=n_iterations,
        initial_residue=initial_residue,
        history=history,
        iteration_times=iteration_times,
        elapsed_seconds=elapsed,
        converged=converged,
        n_actions=n_actions,
        metrics=tracer.snapshot_metrics() if tracer.enabled else None,
        trace_summary=tracer.summary() if tracer.enabled else None,
        work=work,
    )


def _phase2(
    state: _State,
    engine: "gain_engine.GainEngine",
    matrix: DataMatrix,
    ordering: str,
    residue_target: Optional[float],
    generator: np.random.Generator,
    max_iterations: int,
    tol: float,
    tracer: Tracer,
    history: List[float],
    iteration_times: List[float],
    iteration_offset: int,
) -> Tuple[int, int, bool]:
    """Run Phase-2 iterations until convergence; leave ``state`` at the
    best clustering found.  Appends the best residue and wall time of
    every iteration to ``history`` / ``iteration_times`` (index-aligned;
    ``iteration_offset`` numbers the emitted events across reseed
    rounds).  Returns (iterations, actions, converged)."""
    best_score = _score(state, residue_target)
    best_state = state.snapshot()
    slots = action_slots(matrix.n_rows, matrix.n_cols)
    tracing = tracer.enabled
    if tracing:
        from ..obs.events import ActionEvent, IterationEvent
    n_actions = 0
    n_iterations = 0
    converged = False

    for _ in range(max_iterations):
        n_iterations += 1
        if state.work is not None:
            state.work.sweeps += 1
        iteration_began = tracer.clock()
        # Deferred until the first performed action: an empty-action
        # sweep (the common terminal one) costs no snapshot deep copy.
        iteration_start: Optional[dict] = None
        with tracer.span("ordering", scheme=ordering):
            order = _ordered_slots(engine, slots, ordering, generator)
        # The sweep consults ``order`` front to back; the engine scans
        # it from one performed action to the next (rebuilding dirtied
        # wide lanes for just the next block of consult positions).
        engine.begin_sweep(order)
        performed: List[_PerformedAction] = []
        iter_best = np.inf
        iter_best_idx = -1
        position = 0
        while True:
            if tracing:
                with tracer.span("gain_eval") as gain_span:
                    hit = engine.next_action(position)
                tracer.observe("gain_eval_ns", gain_span.elapsed * 1e9)
            else:
                hit = engine.next_action(position)
            if hit is None:
                break
            position, kind, index, choice = hit
            position += 1
            c, new_residue, new_volume, gain = choice
            if iteration_start is None:
                iteration_start = state.snapshot()
            with tracer.span("perform_action"):
                if engine.fast_mode:
                    # The estimate guided the choice; the fused action
                    # recomputes what the toggle moved, so the ledger
                    # (and the caches) are exact again.
                    state.perform(kind, index, c)
                else:
                    state.toggle(kind, index, c)
                    # The lane score IS the exact after-toggle residue,
                    # and the toggle kept the sufficient statistics
                    # current -- assigning the ledger directly avoids a
                    # full submatrix rescan per performed action.
                    state.set_score(c, new_residue, new_volume)
            performed.append((kind, index, c))
            if tracing:
                tracer.inc("actions_performed")
                tracer.emit(ActionEvent(
                    kind=kind,
                    index=index,
                    cluster=c,
                    is_removal=not (
                        state.row_member[c, index] if kind == ROW
                        else state.col_member[c, index]
                    ),
                    gain=float(gain),
                    residue=float(state.residues[c]),
                    volume=int(state.volumes[c]),
                ))
            score = _score(state, residue_target)
            if score < iter_best:
                iter_best = score
                iter_best_idx = len(performed) - 1
        n_actions += len(performed)

        if iter_best < best_score - tol:
            improved = True
            best_score = iter_best
            assert iteration_start is not None  # an action was performed
            _adopt_best_prefix(
                state, iteration_start, performed, iter_best_idx + 1,
                engine.fast_mode,
            )
            best_state = state.snapshot()
            history.append(float(state.residues.mean()))
        else:
            improved = False
            if performed:
                # Only a sweep that actually moved needs rolling back;
                # the empty terminal sweep leaves the state untouched.
                state.restore(best_state)
            history.append(
                history[-1] if history else float(state.residues.mean())
            )
            converged = True
        iteration_times.append(tracer.clock() - iteration_began)
        if tracer.enabled:
            tracer.set_gauge("residue_after_iteration", history[-1])
            tracer.observe("iteration_seconds", iteration_times[-1])
            tracer.inc("iterations")
            tracer.emit(IterationEvent(
                index=iteration_offset + n_iterations - 1,
                residue=history[-1],
                score=float(best_score),
                total_volume=int(state.volumes.sum()),
                n_actions=len(performed),
                improved=improved,
                elapsed_s=iteration_times[-1],
            ))
        if converged:
            break
    # Without convergence every sweep improved, so the state already is
    # ``best_state``.
    return n_iterations, n_actions, converged


def _adopt_best_prefix(
    state: _State,
    iteration_start: dict,
    performed: List[_PerformedAction],
    n_best: int,
    fast_mode: bool,
) -> None:
    """Leave ``state`` at the sweep's best prefix ``performed[:n_best]``.

    A shorter prefix rolls back to the sweep start and replays it.  When
    the prefix is the whole sweep the state already holds it, so the
    rollback is skipped; fast mode then also skips the refresh, because
    every acted cluster was refreshed after its last action (their lanes
    carry over into the next ordering).  Either way the statistics end
    bitwise equal to those of a replay followed by full refreshes.
    """
    prefix = performed[:n_best]
    if n_best < len(performed):
        state.restore(iteration_start)
        for kind, index, c in prefix:
            state.toggle(kind, index, c)
    elif fast_mode:
        return
    for c in {c for _, _, c in prefix}:
        state.refresh_cluster(c)


def _reseed_dead_slots(
    state: _State,
    p: Union[float, Sequence[float]],
    active: Constraints,
    generator: np.random.Generator,
    residue_target: Optional[float],
    tracer: Tracer = NULL_TRACER,
    alpha: float = 0.0,
) -> bool:
    """Replace dead or duplicate clusters with fresh random seeds.

    A slot is *dead* when it sits at (or near) the structural floor --
    the search cannot recover it because nothing fits its junk core -- or
    when its residue still exceeds the target.  Of two locked clusters
    covering nearly the same cells, the smaller is reseeded too.  With
    ``alpha > 0`` the fresh seeds are trimmed to alpha occupancy, as
    Phase 1 trims its own.  Returns ``True`` when at least one slot was
    reseeded.
    """
    n_rows = state.row_member.shape[1]
    n_cols = state.col_member.shape[1]
    floor_rows = active.min_rows + 1
    floor_cols = active.min_cols + 1
    dead = []
    locked = []
    for c in range(state.k):
        rows = int(state.row_member[c].sum())
        cols = int(state.col_member[c].sum())
        at_floor = rows <= floor_rows and cols <= floor_cols
        infeasible = (
            residue_target is not None and state.residues[c] > residue_target
        )
        if at_floor or infeasible:
            dead.append(c)
        else:
            locked.append(c)

    # Deduplicate locked clusters that converged onto the same submatrix.
    for i, first in enumerate(locked):
        for second in locked[i + 1:]:
            if second in dead:
                continue
            shared_rows = int(
                (state.row_member[first] & state.row_member[second]).sum()
            )
            shared_cols = int(
                (state.col_member[first] & state.col_member[second]).sum()
            )
            cells_first = int(state.row_member[first].sum()) * int(
                state.col_member[first].sum()
            )
            cells_second = int(state.row_member[second].sum()) * int(
                state.col_member[second].sum()
            )
            smaller = min(cells_first, cells_second)
            if smaller and shared_rows * shared_cols / smaller > 0.8:
                victim = first if cells_first < cells_second else second
                if victim not in dead:
                    dead.append(victim)

    if not dead:
        return False
    fresh = mixed_seeds(
        n_rows, n_cols, len(dead), [_slot_p(p, c) for c in dead], generator,
        active.min_rows, active.min_cols, tracer=tracer,
    )
    if alpha > 0.0:
        fresh = [
            _trim_seed_to_alpha(
                row_member, col_member, state.mask, alpha,
                active.min_rows, active.min_cols,
            )
            for row_member, col_member in fresh
        ]
    for c, (row_member, col_member) in zip(dead, fresh):
        state.row_member[c] = row_member
        state.col_member[c] = col_member
        state.refresh_cluster(c)
        if tracer.enabled:
            from ..obs.events import SeedEvent

            tracer.inc("reseeds")
            tracer.emit(SeedEvent(
                cluster=c,
                origin="reseed",
                n_rows=int(row_member.sum()),
                n_cols=int(col_member.sum()),
                residue=float(state.residues[c]),
                volume=int(state.volumes[c]),
            ))
    return True


def _trim_seed_to_alpha(
    row_member: np.ndarray,
    col_member: np.ndarray,
    mask: np.ndarray,
    alpha: float,
    min_rows: int,
    min_cols: int,
) -> Seed:
    """Shrink a random seed until it satisfies the alpha occupancy rule.

    Iteratively removes the sparsest offending row or column.  Phase 1
    must emit constraint-compliant seeds (Section 4.3); combined with the
    no-new-violations action blocking this keeps every clustering FLOC
    ever holds alpha-valid.  If trimming hits the structural floor before
    reaching validity, the seed is returned as-is (the blocking rule then
    lets it keep moving until it heals).
    """
    row_member = row_member.copy()
    col_member = col_member.copy()
    while True:
        rows = np.flatnonzero(row_member)
        cols = np.flatnonzero(col_member)
        if rows.size <= min_rows or cols.size <= min_cols:
            return row_member, col_member
        sub_mask = mask[np.ix_(rows, cols)]
        row_frac = sub_mask.sum(axis=1) / cols.size
        col_frac = sub_mask.sum(axis=0) / rows.size
        worst_row = int(np.argmin(row_frac))
        worst_col = int(np.argmin(col_frac))
        if row_frac[worst_row] >= alpha and col_frac[worst_col] >= alpha:
            return row_member, col_member
        if row_frac[worst_row] <= col_frac[worst_col]:
            row_member[rows[worst_row]] = False
        else:
            col_member[cols[worst_col]] = False


def _score(state: _State, residue_target: Optional[float]) -> float:
    """Clustering score to minimize -- the snapshot/termination criterion.

    Paper-literal mode scores by average residue (footnote 5).  In
    r-residue mode a clustering is better when it has less residue excess
    above the target, then more total volume; the excess is weighted by
    the matrix cell count so feasibility always dominates volume.
    """
    if residue_target is None:
        return float(state.residues.mean())
    if residue_target == state.residue_target:
        # The state keeps both terms for the target it was built with.
        excess = np.add.reduce(state.excess)
        volume = state.total_volume
    else:
        excess = np.add.reduce(
            np.maximum(state.residues - residue_target, 0.0) / residue_target
        )
        volume = int(np.add.reduce(state.volumes))
    # Any appreciable relative excess must outweigh any possible volume
    # difference (total volume is bounded by k * matrix size).
    weight = 1e6 * float(state.values.size)
    return float(excess * weight - volume)


def _gain(
    old_residue: float,
    old_volume: int,
    new_residue: float,
    new_volume: int,
    residue_target: Optional[float],
    line_residue: Optional[float] = None,
    is_addition: bool = False,
) -> float:
    """Gain of one candidate action.

    Paper-literal: the reduction of the cluster's residue.  r-residue
    mode: actions that leave the cluster within the target compete on
    relative volume growth (offset by +1 so any of them outranks every
    target-violating action); the rest compete on relative residue
    reduction, mapped into (-inf, 0].  An addition only counts as
    target-respecting when the joining line *itself* fits the cluster's
    pattern within the target -- without this admission test a large
    cluster's mean dilutes one junk line at a time below the target
    (the exact leak Cheng & Church's node addition guards against).

    The engine scores whole lanes with
    :func:`~repro.core.gain_engine.gain_lane`, the vector form of this
    ladder; this scalar is its reference (property-tested bit for bit).
    """
    if residue_target is None:
        return old_residue - new_residue
    scale = max(old_residue, residue_target)
    reduction = (old_residue - new_residue) / scale
    fits = line_residue is None or line_residue <= residue_target
    if is_addition and not fits:
        # A junk line is never a real improvement, however little it
        # dilutes a large cluster's mean.
        return reduction - 1.0
    if not is_addition and not fits:
        # Evicting a line that does not fit the cluster's pattern is
        # cleanup, even from a cluster already below the target --
        # otherwise stragglers inside a feasible cluster deadlock it
        # (they cannot leave, and they inflate every candidate line's
        # residue above the admission test).
        return 1.0 + reduction
    if new_residue <= residue_target:
        if old_residue > residue_target:
            # Crossing into feasibility is the most valuable move.
            return 2.0 + reduction
        if is_addition:
            # Growing a feasible cluster: the r-residue objective.
            return 1.0 + (new_volume - old_volume) / (old_volume + 1.0)
        # Shrinking an already-feasible cluster loses volume for nothing.
        return (new_volume - old_volume) / (old_volume + 1.0)
    # Still infeasible: plain cleanup progress (positive when the residue
    # drops, negative when it rises).
    return reduction


def _ordered_slots(
    engine: "gain_engine.GainEngine",
    slots: Sequence[Tuple[str, int]],
    ordering: str,
    rng: np.random.Generator,
) -> List[Tuple[str, int]]:
    """Build this iteration's action order.

    The weighted scheduler needs a gain estimate per slot *before* any
    action is performed; the engine's frozen-bases estimate lanes supply
    it regardless of the gain mode used for the actual moves (it is only
    an ordering heuristic).
    """
    if ordering == "fixed":
        return list(slots)
    if ordering == "random":
        return make_order("random", slots, [], rng)
    # "weighted" and "greedy" both need per-slot gain estimates.
    gains = engine.ordering_gains(slots)
    return make_order(ordering, slots, gains, rng)
