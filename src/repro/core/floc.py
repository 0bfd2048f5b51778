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

``exact``
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
    accuracy for an additional speedup; it is the default and is
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
stream per-seed and per-sweep events into sinks (JSONL, ring buffer,
console progress) and time its phases as named spans, and a
:class:`~repro.obs.perf.counters.WorkCounters` to count its work -- see
``docs/OBSERVABILITY.md``.
A sweep's record says which lines each acted cluster admitted and
evicted, so a trace answers why a clustering came out without a record
per action.  All timing goes through the tracer clock; instrumentation
is inert (and free) without a tracer and never touches the RNG stream
or the gain engine, which is built without one, so traced and untraced
runs do the same work and are bit-identical.
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
from .ordering import action_slots, make_order
from .params import DEFAULT_GAIN_MODE, GAIN_MODES, check_params
from .rng import RngLike, resolve_rng
from .seeding import Seed, mixed_seeds

__all__ = ["FlocResult", "floc", "GAIN_MODES"]

#: Minimum average-residue improvement a sweep must achieve to count
#: as an improvement (and to continue Phase 2).
TOL = 1e-12

_PerformedAction = Tuple[str, int, int]  # (kind, index, cluster)

#: Draw rounds a seed slot gets to pass admission (:func:`_admit_seeds`).
_SEED_ROUNDS = 100


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
    trace_summary:
        :meth:`~repro.obs.tracer.Tracer.summary` (event counts, span
        aggregates), or ``None`` for untraced runs.  A tracer shared
        across runs (e.g. one handed to
        :func:`repro.core.mining.mine_delta_clusters`) accumulates, so
        the summary is cumulative up to this run's end.
    work:
        The :class:`~repro.obs.perf.counters.WorkCounters` the run
        counted into, or ``None`` when counting was not requested.
        Deterministic: bit-identical across runs at a fixed seed,
        wall-clock free.  When one counter object is shared across runs
        (e.g. a mining session accumulator), this is that shared,
        cumulative object -- the same sharing semantics as
        ``trace_summary``.
    """

    clustering: Clustering
    n_iterations: int
    initial_residue: float
    history: List[float] = field(default_factory=list)
    iteration_times: List[float] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    converged: bool = True
    n_actions: int = 0
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

    ``mask`` (``True`` at the specified cells) is derived from the NaN
    of ``values``; ``filled`` holds 0.0 at the unspecified cells.
    ``values_T``/``filled_T``/``mask_T`` are transposed contiguous
    copies, so column blocks gather contiguous memory; ``mask_i`` and
    ``mask_T_i`` are integer copies of the mask, the rows a toggle adds
    to or subtracts from the counts.  The deviation pass reads
    ``values``/``values_T`` and drops their NaN with one ``fmax``.  A
    fully specified matrix takes the same formulas (DESIGN.md §5,
    "Fully specified contexts").
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
        seeds: Sequence[Seed],
        *,
        work: Optional[WorkCounters] = None,
        residue_target: Optional[float] = None,
    ) -> None:
        self.values = values
        self.residue_target = residue_target
        self.mask = mask = ~np.isnan(values)
        self.work = work
        self.values_T = np.ascontiguousarray(values.T)
        self.filled = np.where(mask, values, 0.0)
        self.filled_T = np.ascontiguousarray(self.filled.T)
        self.mask_T = np.ascontiguousarray(mask.T)
        self.mask_i = mask.astype(np.int64)
        self.mask_T_i = np.ascontiguousarray(self.mask_i.T)
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

        It is a :meth:`toggle` whose shifted cross-axis sums are then
        overwritten by a fresh sum over the member lines, exactly as
        :meth:`refresh_cluster` computes them; the counts a toggle
        shifts are exact already, and the other axis is untouched.  The
        volume moves by the toggled line's own count, which the toggle
        leaves unchanged, so it stays exact.  The stamp moves twice (the
        toggle's and the settle's), which its contract allows: it only
        has to never repeat a value.
        """
        self.toggle(kind, index, c)
        split = self.n_rows
        line = index if kind == ROW else split + index
        rows, cols = self._members(c)
        if kind == ROW:
            np.add.reduce(self.filled.take(rows, axis=0), axis=0, out=self.sums[c, split:])
        else:
            np.add.reduce(self.filled_T.take(cols, axis=0), axis=0, out=self.sums[c, :split])
        count = int(self.counts[c, line])
        joined = self.member[c, line]
        self._settle(c, rows, cols, int(self.volumes[c]) + (count if joined else -count))

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
        # An empty base reads 0.0: whenever the pass runs the sums are
        # fresh, and a line without specified cells sums only the +0.0
        # of ``filled``'s unspecified cells.  As a line base it meets
        # only unspecified cells, which are dropped.
        base = sums / np.maximum(self.counts_f[c], 1.0)
        deviations = np.empty(base.size)
        for values_x, lines, cross, members, out in (
            (self.values_T, slice(0, split), slice(split, None), cols,
             deviations[:split]),
            (self.values, slice(split, None), slice(0, split), rows,
             deviations[split:]),
        ):
            block = _block_residuals(values_x, base[lines], base[cross],
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
        incrementally (exact mode, best-prefix replays, and the first
        step of :meth:`perform`)."""
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
    values_x: np.ndarray, line_base: np.ndarray, cross_base: np.ndarray,
    cross_sums: np.ndarray, members: np.ndarray, volume: int,
) -> np.ndarray:
    """``|d - line base - cross base + grand|`` on the ``members`` lines
    of the other axis, as a ``(members, lines)`` block, 0.0 at the
    unspecified cells: ``values_x`` is the matrix with the other axis
    first, NaN there.  Every broadcast runs along the long line axis,
    and each cell sees the same operations in the same order as in a
    ``(lines, members)`` block."""
    grand = float(np.add.reduce(cross_sums.take(members))) / volume if volume else 0.0
    block = values_x.take(members, axis=0)
    block -= line_base
    block -= cross_base.take(members)[:, None]
    block += grand
    np.abs(block, out=block)
    # ``fmax`` returns its other operand for a NaN: an unspecified cell
    # becomes +0.0 (what a ``* 0.0`` mask product made of it), and
    # ``fmax(|x|, 0.0)`` is ``|x|`` (what ``* 1.0`` made of it).
    np.fmax(block, 0.0, out=block)
    return block


def _admit_seeds(
    slots: Sequence[int],
    p: Union[float, Sequence[float]],
    mask: np.ndarray,
    constraints: Constraints,
    alpha: float,
    rng: np.random.Generator,
    tracer: Tracer = NULL_TRACER,
    explicit: Optional[Sequence[Seed]] = None,
) -> List[Seed]:
    """Seed admission, of Phase 1 and of every reseed round: one seed
    per slot of ``slots``, in that order.

    Phase 1 must emit constraint-compliant seeds (Section 4.3), and a
    delta-cluster meets alpha occupancy (Definition 3.1).  Each slot is
    drawn at its own ``p``; it is admitted when the draw passes
    :meth:`~repro.core.constraints.Constraints.seed_ok` and, at
    ``alpha > 0``, trims to alpha.  The slots not admitted are redrawn
    in slot order, for up to :data:`_SEED_ROUNDS` rounds.  Then a slot
    whose last draw still fails ``seed_ok`` raises ``RuntimeError``,
    while one whose trims never reached alpha starts empty: it blocks
    every toggle until a reseed round redraws it.  ``explicit`` seeds
    take the place of the draws and are only trimmed, never redrawn.
    """
    n_rows, n_cols = mask.shape
    admitted: Dict[int, Seed] = {}
    pending = list(slots)
    for __ in range(_SEED_ROUNDS if explicit is None else 1):
        if explicit is None:
            with tracer.span("seed_draw"):
                drawn = [
                    mixed_seeds(
                        n_rows, n_cols, 1, [_slot_p(p, c)], rng,
                        constraints.min_rows, constraints.min_cols,
                    )[0]
                    for c in pending
                ]
        else:
            drawn = list(explicit)
        unfit: List[int] = []
        for c, seed in zip(pending, drawn):
            if explicit is None and not constraints.seed_ok(*seed):
                unfit.append(c)
                continue
            trimmed = seed if alpha <= 0.0 else _trim_seed_to_alpha(
                *seed, mask, alpha, constraints.min_rows, constraints.min_cols
            )
            if trimmed is not None:
                admitted[c] = trimmed
        pending = [c for c in pending if c not in admitted]
        if not pending:
            break
    if unfit:
        raise RuntimeError("could not generate constraint-compliant seeds")
    return [
        admitted.get(c) or (np.zeros(n_rows, dtype=bool), np.zeros(n_cols, dtype=bool))
        for c in slots
    ]


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
    gain_mode: str = DEFAULT_GAIN_MODE,
    residue_target: Optional[float] = None,
    mandatory_moves: bool = False,
    reseed_rounds: int = 0,
    constraints: Optional[Constraints] = None,
    seeds: Optional[Sequence[Seed]] = None,
    rng: RngLike = None,
    max_iterations: int = 100,
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
        Occupancy threshold of Definition 3.1.  Every cluster the run
        holds meets it or is empty: a seed is trimmed to alpha (a
        drawn seed that cannot be is redrawn, up to 100 times, then its
        slot starts empty), and actions producing a cluster that
        violates it are blocked.  An empty slot blocks every toggle
        until a reseed round redraws it, so without reseeds it ends
        empty.  0 disables the check; on a fully specified matrix every
        cluster meets any alpha.
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
        They are trimmed to ``alpha`` but never redrawn, so one that
        cannot reach it starts empty.
    rng:
        ``None`` (fresh entropy), an ``int`` seed, or a ``Generator``.
    max_iterations:
        Safety cap on Phase-2 iterations.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`.  When given, the run
        times its phases as spans (``phase1``, ``ordering``,
        ``gain_eval`` -- one per sweep scan of
        :meth:`~repro.core.gain_engine.GainEngine.next_action`,
        ``perform_action``, ``reseed``), aggregated per name in
        ``trace_summary``, and emits typed events
        (:class:`~repro.obs.events.SeedEvent` per seed,
        :class:`~repro.obs.events.IterationEvent` per sweep, with each
        acted cluster's admitted and evicted lines) to the tracer's
        sinks.  It writes no metric.  Tracing never draws random
        numbers, never reaches the gain engine and never changes the
        result: the clustering, history, work counts and RNG stream are
        bit-identical with and without it.  ``None`` (the default) uses
        the shared disabled tracer at zero cost.
    work:
        Optional :class:`~repro.obs.perf.counters.WorkCounters` the run
        accumulates its deterministic work counts into (residue
        evaluations, cells scanned, toggle evaluations, rollbacks that
        change the state, ...), returned as ``result.work``.  Counting
        obeys the same invariant as tracing -- it never draws random
        numbers and never changes the result.  Pass the same object
        across runs to accumulate a session total.  ``None`` (the
        default) disables counting entirely.

    Returns
    -------
    FlocResult
    """
    if not isinstance(matrix, DataMatrix):
        matrix = DataMatrix(matrix)
    check_params(
        residue_target=residue_target, k=k, alpha=alpha,
        reseed_rounds=reseed_rounds, ordering=ordering, gain_mode=gain_mode,
        max_iterations=max_iterations,
    )
    generator = resolve_rng(rng)
    active = constraints if constraints is not None else Constraints()
    if tracer is None:
        tracer = NULL_TRACER

    started = tracer.clock()
    with tracer.span("phase1"):
        if seeds is not None:
            seeds = list(seeds)
            if len(seeds) != k:
                raise ValueError(f"got {len(seeds)} seeds but k={k}")
            shape = ((matrix.n_rows,), (matrix.n_cols,))
            if any((rows.shape, cols.shape) != shape for rows, cols in seeds):
                raise ValueError("seed membership vector shape mismatch")
        seed_list = _admit_seeds(
            range(k), p, matrix.mask, active, alpha, generator, tracer, explicit=seeds,
        )
        state = _State(
            matrix.values, seed_list, work=work, residue_target=residue_target,
        )
    initial_residue = float(state.residues.mean())
    _emit_seeds(tracer, state, range(k), "phase1")

    # One engine for every round: the lanes of clusters a reseed round
    # leaves alone stay cached, while ``refresh_cluster`` moves the
    # stamps of the reseeded ones.
    engine = gain_engine.GainEngine(
        state, active, alpha, residue_target, gain_mode,
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
            max_iterations, tracer,
            history, iteration_times, n_iterations,
        )
        n_iterations += iters
        n_actions += acts
        converged = round_converged
        if round_index == rounds - 1:
            break
        with tracer.span("reseed"):
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
    return FlocResult(
        clustering=clustering,
        n_iterations=n_iterations,
        initial_residue=initial_residue,
        history=history,
        iteration_times=iteration_times,
        elapsed_seconds=elapsed,
        converged=converged,
        n_actions=n_actions,
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
    tracer: Tracer,
    history: List[float],
    iteration_times: List[float],
    iteration_offset: int,
) -> Tuple[int, int, bool]:
    """Run Phase-2 iterations until convergence; leave ``state`` at the
    best clustering found.  Appends the best residue and wall time of
    every iteration to ``history`` / ``iteration_times`` (index-aligned;
    ``iteration_offset`` numbers the emitted events across reseed
    rounds).  A traced sweep notes each performed action's
    ``(cluster, gain)`` and diffs the membership once, at its end, for
    its :class:`~repro.obs.events.IterationEvent`.  Returns (iterations,
    actions, converged)."""
    best_score = _score(state, residue_target)
    best_state = state.snapshot()
    slots = action_slots(matrix.n_rows, matrix.n_cols)
    tracing = tracer.enabled
    if tracing:
        from ..obs.events import IterationEvent
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
        with tracer.span("ordering"):
            order = _ordered_slots(engine, slots, ordering, generator)
        # The sweep consults ``order`` front to back; the engine scans
        # it from one performed action to the next (rebuilding dirtied
        # wide lanes for just the next block of consult positions).
        engine.begin_sweep(order)
        performed: List[_PerformedAction] = []
        #: ``(cluster, gain)`` of every performed action; traced only.
        acted: List[Tuple[int, float]] = []
        iter_best = np.inf
        iter_best_idx = -1
        position = 0
        while True:
            with tracer.span("gain_eval"):
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
                acted.append((c, gain))
            score = _score(state, residue_target)
            if score < iter_best:
                iter_best = score
                iter_best_idx = len(performed) - 1
        n_actions += len(performed)

        n_adopted = 0
        if iter_best < best_score - TOL:
            improved = True
            n_adopted = iter_best_idx + 1
            best_score = iter_best
            assert iteration_start is not None  # an action was performed
            _adopt_best_prefix(
                state, iteration_start, performed, n_adopted, engine.fast_mode,
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
        if tracing:
            tracer.emit(IterationEvent(
                index=iteration_offset + n_iterations - 1,
                residue=history[-1],
                score=float(best_score),
                total_volume=int(state.volumes.sum()),
                n_actions=len(performed),
                improved=improved,
                elapsed_s=iteration_times[-1],
                n_adopted=n_adopted,
                clusters=_sweep_clusters(state, iteration_start, acted),
            ))
        if converged:
            break
    # Without convergence every sweep improved, so the state already is
    # ``best_state``.
    return n_iterations, n_actions, converged


def _sweep_clusters(
    state: _State,
    iteration_start: Optional[dict],
    acted: List[Tuple[int, float]],
) -> List[Dict[str, object]]:
    """The ``clusters`` entries of a traced sweep's ``IterationEvent``.

    One entry per cluster in ``acted`` (the sweep's performed
    ``(cluster, gain)`` pairs), in ascending cluster order: its action
    count and gain sum, the lines whose membership the sweep left
    changed -- the diff of ``state.member`` against the sweep-start
    snapshot ``iteration_start``, so empty after a rollback -- and its
    residue before and after.
    """
    if iteration_start is None:  # nothing was performed
        return []
    actions: Dict[int, int] = {}
    gain_sums: Dict[int, float] = {}
    for c, gain in acted:
        actions[c] = actions.get(c, 0) + 1
        gain_sums[c] = gain_sums.get(c, 0.0) + gain
    split = state.n_rows
    clusters: List[Dict[str, object]] = []
    for c in sorted(actions):
        before, after = iteration_start["member"][c], state.member[c]
        moved = before != after
        joined = (moved & after).nonzero()[0]
        left = (moved & before).nonzero()[0]
        clusters.append({
            "cluster": c,
            "actions": actions[c],
            "gain_sum": gain_sums[c],
            "rows_in": joined[joined < split].tolist(),
            "rows_out": left[left < split].tolist(),
            "cols_in": (joined[joined >= split] - split).tolist(),
            "cols_out": (left[left >= split] - split).tolist(),
            "residue_before": float(iteration_start["residues"][c]),
            "residue": float(state.residues[c]),
            "volume": int(state.volumes[c]),
        })
    return clusters


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
    the search cannot recover it because nothing fits its junk core, and
    an empty slot is there too -- or when its residue still exceeds the
    target.  Of two locked clusters covering nearly the same cells, the
    smaller is reseeded too.  The fresh seeds pass Phase 1's admission
    (:func:`_admit_seeds`).  Returns ``True`` when at least one slot was
    reseeded.
    """
    sizes = [state.sizes(c) for c in range(state.k)]
    dead = []
    locked = []
    for c, (rows, cols) in enumerate(sizes):
        at_floor = rows <= active.min_rows + 1 and cols <= active.min_cols + 1
        infeasible = residue_target is not None and state.residues[c] > residue_target
        (dead if at_floor or infeasible else locked).append(c)

    # Deduplicate locked clusters that converged onto the same submatrix.
    for i, first in enumerate(locked):
        for second in locked[i + 1:]:
            if second in dead:
                continue
            shared = state.member[first] & state.member[second]
            shared_cells = (int(np.count_nonzero(shared[:state.n_rows]))
                            * int(np.count_nonzero(shared[state.n_rows:])))
            cells_first = sizes[first][0] * sizes[first][1]
            cells_second = sizes[second][0] * sizes[second][1]
            smaller = min(cells_first, cells_second)
            if smaller and shared_cells / smaller > 0.8:
                victim = first if cells_first < cells_second else second
                if victim not in dead:
                    dead.append(victim)

    if not dead:
        return False
    fresh = _admit_seeds(dead, p, state.mask, active, alpha, generator, tracer)
    for c, (row_member, col_member) in zip(dead, fresh):
        state.row_member[c] = row_member
        state.col_member[c] = col_member
        state.refresh_cluster(c)
    _emit_seeds(tracer, state, dead, "reseed")
    return True


def _emit_seeds(tracer: Tracer, state: _State, slots: Sequence[int], origin: str) -> None:
    """Emit a traced run's :class:`~repro.obs.events.SeedEvent` for each
    freshly seeded slot of ``slots``."""
    if not tracer.enabled:
        return
    # The event vocabulary loads only for a traced run.
    from ..obs.events import SeedEvent

    for c in slots:
        n_rows, n_cols = state.sizes(c)
        tracer.emit(SeedEvent(
            cluster=c, origin=origin, n_rows=n_rows, n_cols=n_cols,
            residue=float(state.residues[c]), volume=int(state.volumes[c]),
        ))


def _trim_seed_to_alpha(
    row_member: np.ndarray,
    col_member: np.ndarray,
    mask: np.ndarray,
    alpha: float,
    min_rows: int,
    min_cols: int,
) -> Optional[Seed]:
    """Shrink a seed until it satisfies the alpha occupancy rule, or
    return ``None`` when trimming reaches the structural floor first.

    Iteratively removes the sparsest offending row or column; the input
    vectors are left as they are.
    """
    row_member = row_member.copy()
    col_member = col_member.copy()
    while True:
        rows = np.flatnonzero(row_member)
        cols = np.flatnonzero(col_member)
        if not rows.size or not cols.size:
            return None
        sub_mask = mask[np.ix_(rows, cols)]
        row_frac = sub_mask.sum(axis=1) / cols.size
        col_frac = sub_mask.sum(axis=0) / rows.size
        worst_row = int(np.argmin(row_frac))
        worst_col = int(np.argmin(col_frac))
        if row_frac[worst_row] >= alpha and col_frac[worst_col] >= alpha:
            return row_member, col_member
        if rows.size <= min_rows or cols.size <= min_cols:
            return None
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
