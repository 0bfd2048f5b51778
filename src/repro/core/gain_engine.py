"""Sweep-level batched gain engine: vectorised action scoring for FLOC.

Phase 2 consults one gain per (slot, cluster) pair -- up to k * (M + N)
candidate toggles per sweep.  Scoring each candidate with its own call
(a full-submatrix rescan per exact candidate, or one frozen-bases fold
per slot) leaves nearly all wall time in per-action Python loops.  This
module scores *lanes* instead: one lane is the vector of scores of
**every slot of one kind against one cluster**, produced in a handful
of NumPy passes.

Three layers (see DESIGN.md section "The batched gain engine"):

**Lane scorers** (:func:`estimate_lane`, :func:`exact_lane`)
    The delta-cluster mean-absolute-residue measure, scored a lane at
    a time from the state's per-cluster sufficient statistics.  The
    *estimate* lane freezes the cluster's bases (fast mode, ordering)
    and folds ``_State.line_deviations``, the per-line |residual| sums
    the ledger residue reads too: one pass per cluster epoch.  The
    *exact* lane is the true after-toggle residue (exact mode), and
    :func:`exact_context` its candidate-independent half.

**Vectorised policy** (:func:`gain_lane`, the blocking masks)
    Array forms of FLOC's ``_gain`` branch ladder and of the cheap
    (cluster-local) constraint checks, so a lane of raw scores becomes a
    lane of gains with blocked entries at ``-inf`` in O(S) vector work.

**The engine** (:class:`GainEngine`)
    Caches lanes per (kind, cluster) and invalidates them by comparing
    the state's per-cluster modification stamps -- a performed action
    dirties only the acted cluster's lanes, so a sweep costs a few lane
    builds instead of k * (M + N) scalar evaluations, while every
    consult still scores against the *current* state (sequential
    semantics are preserved bit for bit; the paranoia-mode test in
    ``tests/test_gain_engine.py`` rebuilds every lane at every consult
    and checks the full run is identical).  The sweep scan
    (:meth:`GainEngine.next_action`) reads the lanes' column maxima to
    jump from one performed action to the next instead of consulting
    every slot.  Wide exact lanes (at least ``_BLOCK + _BLOCK // 2``
    slots) are rebuilt in block windows of the sweep's consult order;
    every other lane is rebuilt whole.

Cross-cluster constraints (Cons_o overlap, Cons_c coverage) and the
exact alpha-occupancy check depend on *other* clusters' state, so they
cannot live in a per-cluster lane cache: the engine applies them at
consult time, walking candidates in descending-gain order and verifying
only the few that could win.  At ordering time the state is frozen, so
they are applied as whole-lane vector masks instead.

The exact lane's core trick: with row means fixed under a row toggle,
the after-toggle deviation sum of a member column ``j`` is the sum of
absolute deviations of its centred residuals ``E_rj = d_rj - a_r``
about a candidate-specific pivot ``t'_j = b'_j - g'``.  Sorting each
column's residuals once per lane (with prefix sums) answers that for
every candidate via ``searchsorted`` in O(log n) -- the O(n*m) rescan
per candidate becomes O(n*m*log n) per *lane*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.tracer import NULL_TRACER, Tracer
from .actions import BLOCKED_GAIN, COL, ROW, toggle_occupancy_ok
from .constraints import Constraints

if TYPE_CHECKING:  # circular at runtime: floc imports this module
    from .floc import _State

__all__ = [
    "ExactContext",
    "GainEngine",
    "LaneScores",
    "estimate_lane",
    "exact_context",
    "exact_lane",
    "gain_lane",
]

# No ``np.errstate`` anywhere on the hot paths: every division below
# guards its denominator with ``np.maximum(..., 1)``, so none can raise
# divide/invalid.


@dataclass
class LaneScores:
    """Scores of every slot of one kind against one cluster.

    All arrays have length S (= M for row lanes, N for column lanes).
    ``new_residues`` / ``new_volumes`` describe the cluster after the
    candidate toggle; ``line_residues`` is the toggled line's own
    frozen-bases residue (the r-residue admission test input);
    ``line_counts`` the number of specified entries the line has on the
    cluster; ``width`` the cluster's extent along the toggled line.
    """

    new_residues: np.ndarray
    new_volumes: np.ndarray
    line_residues: np.ndarray
    line_counts: np.ndarray
    width: int


class ExactContext:
    """Candidate-independent scratch of one cluster's exact lane.

    Built by :func:`exact_context`; valid until the cluster's
    modification stamp moves (the engine keys its cache on exactly
    that).  ``m == 0`` contexts carry only the header fields -- every
    candidate of such a cluster takes the early-out path.
    """

    __slots__ = (
        "filled", "mask", "cand_member", "line_sums", "line_counts",
        "line_counts_f", "volume", "residue", "jidx", "m",
        "base_sub_sums", "base_counts_f", "cross_base", "total", "grand0",
        "table", "prefix", "col_off", "col_totals",
    )


# -- estimate: frozen-bases fold ---------------------------------------

def estimate_lane(state: "_State", kind: str, c: int) -> LaneScores:
    """Frozen-bases scores of every slot of one kind against cluster ``c``.

    Freezes the cluster's row/column bases and folds the toggled line's
    residue contribution in (addition) or out (removal) of the
    volume-weighted mean -- an O(1) fold per slot of the kind's slice of
    :meth:`~repro.core.floc._State.line_deviations`, checked against a
    scalar per-candidate oracle in ``tests/test_gain_engine.py``.  The
    weighted ordering draws its RNG stream from these gains, so a
    change to the arithmetic here changes results at a fixed seed.
    """
    n_rows = state.row_member.shape[1]
    if kind == ROW:
        deviations = state.line_deviations(c)[:n_rows]
        member = state.col_member[c]
        line_counts = state.row_counts[c]
        line_counts_f = state.row_counts_f[c]
        removing = state.row_member[c]
    else:
        deviations = state.line_deviations(c)[n_rows:]
        member = state.row_member[c]
        line_counts = state.col_counts[c]
        line_counts_f = state.col_counts_f[c]
        removing = state.col_member[c]

    volume = state.volumes_f[c]
    residue = state.residues[c]
    # A line with no specified entry on the cluster divides 0.0 by 1.0
    # here; the ``untouched`` overlay below pins it to 0.0 regardless.
    line_residues = deviations / np.maximum(line_counts_f, 1.0)

    # One pass for additions and removals: a removal folds in the
    # negated count (``a + (-b) == a - b`` bitwise), and the clamp is
    # inert on additions, whose residue is never negative.
    signed_counts = np.where(removing, -line_counts_f, line_counts_f)
    new_volumes = volume + signed_counts
    new_residues = np.maximum(
        (volume * residue + signed_counts * line_residues)
        / np.maximum(new_volumes, 1.0),
        0.0,
    )

    # The overlays are rare (lines with no specified entry on the
    # cluster, removals that empty it): skip their passes when idle.
    untouched = line_counts == 0
    if untouched.any():
        new_volumes = np.where(untouched, volume, new_volumes)
        new_residues = np.where(untouched, residue, new_residues)
        line_residues = np.where(untouched, 0.0, line_residues)
    emptied = new_volumes <= 0  # a superset, refined only when non-empty
    if emptied.any():
        emptied &= removing & ~untouched
        new_volumes = np.where(emptied, 0.0, new_volumes)
        new_residues = np.where(emptied, 0.0, new_residues)
        line_residues = np.where(emptied, 0.0, line_residues)

    w = state.work
    if w is not None:
        w.batch_evals += 1
        w.toggle_evals += line_counts.size
        w.cells_scanned += int(line_counts.sum())
    return LaneScores(
        new_residues=new_residues,
        new_volumes=new_volumes.astype(np.int64),
        line_residues=line_residues,
        line_counts=line_counts,
        width=int(np.count_nonzero(member)),
    )


# -- exact: sorted-prefix SAD over centred residuals --------------------

def exact_lane(
    state: "_State",
    kind: str,
    c: int,
    sel: Optional[np.ndarray] = None,
    ctx: Optional["ExactContext"] = None,
) -> LaneScores:
    """True after-toggle residue of every slot, without rescans.

    Derivation (row lane; column lanes run the same code on the
    transposed state).  Toggling row ``i`` leaves every retained
    row's mean ``a_r`` unchanged; the member columns' means become
    ``b'_j = (S_j +- d_ij) / (n_j +- 1)`` and the grand mean
    ``g' = T' / V'`` -- all available from the cached sufficient
    statistics.  A retained cell's residual is then
    ``|E_rj - t'_j|`` with ``E_rj = d_rj - a_r`` and
    ``t'_j = b'_j - g'``: a sum of absolute deviations about a
    pivot, answered for all candidates at once from each column's
    sorted residuals + prefix sums.  The toggled row's own cells
    contribute ``+-sum_j |E_ij - t'_j|`` on top.

    The candidate-independent half (gathers, bases, sorted table)
    lives in :func:`exact_context` and may be passed in via ``ctx``
    to amortise it across several builds of one cluster epoch.
    ``sel`` restricts the candidate block to a subset of slots (in
    ``sel`` order): every per-candidate value is bit-identical to
    the corresponding entry of the full lane, because all candidate
    arrays are C-contiguous row blocks and every per-candidate
    reduction runs over one contiguous length-``m`` row either way.
    """
    if ctx is None:
        ctx = exact_context(state, kind, c)
    volume = ctx.volume
    residue = ctx.residue
    m = ctx.m
    if sel is None:
        removing = ctx.cand_member
        line_sums = ctx.line_sums
        line_counts = ctx.line_counts
        line_counts_f = ctx.line_counts_f
    else:
        removing = ctx.cand_member[sel]
        line_sums = ctx.line_sums[sel]
        line_counts = ctx.line_counts[sel]
        line_counts_f = ctx.line_counts_f[sel]
    n_out = line_counts.size

    lcpos = line_counts > 0
    rem_volumes = volume - line_counts
    emptied = removing & lcpos & (rem_volumes <= 0)
    active = lcpos & ~emptied  # == ~(untouched | emptied)

    w = state.work
    if w is not None:
        w.batch_evals += 1
        w.lane_builds += 1
        w.toggle_evals += n_out
        w.cells_scanned += int(line_counts.sum())

    # One branch-free volume pass covers every inactive case too: an
    # untouched line has line_counts == 0 on both sides (volume
    # survives), and an emptied removal has rem_volumes == 0 (every
    # specified cell of the cluster sat on the toggled line).
    new_volumes = np.where(removing, rem_volumes, volume + line_counts)
    new_residues = np.where(emptied, 0.0, residue)
    if m == 0 or not active.any():
        return LaneScores(
            new_residues=new_residues,
            new_volumes=new_volumes,
            line_residues=np.zeros(n_out),
            line_counts=line_counts,
            width=m,
        )

    sign = np.where(removing, -1.0, 1.0)
    # C-contiguous gathers of the base-member columns, full or
    # ``sel``-restricted: either way each candidate occupies one
    # contiguous length-m row, so every per-candidate reduction
    # accumulates identically (bit for bit) in both shapes.
    jidx = ctx.jidx
    if sel is None:
        sub_filled = ctx.filled.take(jidx, axis=1)    # (n_out, m)
        sub_mask_f = ctx.mask.take(jidx, axis=1).astype(np.float64)
    else:
        cells = np.ix_(sel, jidx)
        sub_filled = ctx.filled[cells]
        sub_mask_f = ctx.mask[cells].astype(np.float64)
    base_counts_f = ctx.base_counts_f

    lden = np.maximum(line_counts_f, 1.0)
    line_base = line_sums / lden

    # Centred residuals of every line against its own mean.
    # ``filled`` is zero at unspecified cells, so masking happens
    # once, where each consumer needs it.
    centred = sub_filled - line_base[:, None]         # (n_out, m)

    # The toggled line's own frozen-bases residue (the r-residue
    # admission input -- same definition as the estimate lane).
    # In-place passes over one temporary, same op order.
    dev = centred - ctx.cross_base[None, :]
    dev += ctx.grand0
    np.abs(dev, out=dev)
    dev *= sub_mask_f
    line_residues = np.where(active, dev.sum(axis=1) / lden, 0.0)

    table = ctx.table
    prefix = ctx.prefix
    col_off = ctx.col_off
    n = table.shape[1]

    # Candidate-specific bases, all candidates at once.  The int
    # volumes convert exactly (far below 2**53), so the float view
    # is the same value the sign-fold arithmetic used to produce;
    # the +-1 membership folds are one sign-broadcast multiply each
    # (``x * -1.0 == -x`` bitwise), no bool/int broadcast casts.
    new_vol_f = new_volumes.astype(np.float64)        # (n_out,)
    denom_v = np.maximum(new_vol_f, 1.0)
    grand_new = (ctx.total + sign * line_sums) / denom_v
    sign_col = sign[:, None]
    base_new_counts = sign_col * sub_mask_f
    base_new_counts += base_counts_f
    base_new_sums = sign_col * sub_filled
    base_new_sums += ctx.base_sub_sums
    # ``base / max(count, 1)`` then a rare explicit zero where the
    # base line lost its last specified cell: the same values as the
    # branchless np.where form, without its full-size select pass.
    pivots = base_new_sums / np.maximum(base_new_counts, 1.0)
    dead = base_new_counts <= 0
    if dead.any():
        pivots[dead] = 0.0
    pivots -= grand_new[:, None]                      # (n_out, m)

    # Rank of each candidate's pivot in each base line's sorted
    # residuals (count of residuals strictly below the pivot).  Both
    # strategies produce the same integer ranks; the cost of each is
    # its Python-level dispatch count, so pick the shorter loop:
    # with fewer member lines than base lines (column lanes)
    # accumulate one whole-lane comparison per member line,
    # otherwise binary-search each base line's sorted row (m calls
    # of n_out queries -- m is small for row lanes).  The compare
    # operands are copied contiguous first: strided broadcast/needle
    # inner loops cost more than the copies.
    if n <= m:
        tab_rows = np.ascontiguousarray(table.T)      # (n, m)
        p = np.zeros((n_out, m), dtype=np.int64)
        for r in range(n):
            p += tab_rows[r] < pivots
    else:
        pivots_t = np.ascontiguousarray(pivots.T)     # (m, n_out)
        p = np.empty((n_out, m), dtype=np.intp)
        pt = p.T
        for j in range(m):
            pt[j] = table[j].searchsorted(pivots_t[j], side="left")
    # SAD of each base line's sorted residuals about each
    # candidate's pivot: sad_j = t*(2p - cnt) + total_j - 2*prefix[p],
    # accumulated in place (same op tree as the spelled-out form).
    pre = prefix.take(col_off + p)                    # (n_out, m)
    q = 2.0 * p
    q -= base_counts_f
    q *= pivots
    pre *= 2.0
    np.subtract(ctx.col_totals, pre, out=pre)
    q += pre
    sad = q.sum(axis=1)

    # The toggled line's own cells: added lines contribute them,
    # removed lines' contributions leave the member-line SAD.
    own = centred - pivots
    np.abs(own, out=own)
    own *= sub_mask_f
    own_sums = own.sum(axis=1)

    np.multiply(own_sums, sign, out=own_sums)
    own_sums += sad
    candidate_res = np.maximum(own_sums / denom_v, 0.0)
    new_residues = np.where(active, candidate_res, new_residues)
    return LaneScores(
        new_residues=new_residues,
        new_volumes=new_volumes,
        line_residues=line_residues,
        line_counts=line_counts,
        width=m,
    )


def exact_context(state: "_State", kind: str, c: int) -> ExactContext:
    """Candidate-independent half of :func:`exact_lane`.

    Everything here depends only on the cluster's current state, so
    the engine caches one context per (kind, cluster) modification
    epoch and amortises the O(V log n) table build over every block
    rebuild of the epoch.
    """
    if kind == ROW:
        filled, mask = state.filled, state.mask
        cand_member = state.row_member[c]
        base_member = state.col_member[c]
        line_sums = state.row_sums[c]
        line_counts = state.row_counts[c]
        line_counts_f = state.row_counts_f[c]
        base_sums_all, base_counts_all = state.col_sums[c], state.col_counts[c]
    else:
        filled, mask = state.filled_T, state.mask_T
        cand_member = state.col_member[c]
        base_member = state.row_member[c]
        line_sums = state.col_sums[c]
        line_counts = state.col_counts[c]
        line_counts_f = state.col_counts_f[c]
        base_sums_all, base_counts_all = state.row_sums[c], state.row_counts[c]

    volume = int(state.volumes[c])
    residue = float(state.residues[c])
    jidx = np.flatnonzero(base_member)
    m = jidx.size

    w = state.work
    if w is not None:
        w.residue_evals += 1
        w.cells_scanned += volume

    ctx = ExactContext()
    ctx.filled = filled
    ctx.mask = mask
    ctx.cand_member = cand_member
    ctx.line_sums = line_sums
    ctx.line_counts = line_counts
    ctx.line_counts_f = line_counts_f
    ctx.volume = volume
    ctx.residue = residue
    ctx.jidx = jidx
    ctx.m = m
    if m == 0:
        return ctx

    base_sub_sums = base_sums_all[jidx]
    base_sub_counts = base_counts_all[jidx]
    base_counts_f = base_sub_counts.astype(np.float64)
    ctx.base_sub_sums = base_sub_sums
    ctx.base_counts_f = base_counts_f
    ctx.cross_base = np.where(
        base_sub_counts > 0,
        base_sub_sums / np.maximum(base_counts_f, 1.0),
        0.0,
    )
    # The cluster total is exactly the sum of its member base sums.
    total = float(base_sub_sums.sum())
    ctx.total = total
    ctx.grand0 = total / volume if volume else 0.0

    # Sorted residual table of the member lines, one (contiguous)
    # row per member of the base axis; +inf-padded so every base
    # line's specified residuals occupy its sorted prefix.  The inf
    # padding may leak into the prefix tail, but every read sits at
    # a rank <= the line's specified count, before the first inf.
    ridx = np.flatnonzero(cand_member)
    n = ridx.size
    cells = np.ix_(ridx, jidx)
    mem_filled = filled[cells]                        # (n, m)
    mem_mask = mask[cells]
    mem_base = line_sums[ridx] / np.maximum(line_counts_f[ridx], 1.0)
    mem_centred = mem_filled - mem_base[:, None]
    table = np.ascontiguousarray(
        np.where(mem_mask, mem_centred, np.inf).T
    )                                                 # (m, n)
    table.sort(axis=1)
    prefix = np.zeros((m, n + 1))
    np.cumsum(table, axis=1, out=prefix[:, 1:])
    col_n = base_sub_counts.astype(np.intp)
    col_off = np.arange(m) * (n + 1)
    ctx.table = table
    ctx.prefix = prefix
    ctx.col_off = col_off
    ctx.col_totals = prefix.take(col_off + col_n)
    return ctx


# -- vectorised policy -------------------------------------------------

def gain_lane(
    old_residue: float,
    old_volume: int,
    new_residues: np.ndarray,
    new_volumes: np.ndarray,
    residue_target: Optional[float],
    line_residues: np.ndarray,
    is_addition: np.ndarray,
) -> np.ndarray:
    """Vector form of :func:`repro.core.floc._gain` over one lane.

    Branch for branch the same ladder (property-tested against the
    scalar), collapsed to two ``np.where`` overlays: the misfit branch
    (highest priority) over the feasibility branch over the reduction
    default.  Every arithmetic expression is bit-equal to the scalar
    code's -- additions only commute, the +-1 adjustments fold to
    ``x + (+-1.0)``, and a bool addend contributes exactly ``1.0``.
    """
    if residue_target is None:
        return old_residue - new_residues
    scale = max(old_residue, residue_target)
    reduction = (old_residue - new_residues) / scale
    feasible = new_residues <= residue_target
    if old_residue > residue_target:
        f_val = 2.0 + reduction
    else:
        f_val = (new_volumes - old_volume) / (old_volume + 1.0)
        f_val += is_addition  # the +1.0 admission bonus for additions
    gains = np.where(feasible, f_val, reduction)
    misfit = line_residues > residue_target
    mis_val = reduction + np.where(is_addition, -1.0, 1.0)
    return np.where(misfit, mis_val, gains)


def _structural_bounds(
    constraints: Constraints, kind: str, n: int, m: int
) -> Tuple[bool, bool]:
    """Cluster-local blocking: structural floor + Cons_v volume bounds.

    These depend only on the acted cluster's shape, so the whole lane
    shares two scalar verdicts ``(removal_blocked, addition_blocked)``
    -- usually both false, letting the caller skip the mask entirely.
    """
    if kind == ROW:
        rem_rows, rem_cols = n - 1, m
        add_cells = (n + 1) * m
    else:
        rem_rows, rem_cols = n, m - 1
        add_cells = n * (m + 1)
    rem_cells = rem_rows * rem_cols
    removal_blocked = (
        rem_rows < constraints.min_rows or rem_cols < constraints.min_cols
    )
    if constraints.min_volume is not None and rem_cells < constraints.min_volume:
        removal_blocked = True
    addition_blocked = (
        constraints.max_volume is not None and add_cells > constraints.max_volume
    )
    return removal_blocked, addition_blocked


def _overlap_blocked(
    state: "_State", constraints: Constraints, kind: str, c: int
) -> np.ndarray:
    """Vector form of ``Constraints._overlap_worsens`` over one lane.

    Valid only while the *whole* state is frozen (ordering time): the
    verdict depends on every other cluster, so it cannot be cached in a
    per-cluster lane.
    """
    max_overlap = constraints.max_overlap
    assert max_overlap is not None
    row_c, col_c = state.row_member[c], state.col_member[c]
    n, m = int(row_c.sum()), int(col_c.sum())
    old_cells = n * m
    if kind == ROW:
        member = row_c
        new_extent = n + np.where(member, -1, 1)
        new_cells = new_extent * m
    else:
        member = col_c
        new_extent = m + np.where(member, -1, 1)
        new_cells = n * new_extent
    delta = np.where(member, -1, 1)
    blocked = np.zeros(member.size, dtype=bool)
    for other in range(state.k):
        if other == c:
            continue
        other_rows = state.row_member[other]
        other_cols = state.col_member[other]
        shared_rows = int((row_c & other_rows).sum())
        shared_cols = int((col_c & other_cols).sum())
        old_shared = shared_rows * shared_cols
        if kind == ROW:
            new_shared = np.where(
                other_rows, (shared_rows + delta) * shared_cols, old_shared
            )
        else:
            new_shared = np.where(
                other_cols, shared_rows * (shared_cols + delta), old_shared
            )
        other_cells = int(other_rows.sum()) * int(other_cols.sum())
        new_smaller = np.minimum(new_cells, other_cells)
        relevant = (new_shared > 0) & (new_smaller > 0)
        new_fraction = new_shared / np.maximum(new_smaller, 1)
        old_smaller = min(old_cells, other_cells)
        old_fraction = old_shared / old_smaller if old_smaller else 0.0
        blocked |= (
            relevant
            & (new_fraction > max_overlap)
            & (new_fraction > old_fraction + 1e-12)
        )
    return blocked


# -- the engine --------------------------------------------------------

#: Candidate-block width of windowed exact lane rebuilds.  When the
#: sweep's consult order is registered (:meth:`GainEngine.begin_sweep`),
#: a dirtied wide lane is rebuilt only for the next ``_BLOCK`` slots in
#: consult order -- the candidate block is the expensive half of a lane
#: build, and on action-dense sweeps only a handful of its S entries
#: are ever consulted before the cluster changes again.
_BLOCK = 128

#: One consult's answer: ``(cluster, new_residue, new_volume, gain)``.
Choice = Tuple[int, float, int, float]


class _LaneSet:
    """Per-kind cache of lanes: scores, gains, per-cluster versions."""

    __slots__ = (
        "scores", "raw", "proxy", "versions", "move",
        "hits", "rev_seen", "ctx",
        "full", "win_end", "win_floor",
    )

    def __init__(self, k: int, size: int) -> None:
        self.scores: List[Optional[LaneScores]] = [None] * k
        self.raw = np.full((k, size), BLOCKED_GAIN)
        self.proxy: Optional[np.ndarray] = None
        self.versions = np.full(k, -1, dtype=np.int64)
        self.move = self.raw
        #: Consult positions (in the registered sweep order of this
        #: kind) whose best gain leads to a performed action -- the
        #: full-lane scan's stops.  Dropped with every rebuild and every
        #: new sweep order; recomputed by the next scan that needs it.
        self.hits: Optional[np.ndarray] = None
        #: Global state revision this set was last synced against -- an
        #: O(1) scalar check that skips the per-cluster stamp compare on
        #: the (common) consults where nothing changed.
        self.rev_seen = -1
        #: Cached ``ExactContext`` per windowed cluster, dropped with the
        #: epoch (same keying as ``versions``).
        self.ctx: Dict[int, "ExactContext"] = {}
        #: Block-window bookkeeping (consult-position space, see
        #: ``GainEngine.begin_sweep``): a cluster's lane entries are
        #: valid either everywhere (``full``) or from the position they
        #: were built at up to ``win_end`` (exclusive) in the registered
        #: sweep order.  ``win_floor`` is the smallest pending window
        #: end -- the O(1) "does any window expire by position t?"
        #: check of the block consult path.
        self.full = np.zeros(k, dtype=bool)
        self.win_end = np.zeros(k, dtype=np.intp)
        self.win_floor = 0


class GainEngine:
    """Finds and scores the actions of FLOC's Phase-2 sweeps.

    One engine serves a whole :func:`~repro.core.floc.floc` call: every
    sweep of every reseed round.  Lanes are rebuilt lazily when the
    state's per-cluster modification stamp moves past the cached
    version -- a performed action therefore costs at most two lane
    rebuilds (its cluster's row and column lanes), while a cluster that
    a rollback or a reseed round leaves unchanged keeps its lanes.

    :meth:`next_action` is the sweep's consult loop: from a consult
    position it jumps to the next slot whose best action is performed,
    so the caller makes one call per performed action, not one per
    slot.  :meth:`best_action` consults a single slot.
    """

    def __init__(
        self,
        state: "_State",
        constraints: Constraints,
        alpha: float,
        residue_target: Optional[float],
        gain_mode: str,
        tracer: Tracer = NULL_TRACER,
        mandatory_moves: bool = False,
    ) -> None:
        self.state = state
        self.constraints = constraints
        self.alpha = alpha
        self.residue_target = residue_target
        self.fast_mode = gain_mode == "fast"
        self.tracer = tracer
        self.mandatory_moves = mandatory_moves
        n_rows = state.row_member.shape[1]
        n_cols = state.col_member.shape[1]
        self._sizes = {ROW: n_rows, COL: n_cols}
        self._move = {ROW: _LaneSet(state.k, n_rows), COL: _LaneSet(state.k, n_cols)}
        if self.fast_mode:
            self._order = self._move
        else:
            self._order = {
                ROW: _LaneSet(state.k, n_rows),
                COL: _LaneSet(state.k, n_cols),
            }
        #: Cross-cluster / exact-occupancy checks that cannot be cached
        #: per lane; verified per consulted candidate instead.
        self._scalar_constraints = (
            constraints.max_overlap is not None
            or constraints.require_row_coverage
            or constraints.require_col_coverage
        )
        self._expensive = self._scalar_constraints or alpha > 0.0
        #: Memo of the "already violating alpha" healing rule, keyed by
        #: the cluster's modification stamp.
        self._alpha_memo: Dict[int, Tuple[int, bool]] = {}
        #: The sweep registered by :meth:`begin_sweep`, per kind: the
        #: slot indices in consult order (``_seq``) and their positions
        #: in the whole sweep (``_gpos``).  ``_pos`` inverts ``_seq``
        #: (slot index -> consult position) for kinds whose exact lanes
        #: are block-windowed, and is ``None`` for every other kind.
        empty = np.zeros(0, dtype=np.intp)
        self._seq: Dict[str, np.ndarray] = {ROW: empty, COL: empty}
        self._gpos: Dict[str, np.ndarray] = {ROW: empty, COL: empty}
        self._pos: Dict[str, Optional[np.ndarray]] = {ROW: None, COL: None}
        self._n_slots = 0

    # -- lane maintenance ----------------------------------------------
    def _member(self, kind: str, c: int) -> np.ndarray:
        return self.state.row_member[c] if kind == ROW else self.state.col_member[c]

    def _build_lane(
        self,
        lanes: _LaneSet,
        kind: str,
        c: int,
        exact: bool,
        sel: Optional[np.ndarray] = None,
        ctx: Optional["ExactContext"] = None,
    ) -> None:
        state = self.state
        if exact:
            scores = exact_lane(state, kind, c, sel=sel, ctx=ctx)
        else:
            assert sel is None  # block windows are exact-mode only
            scores = estimate_lane(state, kind, c)
        member = self._member(kind, c)
        # ``width`` already counts the base axis; only the toggled axis
        # needs a fresh popcount.
        if kind == ROW:
            n, m = int(np.count_nonzero(member)), scores.width
        else:
            n, m = scores.width, int(np.count_nonzero(member))
        removing = member if sel is None else member[sel]
        gains = gain_lane(
            float(state.residues[c]),
            int(state.volumes[c]),
            scores.new_residues,
            scores.new_volumes,
            self.residue_target,
            scores.line_residues,
            ~removing,
        )
        rb, ab = _structural_bounds(self.constraints, kind, n, m)
        if rb or ab:
            blocked = np.where(removing, rb, ab)
            gains = np.where(blocked, BLOCKED_GAIN, gains)
        if sel is None:
            lanes.scores[c] = scores
            lanes.raw[c] = gains
            lanes.full[c] = True
            lanes.win_end[c] = lanes.raw.shape[1]
            if self.alpha > 0.0:
                if lanes.proxy is None:
                    lanes.proxy = np.zeros_like(lanes.raw, dtype=bool)
                # The cheap occupancy proxy: a joining line must itself
                # meet alpha on the cluster's current extent.
                lanes.proxy[c] = (
                    ~removing
                    & (scores.width > 0)
                    & (scores.line_counts < self.alpha * scores.width)
                )
        else:
            # Scatter the block into the cluster's full-size store; the
            # entries outside the window keep stale values that the
            # block consult path never reads.
            store = lanes.scores[c]
            assert store is not None  # first builds are always full
            store.new_residues[sel] = scores.new_residues
            store.new_volumes[sel] = scores.new_volumes
            lanes.raw[c][sel] = gains
        lanes.versions[c] = state.stamp[c]

    def _ensure(self, lanes: _LaneSet, kind: str, exact: bool) -> None:
        if lanes.rev_seen == self.state.rev:
            return
        lanes.rev_seen = self.state.rev
        stale = np.flatnonzero(lanes.versions != self.state.stamp)
        if stale.size == 0:
            return
        for c in stale:
            self._build_lane(lanes, kind, int(c), exact)
        if self.alpha > 0.0 and self.fast_mode and lanes.proxy is not None:
            lanes.move = np.where(lanes.proxy, BLOCKED_GAIN, lanes.raw)
        else:
            lanes.move = lanes.raw
        lanes.hits = None

    def invalidate_all(self) -> None:
        """Drop every cached lane (testing hook; normal invalidation is
        driven by the state's modification stamps)."""
        for lanes in self._move.values():
            lanes.versions.fill(-1)
            lanes.rev_seen = -1
            lanes.hits = None
            lanes.ctx.clear()
            lanes.full.fill(False)
            lanes.win_end.fill(0)
            lanes.win_floor = 0
        for lanes in self._order.values():
            lanes.versions.fill(-1)
            lanes.rev_seen = -1

    def begin_sweep(self, order: Sequence[Tuple[str, int]]) -> None:
        """Register a sweep's consult order for :meth:`next_action`.

        ``order`` is the sequence of ``(kind, index)`` slots the sweep
        consults front to back, each slot exactly once.  It also enables
        block windows: a dirtied wide exact lane then needs scores only
        for the *next* ``_BLOCK`` consult positions of its kind, not all
        S slots.  Windows apply to exact cheap-path move lanes wide
        enough to amortise their bookkeeping (at least
        ``_BLOCK + _BLOCK // 2`` slots); every other path (fast mode,
        the expensive constraint walk) keeps full builds.  Scores are
        bit-identical either way (the block evaluator is an exact slice
        of the full lane), so windows never change results.
        """
        n_slots = len(order)
        is_row = np.fromiter(
            (kind == ROW for kind, _ in order), dtype=bool, count=n_slots
        )
        indices = np.fromiter(
            (index for _, index in order), dtype=np.intp, count=n_slots
        )
        self._n_slots = n_slots
        windows = not (self.fast_mode or self._expensive)
        for kind, of_kind in ((ROW, is_row), (COL, ~is_row)):
            gpos = np.flatnonzero(of_kind)
            seq = indices[gpos]
            self._gpos[kind] = gpos
            self._seq[kind] = seq
            self._pos[kind] = None
            lanes = self._move[kind]
            lanes.hits = None
            size = self._sizes[kind]
            if not windows or size < _BLOCK + _BLOCK // 2 or seq.size != size:
                continue
            pos = np.full(size, -1, dtype=np.intp)
            pos[seq] = np.arange(size, dtype=np.intp)
            if (pos < 0).any():  # not a permutation of every slot
                continue
            self._pos[kind] = pos
            # The new order voids every window (positions renumbered);
            # full lanes stay valid -- their entries cover any order.
            lanes.win_end.fill(0)
            lanes.win_floor = 0

    def _prepare(self, kind: str, u: int) -> int:
        """Make ``kind``'s move lanes valid at its consult position ``u``.

        Returns the end (exclusive) of the consult positions they now
        hold valid: every position for full lanes, the nearest window
        expiry for block-windowed ones.
        """
        lanes = self._move[kind]
        size = self._seq[kind].size
        if self._pos[kind] is None:
            self._ensure(lanes, kind, exact=not self.fast_mode)
            return size
        if lanes.rev_seen != self.state.rev or u >= lanes.win_floor:
            self._resync_block(lanes, kind, u)
        return min(lanes.win_floor, size)

    def _resync_block(self, lanes: _LaneSet, kind: str, t: int) -> None:
        """Make every cluster's lane valid at consult position ``t``.

        Stale clusters rebuild a fresh ``_BLOCK``-wide window starting
        at ``t`` (reusing the epoch's cached :class:`ExactContext` when
        only the window expired); initial builds stay full -- the first
        sweeps consult every slot.  Positions only move forward within
        a sweep, so entries behind ``t`` are never read again.
        """
        state = self.state
        lanes.rev_seen = state.rev
        seq = self._seq[kind]
        size = seq.size
        stamp = state.stamp
        floor = size + 1  # sentinel: no pending window expiry
        for c in range(state.k):
            if lanes.versions[c] == stamp[c]:
                if lanes.full[c]:
                    continue
                end = int(lanes.win_end[c])
                if t < end:
                    if end < floor:
                        floor = end
                    continue
            else:
                lanes.ctx.pop(c, None)
            if lanes.versions[c] == -1:
                self._build_lane(lanes, kind, c, exact=True)
                continue
            ctx = lanes.ctx.get(c)
            if ctx is None:
                ctx = lanes.ctx[c] = exact_context(state, kind, c)
            end = min(t + _BLOCK, size)
            self._build_lane(
                lanes, kind, c, exact=True, sel=seq[t:end], ctx=ctx
            )
            lanes.full[c] = False
            lanes.win_end[c] = end
            if end < floor:
                floor = end
        lanes.win_floor = floor

    # -- consult: the sweep scan and single slots -----------------------
    def next_action(self, t: int) -> Optional[Tuple[int, str, int, Choice]]:
        """The sweep's next performed action at or after position ``t``.

        Returns ``(position, kind, index, choice)`` for the first slot of
        the registered order whose best action is performed -- a gain
        above zero, or any unblocked gain under ``mandatory_moves`` --
        or ``None`` when no later slot acts.  The answer, and every lane
        build on the way, equals consulting :meth:`best_action` slot by
        slot: a kind's lanes are brought up to date only when one of its
        slots lies at or before the hit, where the slot-by-slot loop
        would build them.  The scan reads the lanes' column maxima: the
        cached ``hits`` of full lanes, one gather per window of
        block-windowed lanes, and on the expensive path (cross-cluster
        constraints, alpha) the maximum as an upper bound whose slots
        the consult-time walk confirms one by one.
        """
        bound = self._n_slots
        hit: Optional[Tuple[str, int, Choice]] = None
        cursor = {
            kind: int(self._gpos[kind].searchsorted(t)) for kind in (ROW, COL)
        }
        start: Dict[str, int] = {}
        walks: List[Tuple[int, int]] = []
        while True:
            # Advance the kind whose next unscanned slot comes first, so
            # no lane is built beyond a hit the other kind finds earlier.
            kind: Optional[str] = None
            first = bound
            for candidate in (ROW, COL):
                u = cursor[candidate]
                gpos = self._gpos[candidate]
                if u < gpos.size and gpos[u] < first:
                    kind, first = candidate, int(gpos[u])
            if kind is None:
                break
            u = cursor[kind]
            gpos = self._gpos[kind]
            start.setdefault(kind, u)
            end = min(self._prepare(kind, u), int(gpos.searchsorted(bound)))
            found = self._search(kind, u, end, walks)
            if found is None:
                cursor[kind] = end
            else:
                v, choice = found
                bound = int(gpos[v])
                hit = (kind, int(self._seq[kind][v]), choice)
                cursor[kind] = gpos.size
        if self.tracer.enabled:
            self._count_blocked(start, bound, walks)
        if hit is None:
            return None
        kind, index, choice = hit
        return bound, kind, index, choice

    def _acts(self, gains: np.ndarray) -> np.ndarray:
        """Mask of best gains whose slot the scan stops at.

        On the cheap paths a stop is a performed action.  On the
        expensive path the walk confirms each stop; traced runs walk
        every unblocked slot, so the blocked-candidate count stays the
        slot-by-slot one.
        """
        if self.mandatory_moves or (self._expensive and self.tracer.enabled):
            return gains != BLOCKED_GAIN
        return ~(gains <= 0.0)

    def _search(
        self, kind: str, u: int, end: int, walks: List[Tuple[int, int]]
    ) -> Optional[Tuple[int, Choice]]:
        """First position in ``[u, end)`` of ``kind`` whose action is
        performed, with its choice.  ``walks`` collects the sweep
        positions and blocked-candidate counts of constraint walks."""
        lanes = self._move[kind]
        seq = self._seq[kind]
        if self._pos[kind] is not None:
            # Window entries are valid only inside ``[u, end)``.
            best = lanes.move[:, seq[u:end]].max(axis=0)
            stops = u + np.flatnonzero(self._acts(best))
        else:
            hits = lanes.hits
            if hits is None:
                hits = lanes.hits = np.flatnonzero(
                    self._acts(lanes.move.max(axis=0)[seq])
                )
            stops = hits[hits.searchsorted(u):hits.searchsorted(end)]
        for v in stops:
            index = int(seq[v])
            if not self._expensive:
                return int(v), self._cheap_choice(lanes, index)
            choice, blocked = self._walk(lanes, kind, index)
            if blocked:
                walks.append((int(self._gpos[kind][v]), blocked))
            if choice is not None and (
                self.mandatory_moves or not choice[3] <= 0.0
            ):
                return int(v), choice
        return None

    def _count_blocked(
        self, start: Dict[str, int], bound: int, walks: List[Tuple[int, int]]
    ) -> None:
        """``actions_blocked_by_constraint`` of one scan: the blocked
        lane entries of every slot it consulted (up to and including
        the hit at ``bound``) plus the walks' blocked candidates."""
        blocked = sum(n for position, n in walks if position <= bound)
        for kind, u in start.items():
            upto = int(self._gpos[kind].searchsorted(bound, side="right"))
            columns = self._move[kind].move[:, self._seq[kind][u:upto]]
            blocked += int((columns == BLOCKED_GAIN).sum())
        if blocked:
            self.tracer.inc("actions_blocked_by_constraint", blocked)

    def best_action(self, kind: str, index: int) -> Optional[Choice]:
        """Highest-gain unblocked action of one slot, or ``None``.

        Negative gains are eligible (whether they are performed is
        :meth:`next_action`'s ``mandatory_moves`` rule), ties go to the
        lowest cluster index.  On a block-windowed kind, consults must
        follow the registered order.
        """
        lanes = self._move[kind]
        pos = self._pos[kind]
        self._prepare(kind, 0 if pos is None else int(pos[index]))
        column = lanes.move[:, index]
        if self.tracer.enabled:
            blocked = int((column == BLOCKED_GAIN).sum())
            if blocked:
                self.tracer.inc("actions_blocked_by_constraint", blocked)
        if not self._expensive:
            choice = self._cheap_choice(lanes, index)
            return None if choice[3] == BLOCKED_GAIN else choice
        choice, blocked = self._walk(lanes, kind, index)
        if blocked:
            self.tracer.inc("actions_blocked_by_constraint", blocked)
        return choice

    @staticmethod
    def _choice(lanes: _LaneSet, c: int, index: int, gain: float) -> Choice:
        scores = lanes.scores[c]
        assert scores is not None
        return (
            c,
            float(scores.new_residues[index]),
            int(scores.new_volumes[index]),
            gain,
        )

    def _cheap_choice(self, lanes: _LaneSet, index: int) -> Choice:
        """The slot's top lane entry (lowest cluster index on ties)."""
        column = lanes.move[:, index]
        c = int(np.argmax(column))
        return self._choice(lanes, c, index, float(column[c]))

    def _walk(
        self, lanes: _LaneSet, kind: str, index: int
    ) -> Tuple[Optional[Choice], int]:
        """Candidates of one slot in descending-gain order, verified
        against the consult-time constraints: the first unblocked one
        (or ``None``) and how many were blocked before it."""
        column = lanes.move[:, index]
        blocked = 0
        for c in np.argsort(-column, kind="stable"):
            gain = float(column[c])
            if gain == BLOCKED_GAIN:
                break
            if self._consult_blocked(kind, index, int(c)):
                blocked += 1
                continue
            return self._choice(lanes, int(c), index, gain), blocked
        return None, blocked

    # -- consult-time (non-cacheable) blocking --------------------------
    def _consult_blocked(self, kind: str, index: int, c: int) -> bool:
        state = self.state
        is_removal = bool(self._member(kind, c)[index])
        if self._scalar_constraints:
            if self.constraints.blocks(
                state.row_member[c], state.col_member[c], kind, index,
                is_removal, c, state.row_member, state.col_member,
            ):
                return True
        if self.alpha > 0.0:
            if self.fast_mode and not is_removal:
                return False  # the cheap proxy already ran in the lane
            return self._alpha_blocked(kind, index, c)
        return False

    def _alpha_blocked(self, kind: str, index: int, c: int) -> bool:
        """Exact Definition-3.1 occupancy with the healing rule.

        A candidate violating alpha is blocked only when the cluster
        currently satisfies alpha -- an already-violating cluster (e.g.
        a fresh random seed) may keep moving until it heals.
        """
        state = self.state
        if toggle_occupancy_ok(
            state.mask, state.row_member[c], state.col_member[c],
            kind, index, self.alpha,
        ):
            return False
        memo = self._alpha_memo.get(c)
        stamp = int(state.stamp[c])
        if memo is not None and memo[0] == stamp:
            return memo[1]
        rows = np.flatnonzero(state.row_member[c])
        cols = np.flatnonzero(state.col_member[c])
        if rows.size == 0 or cols.size == 0:
            verdict = True
        else:
            sub_mask = state.mask[np.ix_(rows, cols)]
            row_frac = sub_mask.sum(axis=1) / cols.size
            col_frac = sub_mask.sum(axis=0) / rows.size
            verdict = bool(
                (row_frac >= self.alpha).all() and (col_frac >= self.alpha).all()
            )
        self._alpha_memo[c] = (stamp, verdict)
        return verdict

    # -- ordering: per-slot best-gain estimates -------------------------
    def ordering_gains(self, slots: Sequence[Tuple[str, int]]) -> List[float]:
        """Frozen-bases best gain of every slot, for the weighted/greedy
        schedulers.

        The state is frozen while an order is built, so the
        cross-cluster constraint masks are applied lane-wide here (the
        one place that is sound).  Estimates come from the estimate
        lanes regardless of gain mode -- ordering is only a heuristic,
        exactly as in the scalar implementation.
        """
        best: Dict[str, np.ndarray] = {}
        for kind in (ROW, COL):
            lanes = self._order[kind]
            self._ensure(lanes, kind, exact=False)
            gains = lanes.raw
            if self.alpha > 0.0 and lanes.proxy is not None:
                gains = np.where(lanes.proxy, BLOCKED_GAIN, gains)
            if self._scalar_constraints or self.alpha > 0.0:
                gains = gains.copy()
            state = self.state
            for c in range(state.k):
                member = self._member(kind, c)
                if self.constraints.max_overlap is not None:
                    overlap = _overlap_blocked(state, self.constraints, kind, c)
                    gains[c, overlap] = BLOCKED_GAIN
                if kind == ROW and self.constraints.require_row_coverage:
                    cover = state.row_member.sum(axis=0)
                    gains[c, member & (cover <= 1)] = BLOCKED_GAIN
                if kind == COL and self.constraints.require_col_coverage:
                    cover = state.col_member.sum(axis=0)
                    gains[c, member & (cover <= 1)] = BLOCKED_GAIN
                if self.alpha > 0.0:
                    # Removals get the exact occupancy check even at
                    # ordering time (removals can break alpha in ways
                    # the joining-line proxy cannot see).
                    for index in np.flatnonzero(member):
                        if gains[c, index] == BLOCKED_GAIN:
                            continue
                        if self._alpha_blocked(kind, int(index), c):
                            gains[c, index] = BLOCKED_GAIN
            best[kind] = gains.max(axis=0)
        return [float(best[kind][index]) for kind, index in slots]
