"""Sweep-level batched gain engine: vectorised action scoring for FLOC.

Phase 2 consults one gain per (slot, cluster) pair -- up to k * (M + N)
candidate toggles per sweep.  Scoring each candidate with its own call
(a full-submatrix rescan per exact candidate, or one frozen-bases fold
per slot) leaves nearly all wall time in per-action Python loops.  This
module scores *lanes* instead: the scores of many slots against one
cluster, produced in a handful of NumPy passes.  Rows and columns share
one line index, rows first (line ``i`` is row ``i``, line ``M + j`` is
column ``j``), as in :class:`~repro.core.floc._State`.

Three layers (see DESIGN.md section "The batched gain engine"):

**Lane scorers** (:func:`estimate_lane`, :func:`exact_lane`)
    The delta-cluster mean-absolute-residue measure, scored from the
    state's per-cluster sufficient statistics.  The *estimate* lane
    freezes the cluster's bases (fast mode, ordering) and scores all
    M + N lines at once by folding ``_State.line_deviations``, the
    per-line |residual| sums the ledger residue reads too: one pass and
    one build per cluster change.  The *exact* lane is the true
    after-toggle residue of one kind's lines (exact mode), and
    :func:`exact_context` its candidate-independent half.

**Vectorised policy** (:func:`gain_lane`, the blocking masks)
    Array forms of FLOC's ``_gain`` branch ladder and of the
    cluster-local constraint checks -- the structural floor, Cons_v and
    Definition 3.1's alpha-occupancy (:func:`occupancy_blocked`) -- so a
    lane of raw scores becomes a lane of gains with blocked entries at
    ``-inf`` in vector work.

**The engine** (:class:`GainEngine`)
    Keeps every cluster's gains in one ``(k, M+N)`` store and
    invalidates them by comparing the state's per-cluster modification
    stamps -- a performed action dirties only the acted cluster, so a
    sweep costs a few lane builds instead of k * (M + N) scalar
    evaluations, while every consult still scores against the *current*
    state (sequential semantics are preserved bit for bit; the
    paranoia-mode test in ``tests/test_gain_engine.py`` rebuilds every
    lane at every consult and checks the full run is identical).  The
    sweep scan (:meth:`GainEngine.next_action`) reads one cached vector
    of the sweep positions whose column maximum acts and jumps to the
    next performed action with one ``searchsorted``.  Exact lanes stay
    per kind and lazy: wide ones (at least ``_BLOCK + _BLOCK // 2``
    slots) are rebuilt in block windows of the sweep's consult order,
    and positions of a stale kind or past a window count as unknown
    until the scan reaches them.  A fast-mode engine has one estimate
    part and no unknown position once it is synced, so its scan syncs
    that part and reads the gains directly.

Lanes read the toggle signs from the state's ledger (``_State.sign``,
-1.0 at member lines): a removal's negated count and the misfit
branch's +-1 are one multiply and one subtract.  Dense and masked
matrices share every formula.  The estimate lane applies its
``max(., 1)`` guards and overlays only when a line count is zero or a
removal empties the cluster, which two reductions test; an exact
context whose candidate lines are all fully specified on the cluster
(``ExactContext.full``) skips its masks, overlays and guards (DESIGN.md
§5, "Fully specified contexts").

Cross-cluster constraints (Cons_o overlap, Cons_c coverage) depend on
*other* clusters' state, so they cannot live in a per-cluster lane
cache: the engine applies them at consult time, walking candidates in
descending-gain order and verifying only the few that could win.  At
ordering time the state is frozen, so they are applied as whole-lane
vector masks instead.  Alpha-occupancy depends on the acted cluster
alone and is a lane mask like the structural bounds.

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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .actions import BLOCKED_GAIN, COL, ROW
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
    "occupancy_blocked",
]

# No ``np.errstate`` anywhere on the hot paths: every division below
# guards its denominator with ``np.maximum(..., 1)`` or divides by one
# that is at least 1 by construction, so none can raise divide/invalid.
# The per-action paths call reducing ufuncs directly (``np.add.reduce``
# for ``.sum()``, ``.nonzero()[0]`` for ``np.flatnonzero``): the same
# ufunc without the Python wrapper, so the same bits for fewer calls.


@dataclass
class LaneScores:
    """Scores of the lines of one lane against one cluster.

    All arrays have one entry per scored line: M + N (rows first) for
    an estimate lane, M or N for a full exact lane, the selection for a
    windowed one.  ``new_residues`` / ``new_volumes`` describe the
    cluster after the candidate toggle; ``line_residues`` is the toggled
    line's own frozen-bases residue (the r-residue admission test
    input).
    """

    new_residues: np.ndarray
    new_volumes: np.ndarray
    line_residues: np.ndarray


class ExactContext:
    """Candidate-independent scratch of one cluster's exact lane.

    Built by :func:`exact_context`; valid until the cluster's
    modification stamp moves (the engine keys its cache on exactly
    that).  ``m == 0`` contexts carry only the header fields -- every
    candidate of such a cluster takes the early-out path.  ``n`` and
    ``m`` count the cluster's members on the candidate and the base
    axis.  ``full`` says ``m > 0``, ``n >= 2`` and every candidate line
    has ``m`` specified cells on the base members: the lane then needs
    no mask, overlay or guard.
    """

    __slots__ = (
        "filled", "mask", "cand_member", "cand_sign", "line_sums", "line_counts",
        "line_counts_f", "volume", "residue", "jidx", "m", "n", "full",
        "base_sub_sums", "base_counts_f", "cross_base", "total", "grand0",
        "table", "prefix", "col_off", "col_totals",
    )


# -- estimate: frozen-bases fold ---------------------------------------

def estimate_lane(state: "_State", c: int) -> LaneScores:
    """Frozen-bases scores of every line -- M rows, then N columns --
    against cluster ``c``.

    Freezes the cluster's row/column bases and folds the toggled line's
    residue contribution in (addition) or out (removal) of the
    volume-weighted mean -- an O(1) fold per entry of
    :meth:`~repro.core.floc._State.line_deviations`, checked against a
    scalar per-candidate oracle in ``tests/test_gain_engine.py``.  Every
    operation is elementwise over the line axis, so each entry is
    bitwise the one a per-kind lane computes.  The weighted ordering
    draws its RNG stream from these gains, so a change to the
    arithmetic here changes results at a fixed seed.
    """
    deviations = state.line_deviations(c)
    line_counts = state.counts[c]
    line_counts_f = state.counts_f[c]
    removing = state.member[c]
    volume = state.volumes_f[c]
    residue = state.residues[c]
    # One pass for additions and removals: a removal folds in the
    # negated count (``-1.0 * x == -x`` and ``a + (-b) == a - b``
    # bitwise), and the clamp is inert on additions, whose residue is
    # never negative.  The volumes stay float: exact integers, far
    # below 2**53.
    signed_counts = state.sign[c] * line_counts_f
    new_volumes = volume + signed_counts
    # Overlays for lines with no specified entry on the cluster and for
    # removals that empty it, with the ``max(., 1)`` guards of the two
    # divisions; each is idle unless its test fires, and then changes
    # no other entry's bits.
    untouched = np.minimum.reduce(line_counts) == 0
    emptying = np.minimum.reduce(new_volumes) <= 0.0
    # A line with no specified entry on the cluster divides its
    # deviation sum, +0.0 (its cells are all unspecified), by 1.0.
    line_residues = deviations / (
        np.maximum(line_counts_f, 1.0) if untouched else line_counts_f
    )
    new_residues = np.maximum(
        (volume * residue + signed_counts * line_residues)
        / (np.maximum(new_volumes, 1.0) if emptying else new_volumes),
        0.0,
    )
    # Only the residues need overlaying: an untouched line moves the
    # volume by +-0.0 and has a line residue of +0.0 already, and an
    # emptying removal leaves a volume of exactly V - V = +0.0.
    if untouched:
        untouched_lines = line_counts == 0
        new_residues = np.where(untouched_lines, residue, new_residues)
    if emptying:
        # Removals that empty the cluster (and, on an empty one, the
        # untouched lines, which keep their overlay).
        emptied = (new_volumes <= 0.0) & removing
        if untouched:
            emptied &= ~untouched_lines
        new_residues = np.where(emptied, 0.0, new_residues)
        line_residues = np.where(emptied, 0.0, line_residues)

    w = state.work
    if w is not None:
        w.batch_evals += 1
        w.toggle_evals += line_counts.size
        # The sum of ``line_counts``, from the state's ledger.
        w.cells_scanned += int(state.member_cells[c])
    return LaneScores(
        new_residues=new_residues,
        new_volumes=new_volumes,
        line_residues=line_residues,
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

    On a fully specified context (``ctx.full``) the mask gathers and
    multiplies are skipped (``x * 1.0 == x``), and so are the overlays
    of empty lines, emptied clusters and dead base lines, and the
    ``max(., 1)`` guards of denominators that are at least one: the
    same bits as the masked formulas.
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
    else:
        removing = ctx.cand_member.take(sel)
        line_sums = ctx.line_sums.take(sel)
        line_counts = ctx.line_counts.take(sel)
    n_out = line_counts.size
    full = ctx.full
    lden: Union[np.ndarray, float]

    w = state.work
    if w is not None:
        w.batch_evals += 1
        w.lane_builds += 1
        w.toggle_evals += n_out
        # Full: every line has one specified cell per base member.
        w.cells_scanned += n_out * m if full else int(np.add.reduce(line_counts))

    if full:
        # Every line count is m, every new volume volume +- m >= 1.
        new_volumes = np.where(removing, volume - m, volume + m)
        denom_v = np.where(removing, float(volume - m), float(volume + m))
        lden = float(m)
    else:
        lcpos = line_counts > 0
        rem_volumes = volume - line_counts
        emptied = removing & lcpos & (rem_volumes <= 0)
        active = lcpos & ~emptied  # == ~(untouched | emptied)
        # One branch-free volume pass covers every inactive case too:
        # an untouched line has line_counts == 0 on both sides (volume
        # survives), and an emptied removal has rem_volumes == 0
        # (every specified cell of the cluster sat on the toggled
        # line).
        new_volumes = np.where(removing, rem_volumes, volume + line_counts)
        new_residues = np.where(emptied, 0.0, residue)
        if m == 0 or not active.any():
            return LaneScores(
                new_residues=new_residues,
                new_volumes=new_volumes,
                line_residues=np.zeros(n_out),
            )
        # The int volumes convert exactly (far below 2**53).
        denom_v = np.maximum(new_volumes.astype(np.float64), 1.0)
        line_counts_f = ctx.line_counts_f if sel is None else ctx.line_counts_f.take(sel)
        lden = np.maximum(line_counts_f, 1.0)

    sign = ctx.cand_sign if sel is None else ctx.cand_sign.take(sel)
    # C-contiguous gathers of the base-member columns, full or
    # ``sel``-restricted: either way each candidate occupies one
    # contiguous length-m row, so every per-candidate reduction
    # accumulates identically (bit for bit) in both shapes.
    jidx = ctx.jidx
    filled = ctx.filled if sel is None else ctx.filled.take(sel, axis=0)
    sub_filled = filled.take(jidx, axis=1)            # (n_out, m)
    if not full:
        mask = ctx.mask if sel is None else ctx.mask.take(sel, axis=0)
        sub_mask_f = mask.take(jidx, axis=1).astype(np.float64)
    line_base = line_sums / lden

    # Centred residuals of every line against its own mean.
    # ``filled`` is zero at unspecified cells, so masking happens
    # once, where each consumer needs it.
    centred = sub_filled - line_base[:, None]         # (n_out, m)

    # The toggled line's own frozen-bases residue (the r-residue
    # admission input -- same definition as the estimate lane).
    # In-place passes over one temporary, same op order.
    dev = centred - ctx.cross_base
    dev += ctx.grand0
    np.abs(dev, out=dev)
    if not full:
        dev *= sub_mask_f
    line_residues = np.add.reduce(dev, axis=1) / lden
    if not full:
        line_residues = np.where(active, line_residues, 0.0)

    # Candidate-specific bases, all candidates at once; the +-1
    # membership folds are one sign-broadcast multiply each
    # (``x * -1.0 == -x`` bitwise), no bool/int broadcast casts.
    grand_new = (ctx.total + sign * line_sums) / denom_v
    sign_col = sign[:, None]
    base_new_sums = sign_col * sub_filled
    base_new_sums += ctx.base_sub_sums
    base_counts_f = ctx.base_counts_f
    if full:
        # Every base line has n >= 2 cells: n +- 1 >= 1 per candidate.
        pivots = base_new_sums / (sign_col + ctx.n)
    else:
        base_new_counts = sign_col * sub_mask_f
        base_new_counts += base_counts_f
        # ``base / max(count, 1)`` then a rare explicit zero where the
        # base line lost its last specified cell: the same values as
        # the branchless np.where form, without its full-size select.
        pivots = base_new_sums / np.maximum(base_new_counts, 1.0)
        dead = base_new_counts <= 0
        if dead.any():
            pivots[dead] = 0.0
    pivots -= grand_new[:, None]                      # (n_out, m)

    table = ctx.table
    prefix = ctx.prefix
    col_off = ctx.col_off
    n = ctx.n

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
    sad = np.add.reduce(q, axis=1)

    # The toggled line's own cells: added lines contribute them,
    # removed lines' contributions leave the member-line SAD.
    own = centred - pivots
    np.abs(own, out=own)
    if not full:
        own *= sub_mask_f
    own_sums = np.add.reduce(own, axis=1)

    np.multiply(own_sums, sign, out=own_sums)
    own_sums += sad
    candidate_res = np.maximum(own_sums / denom_v, 0.0)
    if not full:
        candidate_res = np.where(active, candidate_res, new_residues)
    return LaneScores(
        new_residues=candidate_res,
        new_volumes=new_volumes,
        line_residues=line_residues,
    )


def exact_context(state: "_State", kind: str, c: int) -> ExactContext:
    """Candidate-independent half of :func:`exact_lane`.

    Everything here depends only on the cluster's current state, so
    the engine caches one context per (kind, cluster) modification
    epoch and amortises the O(V log n) table build over every block
    rebuild of the epoch.  The line statistics are slices of the
    state's ``(k, M+N)`` arrays: the candidate kind's lines and the
    other axis's *base* lines.
    """
    split = state.n_rows
    if kind == ROW:
        lines, cross = slice(0, split), slice(split, None)
        filled, mask = state.filled, state.mask
        filled_x, mask_x = state.filled_T, state.mask_T
    else:
        lines, cross = slice(split, None), slice(0, split)
        filled, mask = state.filled_T, state.mask_T
        filled_x, mask_x = state.filled, state.mask
    member = state.member[c]
    sums = state.sums[c]
    counts = state.counts[c]
    cand_member = member[lines]
    line_sums = sums[lines]
    line_counts = counts[lines]
    line_counts_f = state.counts_f[c, lines]

    volume = int(state.volumes[c])
    residue = float(state.residues[c])
    jidx = member[cross].nonzero()[0]
    ridx = cand_member.nonzero()[0]
    m = jidx.size
    n = ridx.size

    w = state.work
    if w is not None:
        w.residue_evals += 1
        w.cells_scanned += volume

    ctx = ExactContext()
    ctx.filled = filled
    ctx.mask = mask
    ctx.cand_member = cand_member
    ctx.cand_sign = state.sign[c, lines]
    ctx.line_sums = line_sums
    ctx.line_counts = line_counts
    ctx.line_counts_f = line_counts_f
    ctx.volume = volume
    ctx.residue = residue
    ctx.jidx = jidx
    ctx.m = m
    ctx.n = n
    # m > 0 base members, n >= 2 candidate members and m specified
    # cells on every candidate line: no removal empties the cluster,
    # and every base line has n specified cells and keeps n - 1 >= 1.
    full = ctx.full = bool(
        m > 0 and n >= 2 and np.minimum.reduce(line_counts) == m
    )
    if m == 0:
        return ctx

    base_sub_sums = sums[cross].take(jidx)
    base_sub_counts = counts[cross].take(jidx)
    base_counts_f = base_sub_counts.astype(np.float64)
    ctx.base_sub_sums = base_sub_sums
    ctx.base_counts_f = base_counts_f
    if full:
        # Every base count is n >= 2: the empty-base guard is idle.
        ctx.cross_base = base_sub_sums / base_counts_f
    else:
        ctx.cross_base = np.where(
            base_sub_counts > 0,
            base_sub_sums / np.maximum(base_counts_f, 1.0),
            0.0,
        )
    # The cluster total is exactly the sum of its member base sums.
    total = float(np.add.reduce(base_sub_sums))
    ctx.total = total
    ctx.grand0 = total / volume if volume else 0.0

    # Sorted residual table of the member lines, one (contiguous) row
    # per member of the base axis, gathered from the transposed copy.
    # Unless full it is +inf-padded so every base line's specified
    # residuals occupy its sorted prefix.  The inf padding may leak
    # into the prefix tail, but every read sits at a rank <= the line's
    # specified count, before the first inf.
    table = filled_x.take(jidx, axis=0).take(ridx, axis=1)    # (m, n)
    if full:
        # Every member line has m specified cells: its count is m.
        table -= line_sums.take(ridx) / float(m)
    else:
        table -= line_sums.take(ridx) / np.maximum(line_counts_f.take(ridx), 1.0)
        table = np.where(mask_x.take(jidx, axis=0).take(ridx, axis=1), table, np.inf)
    table.sort(axis=1)
    prefix = np.zeros((m, n + 1))
    table.cumsum(axis=1, out=prefix[:, 1:])
    col_off = np.arange(m) * (n + 1)
    ctx.table = table
    ctx.prefix = prefix
    ctx.col_off = col_off
    if full:
        ctx.col_totals = prefix[:, n]
    else:
        ctx.col_totals = prefix.take(col_off + base_sub_counts)
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
    sign: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vector form of :func:`repro.core.floc._gain` over one lane.

    Branch for branch the same ladder (property-tested against the
    scalar), collapsed to two ``np.where`` overlays: the misfit branch
    (highest priority) over the feasibility branch over the reduction
    default.  Every arithmetic expression is bit-equal to the scalar
    code's -- additions only commute, the +-1 adjustments fold to
    ``x - sign`` (``a - (-b) == a + b``), and a bool addend contributes
    exactly ``1.0``.  ``sign`` is +1.0 at additions and -1.0 at
    removals (``_State.sign``); it is derived from ``is_addition`` when
    not given.
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
    if sign is None:
        sign = np.where(is_addition, 1.0, -1.0)
    return np.where(misfit, reduction - sign, gains)


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


def occupancy_blocked(
    state: "_State", alpha: float, kind: str, c: int,
    sel: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Definition 3.1's alpha-occupancy over one lane: whether each
    toggle of one kind's lines (or of the ``sel`` window) against
    cluster ``c`` is blocked.

    A toggle is blocked when a line of the toggled cluster fails
    ``count / width >= alpha`` (the comparison of
    :func:`~repro.core.actions.toggle_occupancy_ok`).  Every cluster
    FLOC holds meets alpha or has no rows or no columns (a seed that
    never trimmed to alpha starts empty), and an empty cluster blocks
    every toggle: it stays inert until a reseed round redraws it.  Read
    from the exact integer ``counts[c]`` and the candidates' mask cells.
    """
    split = state.n_rows
    member, counts = state.member[c], state.counts[c]
    if kind == ROW:
        own, cross, mask = slice(0, split), slice(split, None), state.mask
    else:
        own, cross, mask = slice(split, None), slice(0, split), state.mask_T
    own_member = member[own]
    n = int(np.count_nonzero(own_member))
    cross_idx = member[cross].nonzero()[0]
    if not n or not cross_idx.size:
        return np.ones(own_member.size if sel is None else sel.size, dtype=bool)
    own_fits = counts[own] / cross_idx.size >= alpha
    cross_counts = counts[cross].take(cross_idx)
    cand = np.arange(own_member.size) if sel is None else sel
    if sel is not None:
        own_member, own_fits = own_member.take(sel), own_fits.take(sel)
    # The member lines' counts stay put, and an addition must fit
    # itself.  A cross line counts the toggled line's cell over n + 1
    # lines (addition) or n - 1 (removal; none left fits).  The cluster
    # meets alpha, so a line fails only for want of an addition's cell
    # (``(count + 1) / (n + 1) >= count / n``) or by losing a removal's
    # (``count / (n - 1) >= count / n``): only those lines are gathered.
    blocked = ~(own_member | own_fits)
    needs = cross_idx[~(cross_counts / (n + 1) >= alpha)]
    if needs.size:
        cells = mask[np.ix_(cand, needs)]
        blocked |= ~own_member & ~np.logical_and.reduce(cells, axis=1)
    if n > 1:
        loses = cross_idx[~((cross_counts - 1) / (n - 1) >= alpha)]
        if loses.size:
            cells = mask[np.ix_(cand, loses)]
            blocked |= own_member & np.logical_or.reduce(cells, axis=1)
    return blocked


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


class _Part:
    """Lines of a lane store that are built together -- both kinds
    (estimate lanes) or one kind (exact lanes) -- with per-cluster
    versions saying whose entries are current."""

    __slots__ = (
        "kind", "lo", "hi", "scores", "versions", "rev_seen", "ctx",
        "full", "win_end", "win_floor", "gpos", "seq", "pos",
    )

    def __init__(self, kind: Optional[str], lo: int, hi: int, k: int) -> None:
        self.kind = kind  # ROW or COL for an exact part, None for both
        self.lo, self.hi = lo, hi
        self.scores: List[Optional[LaneScores]] = [None] * k
        self.versions = np.full(k, -1, dtype=np.int64)
        #: State revision last synced against: an O(1) check that skips
        #: the per-cluster stamp compare when nothing changed.
        self.rev_seen = -1
        #: Cached ``ExactContext`` per windowed cluster and epoch.
        self.ctx: Dict[int, "ExactContext"] = {}
        #: Block windows (consult positions of this part, see
        #: ``GainEngine.begin_sweep``): a cluster's entries are valid
        #: everywhere (``full``) or from where they were built up to
        #: ``win_end``; ``win_floor`` is the smallest pending window end.
        self.full = np.zeros(k, dtype=bool)
        self.win_end = np.zeros(k, dtype=np.intp)
        self.win_floor = 0
        #: The registered sweep's positions of this part's lines, their
        #: part-relative indices in consult order, and for a windowed
        #: part the inverse of ``seq`` (else ``None``).
        self.gpos = np.zeros(0, dtype=np.intp)
        self.seq = self.gpos
        self.pos: Optional[np.ndarray] = None


class _LaneSet:
    """A ``(k, M+N)`` store of lane gains (rows first) and its parts."""

    __slots__ = ("gains", "parts", "hits")

    def __init__(self, k: int, split: int, n_lines: int, exact: bool) -> None:
        self.gains = np.full((k, n_lines), BLOCKED_GAIN)
        self.parts = (
            [_Part(ROW, 0, split, k), _Part(COL, split, n_lines, k)] if exact
            else [_Part(None, 0, n_lines, k)]
        )
        #: Sweep positions whose column maximum acts (see
        #: ``GainEngine._acts``), cached until the next build.
        self.hits: Optional[np.ndarray] = None

    def part(self, line: int) -> _Part:
        first = self.parts[0]
        return first if line < first.hi else self.parts[-1]


class GainEngine:
    """Finds and scores the actions of FLOC's Phase-2 sweeps.

    One engine serves a whole :func:`~repro.core.floc.floc` call: every
    sweep of every reseed round.  Lanes are rebuilt lazily when the
    state's per-cluster modification stamp moves past the cached
    version -- a performed action therefore costs one estimate lane
    build (fast mode) or at most two exact ones (its cluster's row and
    column lanes), while a cluster that a rollback or a reseed round
    leaves unchanged keeps its lanes.

    Lines are indexed as in :class:`~repro.core.floc._State`, rows
    first, and every store is ``(k, M+N)``.  :meth:`next_action` is the
    sweep's consult loop: from a consult position it jumps to the next
    slot whose best action is performed, so the caller makes one call
    per performed action, not one per slot.  :meth:`best_action`
    consults a single slot.
    """

    def __init__(
        self,
        state: "_State",
        constraints: Constraints,
        alpha: float,
        residue_target: Optional[float],
        gain_mode: str,
        mandatory_moves: bool = False,
    ) -> None:
        self.state = state
        self.constraints = constraints
        self.alpha = alpha
        self.residue_target = residue_target
        self.fast_mode = gain_mode == "fast"
        self.mandatory_moves = mandatory_moves
        shape = (state.k, state.n_rows, state.member.shape[1])
        self._move = _LaneSet(*shape, exact=not self.fast_mode)
        self._order = self._move if self.fast_mode else _LaneSet(*shape, exact=False)
        #: Cross-cluster checks that cannot be cached per lane; verified
        #: per consulted candidate instead.
        self._expensive = (
            constraints.max_overlap is not None
            or constraints.require_row_coverage
            or constraints.require_col_coverage
        )
        #: The sweep registered by :meth:`begin_sweep`: the line of every
        #: consult position.
        self._lines = np.zeros(0, dtype=np.intp)
        self._n_slots = 0
        #: ``_structural_bounds`` of each span of a lane build, memoised
        #: per ``(part kind, member rows, member columns)``.
        self._bounds: Dict[Tuple[Optional[str], int, int], List[Tuple[bool, bool]]] = {}

    # -- lane maintenance ----------------------------------------------
    def _line(self, kind: str, index: int) -> int:
        return index if kind == ROW else self.state.n_rows + index

    def _build(
        self,
        lanes: _LaneSet,
        part: _Part,
        c: int,
        sel: Optional[np.ndarray] = None,
        ctx: Optional["ExactContext"] = None,
    ) -> None:
        """Score ``part``'s lines (or the ``sel`` window of an exact
        part) against cluster ``c`` into ``lanes``."""
        state = self.state
        split = state.n_rows
        member = state.member[c]
        removing = member[part.lo:part.hi]
        sign = state.sign[c, part.lo:part.hi]
        spans: Sequence[Tuple[str, int, int]]
        if part.kind is None:
            scores = estimate_lane(state, c)
            spans = ((ROW, 0, split), (COL, split, member.size))
            # After ``estimate_lane`` the deviation pass is current, so
            # the sizes it recorded are read instead of recounted.
            n, m = state.sizes(c)
        else:
            if ctx is None:
                ctx = exact_context(state, part.kind, c)
            scores = exact_lane(state, part.kind, c, sel=sel, ctx=ctx)
            if sel is not None:
                removing = removing.take(sel)
                sign = sign.take(sel)
            spans = ((part.kind, 0, removing.size),)
            # The context counted both axes' members.
            n, m = (ctx.n, ctx.m) if part.kind == ROW else (ctx.m, ctx.n)
        bounds = self._bounds.get((part.kind, n, m))
        if bounds is None:
            bounds = self._bounds[part.kind, n, m] = [
                _structural_bounds(self.constraints, kind, n, m)
                for kind, _, _ in spans
            ]
        is_addition = ~removing
        gains = gain_lane(
            float(state.residues[c]),
            int(state.volumes[c]),
            scores.new_residues,
            scores.new_volumes,
            self.residue_target,
            scores.line_residues,
            is_addition,
            sign,
        )
        for (kind, lo, hi), (rb, ab) in zip(spans, bounds):
            if rb and ab:
                gains[lo:hi] = BLOCKED_GAIN
            elif rb or ab:
                gains[lo:hi][(removing if rb else is_addition)[lo:hi]] = BLOCKED_GAIN
            if self.alpha > 0.0:
                gains[lo:hi][occupancy_blocked(state, self.alpha, kind, c, sel)] = BLOCKED_GAIN
        if sel is None:
            part.scores[c] = scores
            lanes.gains[c, part.lo:part.hi] = gains
            if part.kind is not None:  # block windows are exact-only
                part.full[c] = True
                part.win_end[c] = part.hi - part.lo
        else:
            # Scatter the block into the cluster's full-size store; the
            # entries outside the window keep stale values that the
            # scan treats as unknown.
            store = part.scores[c]
            assert store is not None  # first builds are always full
            store.new_residues[sel] = scores.new_residues
            store.new_volumes[sel] = scores.new_volumes
            lanes.gains[c, part.lo + sel] = gains
        part.versions[c] = state.stamp[c]
        lanes.hits = None

    def _ensure(self, lanes: _LaneSet, part: _Part) -> None:
        if part.rev_seen == self.state.rev:
            return
        part.rev_seen = self.state.rev
        for c in (part.versions != self.state.stamp).nonzero()[0]:
            self._build(lanes, part, int(c))

    def invalidate_all(self) -> None:
        """Drop every cached lane (testing hook; normal invalidation is
        driven by the state's modification stamps)."""
        for lanes in (self._move, self._order):
            lanes.hits = None
            for part in lanes.parts:
                part.versions.fill(-1)
                part.rev_seen = -1
                part.ctx.clear()
                part.full.fill(False)
                part.win_end.fill(0)
                part.win_floor = 0

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
        split = self.state.n_rows
        self._lines = lines = np.array(
            [index if kind == ROW else split + index for kind, index in order],
            dtype=np.intp,
        )
        self._n_slots = lines.size
        self._move.hits = None
        windows = not (self.fast_mode or self._expensive)
        for part in self._move.parts:
            size = part.hi - part.lo
            part.gpos = np.flatnonzero((lines >= part.lo) & (lines < part.hi))
            part.seq = seq = lines[part.gpos] - part.lo
            part.pos = None
            if not windows or size < _BLOCK + _BLOCK // 2 or seq.size != size:
                continue
            pos = np.full(size, -1, dtype=np.intp)
            pos[seq] = np.arange(size, dtype=np.intp)
            if (pos < 0).any():  # not a permutation of every slot
                continue
            part.pos = pos
            # The new order voids every window (positions renumbered);
            # full lanes stay valid -- their entries cover any order.
            part.win_end.fill(0)
            part.win_floor = 0

    def _prepare(self, part: _Part, u: int) -> None:
        """Make ``part``'s move lanes valid at its consult position ``u``."""
        if part.pos is None:
            self._ensure(self._move, part)
        elif part.rev_seen != self.state.rev or u >= part.win_floor:
            self._resync_block(part, u)

    def _resync_block(self, part: _Part, t: int) -> None:
        """Make every cluster's lane valid at consult position ``t``.

        Stale clusters rebuild a fresh ``_BLOCK``-wide window starting
        at ``t`` (reusing the epoch's cached :class:`ExactContext` when
        only the window expired); initial builds stay full -- the first
        sweeps consult every slot.  Positions only move forward within
        a sweep, so entries behind ``t`` are never read again.
        """
        state = self.state
        assert part.kind is not None  # windows are exact-mode only
        part.rev_seen = state.rev
        seq = part.seq
        size = seq.size
        stamp = state.stamp
        floor = size + 1  # sentinel: no pending window expiry
        for c in range(state.k):
            if part.versions[c] == stamp[c]:
                if part.full[c]:
                    continue
                end = int(part.win_end[c])
                if t < end:
                    if end < floor:
                        floor = end
                    continue
            else:
                part.ctx.pop(c, None)
            if part.versions[c] == -1:
                self._build(self._move, part, c)
                continue
            ctx = part.ctx.get(c)
            if ctx is None:
                ctx = part.ctx[c] = exact_context(state, part.kind, c)
            end = min(t + _BLOCK, size)
            self._build(self._move, part, c, sel=seq[t:end], ctx=ctx)
            part.full[c] = False
            part.win_end[c] = end
            if end < floor:
                floor = end
        part.win_floor = floor

    def _unknown(self, part: _Part, t: int) -> Tuple[int, int]:
        """The first sweep position at or after ``t`` where ``part``'s
        entries are not known to be current, and its consult position
        in the part; the position is ``n_slots`` when there is none."""
        synced = part.rev_seen == self.state.rev
        if synced and part.pos is None:
            return self._n_slots, 0
        u = int(part.gpos.searchsorted(t))
        if synced:
            u = max(u, part.win_floor)
        return (int(part.gpos[u]) if u < part.gpos.size else self._n_slots), u

    # -- consult: the sweep scan and single slots -----------------------
    def next_action(self, t: int) -> Optional[Tuple[int, str, int, Choice]]:
        """The sweep's next performed action at or after position ``t``.

        Returns ``(position, kind, index, choice)`` for the first slot of
        the registered order whose best action is performed -- a gain
        above zero, or any unblocked gain under ``mandatory_moves`` --
        or ``None`` when no later slot acts.  The answer, and every lane
        build on the way, equals consulting :meth:`best_action` slot by
        slot.  The scan reads one cached ``hits`` vector over the whole
        sweep (the positions whose lane column maximum acts) with one
        ``searchsorted``.  A position whose part is stale or lies past
        its block window is *unknown*; the stops before the first
        unknown position are known, and only when none of them acts is
        that part brought up to date, where the slot-by-slot loop would
        build it -- at once when ``t`` itself is unknown, as it is
        after every performed action.  Stale entries of an unknown part
        can only add stops at or after its first unknown position, so
        they never answer.  On the cheap path the slot at ``t`` is
        tested before ``hits`` is rebuilt: it is most often the next
        stop.  On the expensive path (cross-cluster constraints) a stop
        is an upper bound that the consult-time walk confirms.
        """
        lanes = self._move
        n_slots = self._n_slots
        hit: Optional[Tuple[int, Choice]] = None
        while True:
            # Stops before the first unknown position are known.
            bound = n_slots
            stale: Optional[Tuple[_Part, int]] = None
            if self.fast_mode:
                # One estimate part, with no unknown position once
                # synced: sync it unless the sweep is over.
                if t < n_slots:
                    self._ensure(lanes, lanes.parts[0])
            else:
                for part in lanes.parts:
                    q, u = self._unknown(part, t)
                    if q < bound:
                        bound, stale = q, (part, u)
                if stale is not None and bound == t:
                    # ``t`` itself is unknown: build before reading gains.
                    self._prepare(*stale)
                    continue
            hits = lanes.hits
            if hits is None:
                if not self._expensive and t < bound:
                    # The slot at ``t`` is known and most often acts
                    # (``_acts`` of one gain on the cheap path).
                    choice = self._cheap_choice(int(self._lines[t]))
                    gain = choice[3]
                    if (
                        gain != BLOCKED_GAIN if self.mandatory_moves
                        else not gain <= 0.0
                    ):
                        hit = t, choice
                        break
                hits = lanes.hits = self._acts(
                    np.maximum.reduce(lanes.gains, axis=0).take(self._lines)
                ).nonzero()[0]
            lo, hi = hits.searchsorted((t, bound))
            for stop in hits[lo:hi]:
                line = int(self._lines[stop])
                if not self._expensive:
                    hit = int(stop), self._cheap_choice(line)
                    break
                choice = self._walk(line)
                if choice is not None and (
                    self.mandatory_moves or not choice[3] <= 0.0
                ):
                    hit = int(stop), choice
                    break
            if hit is not None or stale is None:
                break
            t = bound
        if hit is None:
            return None
        position, choice = hit
        kind, index = self._slot(int(self._lines[position]))
        return position, kind, index, choice

    def _slot(self, line: int) -> Tuple[str, int]:
        split = self.state.n_rows
        return (ROW, line) if line < split else (COL, line - split)

    def _acts(self, gains: np.ndarray) -> np.ndarray:
        """Mask of the best gains whose slot the scan stops at: a
        performed action on the cheap paths, an upper bound the walk
        confirms on the expensive one."""
        return (
            np.not_equal(gains, BLOCKED_GAIN) if self.mandatory_moves
            else np.logical_not(np.less_equal(gains, 0.0))
        )

    def best_action(self, kind: str, index: int) -> Optional[Choice]:
        """Highest-gain unblocked action of one slot, or ``None``.

        Negative gains are eligible (whether they are performed is
        :meth:`next_action`'s ``mandatory_moves`` rule), ties go to the
        lowest cluster index.  On a block-windowed kind, consults must
        follow the registered order.
        """
        line = self._line(kind, index)
        part = self._move.part(line)
        pos = part.pos
        self._prepare(part, 0 if pos is None else int(pos[line - part.lo]))
        if not self._expensive:
            choice = self._cheap_choice(line)
            return None if choice[3] == BLOCKED_GAIN else choice
        return self._walk(line)

    def _choice(self, c: int, line: int, gain: float) -> Choice:
        part = self._move.part(line)
        scores = part.scores[c]
        assert scores is not None
        i = line - part.lo
        return (
            c,
            float(scores.new_residues[i]),
            int(scores.new_volumes[i]),
            gain,
        )

    def _cheap_choice(self, line: int) -> Choice:
        """The slot's top lane entry (lowest cluster index on ties)."""
        column = self._move.gains[:, line]
        c = int(column.argmax())
        return self._choice(c, line, float(column[c]))

    def _walk(self, line: int) -> Optional[Choice]:
        """Candidates of one slot in descending-gain order, verified
        against the consult-time constraints: the first unblocked one,
        or ``None``."""
        column = self._move.gains[:, line]
        kind, index = self._slot(line)
        state = self.state
        for c in np.argsort(-column, kind="stable"):
            gain = float(column[c])
            if gain == BLOCKED_GAIN:
                break
            if self.constraints.blocks(
                state.row_member[c], state.col_member[c], kind, index,
                bool(state.member[c, line]), int(c),
                state.row_member, state.col_member,
            ):
                continue
            return self._choice(int(c), line, gain)
        return None

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
        lanes = self._order
        self._ensure(lanes, lanes.parts[0])
        gains = lanes.gains
        state = self.state
        split = state.n_rows
        constraints = self.constraints
        if self._expensive:
            gains = gains.copy()
            for c in range(state.k):
                for kind, lane in ((ROW, gains[c, :split]), (COL, gains[c, split:])):
                    member = state.row_member[c] if kind == ROW else state.col_member[c]
                    if constraints.max_overlap is not None:
                        lane[_overlap_blocked(state, constraints, kind, c)] = BLOCKED_GAIN
                    if kind == ROW and constraints.require_row_coverage:
                        cover = state.row_member.sum(axis=0)
                        lane[member & (cover <= 1)] = BLOCKED_GAIN
                    if kind == COL and constraints.require_col_coverage:
                        cover = state.col_member.sum(axis=0)
                        lane[member & (cover <= 1)] = BLOCKED_GAIN
        best = gains.max(axis=0).tolist()
        return [best[index if kind == ROW else split + index] for kind, index in slots]
