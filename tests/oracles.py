"""Scalar reference implementations the gain-engine tests check against.

The engine (``repro.core.gain_engine``) scores whole lanes at once; the
functions here score one candidate toggle at a time with plain,
independent arithmetic, so a lane entry can be compared with the value
a per-candidate evaluation gives.  The exact after-toggle oracle is
``repro.core.actions.evaluate_toggle`` (a full submatrix rescan); this
module holds the frozen-bases one (per candidate, and per kind as the
engine once scored it), the toggle-by-toggle alpha-occupancy rule of its
lane masks, the slot-by-slot reference of the engine's sweep
scan, the masked residue and sorted-key greedy order the production code
replaced, and the restore-and-replay best-prefix step.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.actions import BLOCKED_GAIN, ROW, toggle_occupancy_ok
from repro.core.gain_engine import LaneScores, _structural_bounds, gain_lane


def frozen_bases_parts(state, kind: str, index: int, c: int) -> Tuple[float, int, float]:
    """``(new_residue, new_volume, line_residue)`` of one candidate toggle.

    Freezes cluster ``c``'s row/column bases and folds the toggled
    line's residue contribution in (addition) or out (removal) of the
    volume-weighted mean -- the per-candidate definition of
    ``estimate_lane``.  ``line_residue`` is the line's mean |residual|
    against the frozen bases (0.0 for a line with no specified entries
    on the cluster, or one whose removal empties it).
    """
    volume = int(state.volumes[c])
    residue = float(state.residues[c])
    if kind == ROW:
        member_axis = state.col_member[c]
        line_values = state.values[index, member_axis]
        base_sums = state.col_sums[c, member_axis]
        base_counts = state.col_counts[c, member_axis]
        line_sum = float(state.row_sums[c, index])
        line_count = int(state.row_counts[c, index])
        removing = bool(state.row_member[c, index])
    else:
        member_axis = state.row_member[c]
        line_values = state.values[member_axis, index]
        base_sums = state.row_sums[c, member_axis]
        base_counts = state.row_counts[c, member_axis]
        line_sum = float(state.col_sums[c, index])
        line_count = int(state.col_counts[c, index])
        removing = bool(state.col_member[c, index])

    if line_count == 0:
        # Toggling a fully-missing line never changes the residue.
        return residue, volume, 0.0
    if removing and volume - line_count <= 0:
        return 0.0, 0, 0.0

    line_mask = ~np.isnan(line_values)
    line_base = line_sum / line_count
    cross_base = np.where(
        base_counts > 0, base_sums / np.maximum(base_counts, 1), 0.0
    )
    total = float(base_sums.sum())
    count = int(base_counts.sum())
    grand = total / count if count else 0.0
    deviations = np.abs(line_values - line_base - cross_base + grand)
    line_residue = float(deviations[line_mask].sum()) / line_count
    if removing:
        new_volume = volume - line_count
        new_residue = max(
            (volume * residue - line_count * line_residue) / new_volume, 0.0
        )
    else:
        new_volume = volume + line_count
        new_residue = (volume * residue + line_count * line_residue) / new_volume
    return new_residue, new_volume, line_residue


def per_kind_estimate_lane(state, kind: str, c: int) -> LaneScores:
    """The estimate lane of one kind, scored one kind at a time: the
    kind's slice of ``line_deviations`` folded with that kind's counts,
    each overlay written out as a full select -- the reference that the
    all-lines ``estimate_lane`` must match bit for bit when its halves
    are concatenated, rows first."""
    n_rows = state.row_member.shape[1]
    if kind == ROW:
        deviations = state.line_deviations(c)[:n_rows]
        line_counts = state.row_counts[c]
        removing = state.row_member[c]
    else:
        deviations = state.line_deviations(c)[n_rows:]
        line_counts = state.col_counts[c]
        removing = state.col_member[c]
    line_counts_f = line_counts.astype(np.float64)
    volume = float(state.volumes[c])
    residue = state.residues[c]
    line_residues = deviations / np.maximum(line_counts_f, 1.0)
    signed_counts = np.where(removing, -line_counts_f, line_counts_f)
    new_volumes = volume + signed_counts
    new_residues = np.maximum(
        (volume * residue + signed_counts * line_residues)
        / np.maximum(new_volumes, 1.0),
        0.0,
    )
    untouched = line_counts == 0
    new_volumes = np.where(untouched, volume, new_volumes)
    new_residues = np.where(untouched, residue, new_residues)
    line_residues = np.where(untouched, 0.0, line_residues)
    emptied = removing & ~untouched & (new_volumes <= 0)
    new_volumes = np.where(emptied, 0.0, new_volumes)
    new_residues = np.where(emptied, 0.0, new_residues)
    line_residues = np.where(emptied, 0.0, line_residues)
    return LaneScores(new_residues, new_volumes, line_residues)


def occupancy_blocked_reference(state, alpha: float, kind: str, index: int, c: int) -> bool:
    """Whether alpha-occupancy blocks one toggle against cluster ``c``:
    the toggled cluster fails ``toggle_occupancy_ok`` (Definition 3.1),
    rescanned from the mask.  A cluster without rows or columns blocks
    every toggle."""
    row_member, col_member = state.row_member[c], state.col_member[c]
    if not row_member.any() or not col_member.any():
        return True
    return not toggle_occupancy_ok(state.mask, row_member, col_member, kind, index, alpha)


def per_kind_lane_gains(state, constraints, alpha, residue_target, kind, c):
    """Gains of one kind's fast-mode move lane, scored one kind at a
    time from :func:`per_kind_estimate_lane`: the gain ladder, then that
    kind's structural bounds and, toggle by toggle,
    :func:`occupancy_blocked_reference`."""
    lane = per_kind_estimate_lane(state, kind, c)
    member = state.row_member[c] if kind == ROW else state.col_member[c]
    n = int(state.row_member[c].sum())
    m = int(state.col_member[c].sum())
    gains = gain_lane(
        float(state.residues[c]), int(state.volumes[c]), lane.new_residues,
        lane.new_volumes, residue_target, lane.line_residues, ~member,
    )
    removal_blocked, addition_blocked = _structural_bounds(constraints, kind, n, m)
    blocked = np.where(member, removal_blocked, addition_blocked)
    if alpha > 0.0:
        blocked |= [
            occupancy_blocked_reference(state, alpha, kind, index, c)
            for index in range(member.size)
        ]
    return np.where(blocked, BLOCKED_GAIN, gains)


def sequential_next_action(
    engine, order: Sequence[Tuple[str, int]], t: int, invalidate: bool = True
) -> Optional[tuple]:
    """Slot-by-slot reference of ``GainEngine.next_action``.

    Consults every slot of ``order`` from position ``t`` on with
    ``best_action`` -- after dropping every cached lane, unless
    ``invalidate`` is false -- and returns ``(position, kind, index,
    choice)`` for the first one whose action the sweep performs (a
    positive gain, or any unblocked gain under ``mandatory_moves``), or
    ``None``.
    """
    for position in range(t, len(order)):
        kind, index = order[position]
        if invalidate:
            engine.invalidate_all()
        choice = engine.best_action(kind, index)
        if choice is None:
            continue
        if not engine.mandatory_moves and choice[3] <= 0.0:
            continue
        return position, kind, index, choice
    return None


def masked_line_deviations(state, c: int) -> np.ndarray:
    """``_State.line_deviations(c)`` by the masked block formula on every
    input: the guarded bases (an empty line reads 0.0) and each axis's
    gathered block times its mask, summed per line -- the form the
    state's pass shortens on fully specified matrices."""
    split = state.n_rows
    member = state.member[c]
    rows, cols = np.flatnonzero(member[:split]), np.flatnonzero(member[split:])
    volume = int(state.volumes[c])
    sums = state.sums[c]
    base = np.where(
        state.counts[c] > 0, sums / np.maximum(state.counts_f[c], 1.0), 0.0
    )

    def block(filled, mask, line_base, cross_base, cross_sums, members):
        # ``take`` gathers C-contiguous blocks (``filled[:, members]``
        # need not be), so each line sums in the production order.
        grand = float(cross_sums[members].sum()) / volume if volume else 0.0
        residual = (
            filled.take(members, axis=1) - line_base[:, None]
            - cross_base[members] + grand
        )
        return (np.abs(residual) * mask.take(members, axis=1)).sum(axis=1)

    return np.concatenate((
        block(state.filled, state.mask, base[:split], base[split:],
              sums[split:], cols),
        block(state.filled_T, state.mask_T, base[split:], base[:split],
              sums[:split], rows),
    ))


def masked_mean_abs_residue(sub: np.ndarray, sub_mask: np.ndarray) -> float:
    """Mean |r_ij| of a gathered submatrix (``NaN`` at unspecified cells)
    given its specified-entry mask -- the reference of
    ``repro.core.floc._mean_abs_residue``."""
    volume = int(sub_mask.sum())
    if volume == 0:
        return 0.0
    filled = np.where(sub_mask, sub, 0.0)
    row_counts = sub_mask.sum(axis=1)
    col_counts = sub_mask.sum(axis=0)
    row_base = np.where(
        row_counts > 0, filled.sum(axis=1) / np.maximum(row_counts, 1), 0.0
    )
    col_base = np.where(
        col_counts > 0, filled.sum(axis=0) / np.maximum(col_counts, 1), 0.0
    )
    grand = filled.sum() / volume
    raw = sub - row_base[:, None] - col_base[None, :] + grand
    return float(np.abs(np.where(sub_mask, raw, 0.0)).sum() / volume)


def sorted_key_greedy_order(
    slots: Sequence[Tuple[str, int]], gains: Sequence[float]
) -> List[Tuple[str, int]]:
    """Descending-gain order by a per-slot Python sort key, ties in slot
    order, non-finite gains mapped to -1e30 -- the reference of
    ``repro.core.ordering.greedy_order``."""

    def finite(gain: float) -> float:
        return gain if np.isfinite(gain) else float("-1e30")

    indexed = sorted(range(len(slots)), key=lambda i: (-finite(gains[i]), i))
    return [slots[i] for i in indexed]


def replay_best_prefix(state, iteration_start, performed, n_best, fast_mode):
    """Restore-and-replay reference of ``repro.core.floc._adopt_best_prefix``:
    always roll back to the sweep start, replay the best prefix and fully
    refresh every cluster it touched, whatever the prefix's length."""
    del fast_mode  # the reference takes the same path in both modes
    state.restore(iteration_start)
    prefix = performed[:n_best]
    for kind, index, c in prefix:
        state.toggle(kind, index, c)
    for c in {c for _, _, c in prefix}:
        state.refresh_cluster(c)
