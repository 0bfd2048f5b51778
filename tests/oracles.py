"""Scalar reference implementations the gain-engine tests check against.

The engine (``repro.core.gain_engine``) scores whole lanes at once; the
functions here score one candidate toggle at a time with plain,
independent arithmetic, so a lane entry can be compared with the value
a per-candidate evaluation gives.  The exact after-toggle oracle is
``repro.core.actions.evaluate_toggle`` (a full submatrix rescan); this
module holds the frozen-bases one, the slot-by-slot reference of the
engine's sweep scan, the masked residue and sorted-key greedy order the
production code replaced, and the restore-and-replay best-prefix step.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.actions import ROW


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
