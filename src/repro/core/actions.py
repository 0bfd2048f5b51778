"""Actions and gains: the moves FLOC performs (Section 4.1 of the paper).

An *action* ``Action(x, c)`` toggles the membership of row (or column) ``x``
with respect to cluster ``c``: if ``x`` is in ``c`` the action removes it,
otherwise it adds it.  The *gain* of an action is the reduction of ``c``'s
residue it causes -- ``gain = r(c) - r(c after the action)`` -- so positive
gains improve the cluster and negative gains degrade it (the paper performs
negative-gain best actions too, relying on per-action snapshots to recover).

This module provides the action record plus the *exact* evaluation path:
re-computing the candidate submatrix residue from scratch, which is the
O(n*m) approach the paper itself uses (Section 4.1).  The O(m) approximate
path lives in :mod:`repro.core.floc` next to the caches it needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .residue import mean_abs_residue

__all__ = ["ROW", "COL", "Action", "evaluate_toggle", "toggle_occupancy_ok"]

ROW = "row"
COL = "col"

# Gain assigned to blocked actions ("the gain is assigned to -inf",
# Section 4.3).
BLOCKED_GAIN = float("-inf")


@dataclass(frozen=True)
class Action:
    """A membership toggle of one row/column with respect to one cluster.

    Attributes
    ----------
    kind:
        ``"row"`` or ``"col"``.
    index:
        The row or column index being toggled.
    cluster:
        Which of the ``k`` clusters the toggle applies to.
    is_removal:
        ``True`` if the row/column is currently a member (so the action
        removes it), ``False`` if the action adds it.
    gain:
        Residue reduction the action achieves; ``-inf`` when blocked.
    """

    kind: str
    index: int
    cluster: int
    is_removal: bool
    gain: float

    def __post_init__(self) -> None:
        if self.kind not in (ROW, COL):
            raise ValueError(f"kind must be 'row' or 'col', got {self.kind!r}")

    @property
    def is_blocked(self) -> bool:
        return self.gain == BLOCKED_GAIN


def _toggled(member: np.ndarray, index: int) -> np.ndarray:
    """Return a copy of the boolean membership vector with one bit flipped."""
    out = member.copy()
    out[index] = ~out[index]
    return out


def evaluate_toggle(
    values: np.ndarray,
    row_member: np.ndarray,
    col_member: np.ndarray,
    kind: str,
    index: int,
) -> Tuple[float, int]:
    """Exactly evaluate the cluster after toggling one row/column.

    Parameters
    ----------
    values:
        Full data matrix (``NaN`` = missing).
    row_member, col_member:
        Boolean membership vectors of the cluster being modified.
    kind, index:
        Which row or column to toggle.

    Returns
    -------
    (new_residue, new_volume):
        Mean absolute residue and specified-entry count of the candidate
        cluster.  An empty candidate has residue 0 and volume 0.
    """
    if kind == ROW:
        rows = np.flatnonzero(_toggled(row_member, index))
        cols = np.flatnonzero(col_member)
    elif kind == COL:
        rows = np.flatnonzero(row_member)
        cols = np.flatnonzero(_toggled(col_member, index))
    else:
        raise ValueError(f"kind must be 'row' or 'col', got {kind!r}")
    if rows.size == 0 or cols.size == 0:
        return 0.0, 0
    sub = values[np.ix_(rows, cols)]
    volume = int((~np.isnan(sub)).sum())
    return mean_abs_residue(sub), volume


def toggle_occupancy_ok(
    mask: np.ndarray,
    row_member: np.ndarray,
    col_member: np.ndarray,
    kind: str,
    index: int,
    alpha: float,
) -> bool:
    """Check Definition 3.1's alpha-occupancy for the toggled cluster.

    ``mask`` is the full specified-entry boolean matrix.  Returns ``True``
    when every row of the candidate cluster is specified on at least
    ``alpha`` of its columns and vice versa.  ``alpha == 0`` always passes
    (the cheap common case is short-circuited).
    """
    if alpha <= 0.0:
        return True
    if kind == ROW:
        rows = np.flatnonzero(_toggled(row_member, index))
        cols = np.flatnonzero(col_member)
    else:
        rows = np.flatnonzero(row_member)
        cols = np.flatnonzero(_toggled(col_member, index))
    if rows.size == 0 or cols.size == 0:
        return True
    sub_mask = mask[np.ix_(rows, cols)]
    row_frac = sub_mask.sum(axis=1) / cols.size
    col_frac = sub_mask.sum(axis=0) / rows.size
    return bool((row_frac >= alpha).all() and (col_frac >= alpha).all())
