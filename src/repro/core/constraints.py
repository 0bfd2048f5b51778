"""User constraints on delta-clusterings (Sections 3 and 4.3 of the paper).

The paper lists three optional constraint families:

``Cons_o`` (overlap)
    The overlap between any pair of clusters may not exceed a threshold
    (e.g. fully non-overlapping clusters with a threshold of 0).
``Cons_c`` (coverage)
    Every object (and/or attribute) must remain covered by some cluster --
    e.g. every customer in a collaborative-filtering deployment.
``Cons_v`` (volume)
    Cluster volumes must stay inside given bounds, e.g. to guarantee
    statistical significance.

FLOC enforces constraints by *blocking* violating actions during an
iteration ("the gain is assigned to -inf", Section 4.3) and by requiring
Phase-1 seeds to comply.  :class:`Constraints` bundles the thresholds;
:meth:`Constraints.blocks` is the hot-path check FLOC calls per candidate
action.

Structural minimums (``min_rows``/``min_cols``, default 2x2) are part of
the same mechanism: a cluster with fewer than two rows or columns has
residue identically zero, so without the guard the average-residue
objective would collapse every cluster to a sliver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .actions import COL, ROW

__all__ = ["Constraints"]


@dataclass(frozen=True)
class Constraints:
    """Thresholds for Cons_o / Cons_c / Cons_v plus structural minimums.

    Attributes
    ----------
    max_overlap:
        Maximum allowed pairwise overlap fraction (shared cells divided by
        the smaller cluster's cell count); ``None`` disables Cons_o.
    require_row_coverage / require_col_coverage:
        When ``True``, an action may not leave a row (column) uncovered by
        every cluster (Cons_c).  Only rows/columns covered at seeding time
        are protected -- FLOC cannot conjure coverage that never existed.
    min_volume / max_volume:
        Bounds on the number of *cells* (|I| x |J|) of each cluster
        (Cons_v); ``None`` disables a bound.  ``min_volume`` is only
        enforced against shrinking actions so growth toward the bound
        stays possible.  Beware: enforcing a volume *floor* during the
        search forbids the shrink-to-core cleanup FLOC relies on, so a
        seed that starts as junk stays junk-at-the-floor; prefer
        filtering small clusters from the *result* (e.g. via
        :func:`repro.core.mining.mine_delta_clusters`'s ``min_volume``)
        unless the floor genuinely must hold mid-search.
    min_rows / min_cols:
        Structural floor; actions shrinking a cluster below it are blocked.
    """

    max_overlap: Optional[float] = None
    require_row_coverage: bool = False
    require_col_coverage: bool = False
    min_volume: Optional[int] = None
    max_volume: Optional[int] = None
    min_rows: int = 2
    min_cols: int = 2

    def __post_init__(self) -> None:
        if self.max_overlap is not None and not 0.0 <= self.max_overlap <= 1.0:
            raise ValueError(
                f"max_overlap must be in [0, 1], got {self.max_overlap}"
            )
        if self.min_volume is not None and self.min_volume < 0:
            raise ValueError(f"min_volume must be >= 0, got {self.min_volume}")
        if self.max_volume is not None and self.max_volume <= 0:
            raise ValueError(f"max_volume must be > 0, got {self.max_volume}")
        if (
            self.min_volume is not None
            and self.max_volume is not None
            and self.min_volume > self.max_volume
        ):
            raise ValueError(
                f"min_volume {self.min_volume} > max_volume {self.max_volume}"
            )
        if self.min_rows < 1 or self.min_cols < 1:
            raise ValueError("min_rows and min_cols must be at least 1")
        if self.max_volume is not None and self.max_volume < self.min_rows * self.min_cols:
            raise ValueError(
                f"max_volume {self.max_volume} < min_rows * min_cols "
                f"= {self.min_rows * self.min_cols}: no seed can pass"
            )

    # ------------------------------------------------------------------
    def blocks(
        self,
        row_member: np.ndarray,
        col_member: np.ndarray,
        kind: str,
        index: int,
        is_removal: bool,
        cluster: int,
        all_row_members: np.ndarray,
        all_col_members: np.ndarray,
    ) -> bool:
        """Return ``True`` when the action must be blocked.

        Parameters mirror FLOC's internal state: ``row_member`` /
        ``col_member`` are the acted cluster's membership vectors *before*
        the toggle, ``all_row_members`` / ``all_col_members`` are the
        ``k x M`` / ``k x N`` membership matrices of the whole clustering.
        """
        n_member_rows = int(row_member.sum())
        n_member_cols = int(col_member.sum())
        if kind == ROW:
            new_rows = n_member_rows + (-1 if is_removal else 1)
            new_cols = n_member_cols
        else:
            new_rows = n_member_rows
            new_cols = n_member_cols + (-1 if is_removal else 1)

        # Structural floor.
        if is_removal and (new_rows < self.min_rows or new_cols < self.min_cols):
            return True

        # Cons_v: cell-count bounds.
        new_cells = new_rows * new_cols
        if self.max_volume is not None and not is_removal:
            if new_cells > self.max_volume:
                return True
        if self.min_volume is not None and is_removal:
            if new_cells < self.min_volume:
                return True

        # Cons_c: coverage.  Removing x from its only cluster is blocked.
        if is_removal:
            if kind == ROW and self.require_row_coverage:
                if int(all_row_members[:, index].sum()) <= 1:
                    return True
            if kind == COL and self.require_col_coverage:
                if int(all_col_members[:, index].sum()) <= 1:
                    return True

        # Cons_o: pairwise overlap cap.  Additions can raise the shared
        # block; removals can raise the *fraction* by shrinking the
        # smaller cluster while the shared block stays, so both are
        # checked.  Only worsening moves are blocked -- an already
        # over-the-cap pair (e.g. from a fresh reseed) may keep moving as
        # long as it does not get worse, so it can heal.
        if self.max_overlap is not None:
            if self._overlap_worsens(
                row_member, col_member, kind, index, is_removal, cluster,
                all_row_members, all_col_members, new_cells,
            ):
                return True
        return False

    def _overlap_worsens(
        self,
        row_member: np.ndarray,
        col_member: np.ndarray,
        kind: str,
        index: int,
        is_removal: bool,
        cluster: int,
        all_row_members: np.ndarray,
        all_col_members: np.ndarray,
        new_cells: int,
    ) -> bool:
        """Would the toggle push some pairwise overlap past the cap AND
        beyond its current value?"""
        k = all_row_members.shape[0]
        old_cells = int(row_member.sum()) * int(col_member.sum())
        delta = -1 if is_removal else 1
        for other in range(k):
            if other == cluster:
                continue
            other_rows = all_row_members[other]
            other_cols = all_col_members[other]
            shared_rows = int((row_member & other_rows).sum())
            shared_cols = int((col_member & other_cols).sum())
            old_shared = shared_rows * shared_cols
            if kind == ROW and other_rows[index]:
                shared_rows += delta
            elif kind == COL and other_cols[index]:
                shared_cols += delta
            new_shared = shared_rows * shared_cols
            if new_shared == 0:
                continue
            other_cells = int(other_rows.sum()) * int(other_cols.sum())
            new_smaller = min(new_cells, other_cells)
            if new_smaller == 0:
                continue
            new_fraction = new_shared / new_smaller
            if new_fraction <= self.max_overlap:
                continue
            old_smaller = min(old_cells, other_cells)
            old_fraction = (
                old_shared / old_smaller if old_smaller else 0.0
            )
            if new_fraction > old_fraction + 1e-12:
                return True
        return False

    # ------------------------------------------------------------------
    def seed_ok(self, row_member: np.ndarray, col_member: np.ndarray) -> bool:
        """Cheap per-seed validity used when generating Phase-1 clusters.

        Initial clusters "are not required [to] have low residue"
        (Section 4.3, footnote) but must respect structural and volume
        bounds.
        """
        n_rows = int(row_member.sum())
        n_cols = int(col_member.sum())
        if n_rows < self.min_rows or n_cols < self.min_cols:
            return False
        cells = n_rows * n_cols
        if self.max_volume is not None and cells > self.max_volume:
            return False
        return True
