"""The delta-cluster model object (Definitions 3.1-3.5 of the paper).

A :class:`DeltaCluster` is an immutable pair ``(I, J)`` of row indices and
column indices of a :class:`~repro.core.matrix.DataMatrix`.  Its quality
statistics (volume, residue, occupancy, diameter) are computed on demand
against a matrix -- the cluster itself stores no values, which lets one
cluster description be evaluated against transformed variants of the same
matrix (e.g. before/after a log transform).
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from .matrix import DataMatrix
from .residue import mean_abs_residue, residue_matrix

__all__ = ["DeltaCluster"]


class DeltaCluster:
    """An immutable delta-cluster ``(I, J)``.

    Parameters
    ----------
    rows:
        Iterable of object (row) indices -- the set ``I``.
    cols:
        Iterable of attribute (column) indices -- the set ``J``.

    Duplicate indices are collapsed; order is normalized to ascending so
    equal clusters compare and hash equal.
    """

    __slots__ = ("_rows", "_cols")

    def __init__(self, rows: Iterable[int], cols: Iterable[int]) -> None:
        # Bounds are validated lazily against whichever matrix the cluster
        # is evaluated on; here we only require non-negative integers.
        self._rows = tuple(sorted({int(i) for i in rows}))
        self._cols = tuple(sorted({int(j) for j in cols}))
        if self._rows and self._rows[0] < 0:
            raise IndexError(f"negative row index: {self._rows[0]}")
        if self._cols and self._cols[0] < 0:
            raise IndexError(f"negative column index: {self._cols[0]}")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def rows(self) -> Tuple[int, ...]:
        """The object index set ``I`` (sorted, duplicate-free)."""
        return self._rows

    @property
    def cols(self) -> Tuple[int, ...]:
        """The attribute index set ``J`` (sorted, duplicate-free)."""
        return self._cols

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    @property
    def n_cols(self) -> int:
        return len(self._cols)

    @property
    def is_empty(self) -> bool:
        return not self._rows or not self._cols

    def row_set(self) -> frozenset:
        return frozenset(self._rows)

    def col_set(self) -> frozenset:
        return frozenset(self._cols)

    # ------------------------------------------------------------------
    # Statistics against a matrix
    # ------------------------------------------------------------------
    def _check(self, matrix: DataMatrix) -> None:
        if self._rows and self._rows[-1] >= matrix.n_rows:
            raise IndexError(
                f"row index {self._rows[-1]} out of range for matrix "
                f"with {matrix.n_rows} rows"
            )
        if self._cols and self._cols[-1] >= matrix.n_cols:
            raise IndexError(
                f"column index {self._cols[-1]} out of range for matrix "
                f"with {matrix.n_cols} columns"
            )

    def submatrix(self, matrix: DataMatrix) -> np.ndarray:
        """The submatrix ``D[I x J]`` (``NaN`` for missing entries)."""
        self._check(matrix)
        if self.is_empty:
            return np.empty((self.n_rows, self.n_cols))
        return matrix.submatrix(self._rows, self._cols)

    def volume(self, matrix: DataMatrix) -> int:
        """Number of specified entries in the cluster (Definition 3.2)."""
        self._check(matrix)
        if self.is_empty:
            return 0
        sub_mask = matrix.mask[np.ix_(self._rows, self._cols)]
        return int(sub_mask.sum())

    def residue(self, matrix: DataMatrix) -> float:
        """Mean absolute residue of the cluster (Definition 3.5)."""
        if self.is_empty:
            return 0.0
        return mean_abs_residue(self.submatrix(matrix))

    def residues(self, matrix: DataMatrix) -> np.ndarray:
        """Per-entry residues of the cluster submatrix (Definition 3.4)."""
        return residue_matrix(self.submatrix(matrix))

    def occupancy_ok(self, matrix: DataMatrix, alpha: float) -> bool:
        """Check the alpha-occupancy condition of Definition 3.1.

        Every row must be specified on at least ``alpha`` of the cluster's
        columns and every column on at least ``alpha`` of the cluster's
        rows.  An empty cluster vacuously satisfies any threshold.
        """
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if self.is_empty:
            return True
        row_frac = matrix.row_occupancy(self._rows, self._cols)
        col_frac = matrix.col_occupancy(self._rows, self._cols)
        return bool((row_frac >= alpha).all() and (col_frac >= alpha).all())

    def diameter(self, matrix: DataMatrix) -> float:
        """Diameter of the minimum bounding box of the cluster's points.

        Each object restricted to the cluster's attributes is a point in
        ``|J|``-dimensional space; the diameter is the length of the
        diagonal of the axis-aligned bounding box of these points
        (Section 6.1.1, Table 1).  Missing coordinates are ignored per
        dimension; a dimension with fewer than two specified values
        contributes zero extent.
        """
        if self.is_empty:
            return 0.0
        sub = self.submatrix(matrix)
        mask = ~np.isnan(sub)
        lo = np.where(mask, sub, np.inf).min(axis=0)
        hi = np.where(mask, sub, -np.inf).max(axis=0)
        extent = np.where(mask.sum(axis=0) >= 2, hi - lo, 0.0)
        return float(np.sqrt(np.square(extent).sum()))

    # ------------------------------------------------------------------
    # Relations between clusters
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        """Number of matrix cells covered (ignoring missing-ness)."""
        return self.n_rows * self.n_cols

    def overlap_entries(self, other: "DeltaCluster") -> int:
        """Number of matrix cells covered by both clusters."""
        shared_rows = len(self.row_set() & other.row_set())
        shared_cols = len(self.col_set() & other.col_set())
        return shared_rows * shared_cols

    def overlap_fraction(self, other: "DeltaCluster") -> float:
        """Shared cells divided by the smaller cluster's cell count.

        This is the quantity bounded by the Cons_o constraint; 0.0 when
        either cluster is empty.
        """
        smaller = min(self.entry_count(), other.entry_count())
        if smaller == 0:
            return 0.0
        return self.overlap_entries(other) / smaller

    def contains(self, row: int, col: int) -> bool:
        return row in self.row_set() and col in self.col_set()

    # ------------------------------------------------------------------
    # Dunders
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeltaCluster):
            return NotImplemented
        return self._rows == other._rows and self._cols == other._cols

    def __hash__(self) -> int:
        return hash((self._rows, self._cols))

    def __repr__(self) -> str:
        return f"DeltaCluster(rows={self.n_rows}, cols={self.n_cols})"
