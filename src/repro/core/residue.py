"""Bases and residues: the quality measure of the delta-cluster model.

Implements Definitions 3.3-3.5 of the paper.  For a cluster submatrix the
*base* of an object is its mean over the specified entries of the cluster's
attributes, the base of an attribute is the symmetric column mean, and the
cluster base is the grand mean.  The *residue* of a specified entry is

    r_ij = d_ij - d_iJ - d_Ij + d_IJ

and the residue of the cluster is the arithmetic mean of ``|r_ij|`` over
specified entries (the paper uses the arithmetic mean; the squared mean used
by Cheng & Church biclustering is also provided for the baseline).

All functions take a raw ``float64`` array with ``NaN`` marking missing
entries.  They are written count-aware (no ``nanmean`` warnings, no NaN
poisoning) because cluster submatrices routinely contain fully-missing rows
or columns while FLOC explores.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "SubmatrixBases",
    "compute_bases",
    "residue_matrix",
    "mean_abs_residue",
    "mean_squared_residue",
    "submatrix_residue",
    "row_residues",
    "col_residues",
]


class SubmatrixBases(NamedTuple):
    """Row, column and grand means of a cluster submatrix.

    Attributes
    ----------
    row:
        Object bases ``d_iJ``, one per submatrix row (0.0 for rows with no
        specified entry).
    col:
        Attribute bases ``d_Ij``, one per submatrix column.
    grand:
        Cluster base ``d_IJ``.
    row_counts, col_counts:
        Number of specified entries per row / column.
    volume:
        Total number of specified entries (Definition 3.2).
    """

    row: np.ndarray
    col: np.ndarray
    grand: float
    row_counts: np.ndarray
    col_counts: np.ndarray
    volume: int


def compute_bases(sub: np.ndarray) -> SubmatrixBases:
    """Compute all bases of a submatrix in one pass (Definition 3.3)."""
    mask = ~np.isnan(sub)
    filled = np.where(mask, sub, 0.0)
    row_counts = mask.sum(axis=1)
    col_counts = mask.sum(axis=0)
    volume = int(row_counts.sum())
    row_sums = filled.sum(axis=1)
    col_sums = filled.sum(axis=0)
    with np.errstate(invalid="ignore"):
        row_base = np.where(row_counts > 0, row_sums / np.maximum(row_counts, 1), 0.0)
        col_base = np.where(col_counts > 0, col_sums / np.maximum(col_counts, 1), 0.0)
    grand = float(row_sums.sum() / volume) if volume else 0.0
    return SubmatrixBases(row_base, col_base, grand, row_counts, col_counts, volume)


def residue_matrix(sub: np.ndarray) -> np.ndarray:
    """Per-entry residues of a submatrix (Definition 3.4).

    Unspecified entries get residue 0, exactly as the definition requires.
    """
    bases = compute_bases(sub)
    mask = ~np.isnan(sub)
    raw = sub - bases.row[:, None] - bases.col[None, :] + bases.grand
    return np.where(mask, raw, 0.0)


def mean_abs_residue(sub: np.ndarray) -> float:
    """Cluster residue: arithmetic mean of |r_ij| (Definition 3.5).

    Returns 0.0 for an empty submatrix or one with no specified entries
    (a volume-0 cluster exhibits no incoherence).
    """
    if sub.size == 0:
        return 0.0
    bases = compute_bases(sub)
    if bases.volume == 0:
        return 0.0
    mask = ~np.isnan(sub)
    raw = sub - bases.row[:, None] - bases.col[None, :] + bases.grand
    return float(np.abs(np.where(mask, raw, 0.0)).sum() / bases.volume)


def mean_squared_residue(sub: np.ndarray) -> float:
    """Mean *squared* residue (the Cheng & Church ``H`` score).

    The paper's Definition 3.5 notes the mean "can be in the form of either
    arithmetic, geometric, or square mean as in [3]"; the square form is
    what the biclustering baseline optimizes.
    """
    if sub.size == 0:
        return 0.0
    bases = compute_bases(sub)
    if bases.volume == 0:
        return 0.0
    mask = ~np.isnan(sub)
    raw = sub - bases.row[:, None] - bases.col[None, :] + bases.grand
    return float(np.square(np.where(mask, raw, 0.0)).sum() / bases.volume)


def submatrix_residue(
    values: np.ndarray, rows: Sequence[int], cols: Sequence[int]
) -> float:
    """Mean absolute residue of ``values[rows x cols]``.

    Convenience entry point used by the model objects; ``rows``/``cols``
    are integer indices into the full matrix.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if rows.size == 0 or cols.size == 0:
        return 0.0
    return mean_abs_residue(values[np.ix_(rows, cols)])


def row_residues(sub: np.ndarray) -> np.ndarray:
    """Mean |r_ij| per row of the submatrix.

    Rows with no specified entries get 0.  Used by the FLOC fast gain mode
    and by the Cheng & Church node-deletion phases.
    """
    res = np.abs(residue_matrix(sub))
    mask = ~np.isnan(sub)
    counts = mask.sum(axis=1)
    return np.where(counts > 0, res.sum(axis=1) / np.maximum(counts, 1), 0.0)


def col_residues(sub: np.ndarray) -> np.ndarray:
    """Mean |r_ij| per column of the submatrix (see :func:`row_residues`)."""
    res = np.abs(residue_matrix(sub))
    mask = ~np.isnan(sub)
    counts = mask.sum(axis=0)
    return np.where(counts > 0, res.sum(axis=0) / np.maximum(counts, 1), 0.0)
