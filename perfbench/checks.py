"""Output checks, computed here from the matrix rather than by the program.

The residue and occupancy rules follow the paper's Definitions 3.1-3.5:
bases are means over the specified entries of the cluster submatrix, and
the residue is the mean of ``|d_ij - d_iJ - d_Ij + d_IJ|`` over the
specified entries.
"""

import numpy as np

#: Relative slack on the residue target for last-bit summation order.
RESIDUE_SLACK = 1e-9


def mean_abs_residue(sub):
    """Mean absolute residue of a submatrix with NaN for missing."""
    mask = ~np.isnan(sub)
    volume = int(mask.sum())
    if volume == 0:
        return 0.0
    filled = np.where(mask, sub, 0.0)
    row_n = mask.sum(axis=1)
    col_n = mask.sum(axis=0)
    row_base = filled.sum(axis=1) / np.maximum(row_n, 1)
    col_base = filled.sum(axis=0) / np.maximum(col_n, 1)
    grand = filled.sum() / volume
    residue = sub - row_base[:, None] - col_base[None, :] + grand
    return float(np.abs(np.where(mask, residue, 0.0)).sum() / volume)


def cluster_violations(values, rows, cols, *, target, min_rows, min_cols, alpha):
    """Reasons one mined cluster breaks the mining contract (empty if none)."""
    problems = []
    if len(rows) < min_rows or len(cols) < min_cols:
        problems.append(f"{len(rows)}x{len(cols)} is below {min_rows}x{min_cols}")
        if not len(rows) or not len(cols):
            return problems
    sub = values[np.ix_(rows, cols)]
    residue = mean_abs_residue(sub)
    if residue > target * (1 + RESIDUE_SLACK):
        problems.append(f"residue {residue:.6g} above target {target}")
    if alpha > 0:
        mask = ~np.isnan(sub)
        low = min(mask.mean(axis=1).min(), mask.mean(axis=0).min())
        if low < alpha:
            problems.append(f"occupancy {low:.3f} below alpha {alpha}")
    return problems


def coverage(clusters, shape):
    """Boolean matrix of the cells any of ``clusters`` covers."""
    covered = np.zeros(shape, dtype=bool)
    for rows, cols in clusters:
        if len(rows) and len(cols):
            covered[np.ix_(rows, cols)] = True
    return covered


def shared_cells(truth, found, shape):
    """``(planted cells, found cells, cells in both)`` for recall/precision."""
    planted = coverage(truth, shape)
    mined = coverage(found, shape)
    return int(planted.sum()), int(mined.sum()), int((planted & mined).sum())
