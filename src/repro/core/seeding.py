"""Phase-1 seeding: generating the k initial clusters (Sections 4.1, 5.1).

The basic scheme includes every row and every column of the matrix in a
seed independently with probability ``p``, so a seed is expected to span
``p * M`` rows and ``p * N`` columns.  Section 5.1 observes that seeds far
from the (unknown) optimal cluster size cost extra iterations, and proposes
*mixed* seeding -- a different ``p`` per seed -- so that both large and
small embedded clusters have a nearby starting point.  The experiments of
Figures 8-9 additionally need seeds whose *volumes* follow a prescribed
(Erlang) distribution; :func:`volume_seeds` provides that.

A seed is represented as a pair of boolean membership vectors
``(row_member, col_member)`` -- the exact form FLOC's inner loop uses.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "Seed",
    "axis_seeds",
    "bernoulli_seeds",
    "mixed_seeds",
    "volume_seeds",
    "seeds_from_clusters",
]

Seed = Tuple[np.ndarray, np.ndarray]


def _ensure_minimum(
    member: np.ndarray, minimum: int, rng: np.random.Generator
) -> None:
    """Force at least ``minimum`` members by drafting random non-members.

    A seed with fewer than two rows or columns has no measurable coherence
    (its residue is identically zero), so Phase 1 never emits one.
    """
    need = minimum - int(member.sum())
    if need <= 0:
        return
    candidates = np.flatnonzero(~member)
    if need > candidates.size:
        raise ValueError(
            f"cannot build a seed with {minimum} members out of "
            f"{member.size} positions"
        )
    # In-place by documented contract: callers hand over a freshly drawn
    # membership vector they own, and -> None makes the mutation explicit.
    member[rng.choice(candidates, size=need, replace=False)] = True  # dcl: disable=DCL012


def bernoulli_seeds(
    n_rows: int,
    n_cols: int,
    k: int,
    p: float,
    rng: np.random.Generator,
    min_rows: int = 2,
    min_cols: int = 2,
) -> List[Seed]:
    """The paper's basic Phase 1: each row/column joins with probability p."""
    return mixed_seeds(n_rows, n_cols, k, [p], rng, min_rows, min_cols)


def axis_seeds(
    n_rows: int,
    n_cols: int,
    k: int,
    p_rows: float,
    p_cols: float,
    rng: np.random.Generator,
    min_rows: int = 2,
    min_cols: int = 2,
) -> List[Seed]:
    """Seeds with different inclusion probabilities per axis.

    This is the paper's own Table 2/3 setup -- "the average initial
    volume of each cluster is 0.05 x N [rows] and 0.2 x M [columns]" --
    which a single ``p`` cannot express.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    for label, p in (("p_rows", p_rows), ("p_cols", p_cols)):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"{label} must be in (0, 1], got {p}")
    if min_rows > n_rows or min_cols > n_cols:
        raise ValueError(
            f"matrix {n_rows}x{n_cols} too small for {min_rows}x{min_cols} seeds"
        )
    seeds: List[Seed] = []
    for __ in range(k):
        row_member = rng.random(n_rows) < p_rows
        col_member = rng.random(n_cols) < p_cols
        _ensure_minimum(row_member, min_rows, rng)
        _ensure_minimum(col_member, min_cols, rng)
        seeds.append((row_member, col_member))
    return seeds


def mixed_seeds(
    n_rows: int,
    n_cols: int,
    k: int,
    p_values: Sequence[float],
    rng: np.random.Generator,
    min_rows: int = 2,
    min_cols: int = 2,
) -> List[Seed]:
    """Mixed-p seeding (Section 5.1): cycle through ``p_values`` per seed."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if not p_values:
        raise ValueError("p_values must not be empty")
    for p in p_values:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"inclusion probability must be in (0, 1], got {p}")
    if min_rows > n_rows or min_cols > n_cols:
        raise ValueError(
            f"matrix {n_rows}x{n_cols} too small for {min_rows}x{min_cols} seeds"
        )
    seeds: List[Seed] = []
    for index in range(k):
        p = p_values[index % len(p_values)]
        row_member = rng.random(n_rows) < p
        col_member = rng.random(n_cols) < p
        _ensure_minimum(row_member, min_rows, rng)
        _ensure_minimum(col_member, min_cols, rng)
        seeds.append((row_member, col_member))
    return seeds


def volume_seeds(
    n_rows: int,
    n_cols: int,
    volumes: Sequence[float],
    rng: np.random.Generator,
    min_rows: int = 2,
    min_cols: int = 2,
) -> List[Seed]:
    """Seeds whose expected volumes match ``volumes`` (one seed per entry).

    Used by the Figure 8/9 experiments where seed volumes follow an Erlang
    distribution.  Each target volume ``v`` is split into a row count and a
    column count proportional to the matrix aspect ratio, then that many
    distinct random rows/columns are drawn.
    """
    seeds: List[Seed] = []
    for volume in volumes:
        if volume <= 0:
            raise ValueError(f"seed volume must be positive, got {volume}")
        aspect = n_rows / n_cols
        rows_target = int(round(np.sqrt(volume * aspect)))
        rows_target = min(max(rows_target, min_rows), n_rows)
        cols_target = int(round(volume / rows_target))
        cols_target = min(max(cols_target, min_cols), n_cols)
        row_member = np.zeros(n_rows, dtype=bool)
        col_member = np.zeros(n_cols, dtype=bool)
        row_member[rng.choice(n_rows, size=rows_target, replace=False)] = True
        col_member[rng.choice(n_cols, size=cols_target, replace=False)] = True
        seeds.append((row_member, col_member))
    return seeds


def seeds_from_clusters(
    n_rows: int,
    n_cols: int,
    clusters: Sequence,
) -> List[Seed]:
    """Turn explicit :class:`~repro.core.cluster.DeltaCluster`-like objects
    (anything with ``rows`` and ``cols`` index sequences) into seeds.

    Lets callers warm-start FLOC from a previous result or from domain
    knowledge.
    """
    seeds: List[Seed] = []
    for cluster in clusters:
        row_member = np.zeros(n_rows, dtype=bool)
        col_member = np.zeros(n_cols, dtype=bool)
        rows = np.asarray(list(cluster.rows), dtype=np.intp)
        cols = np.asarray(list(cluster.cols), dtype=np.intp)
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise IndexError("cluster row index out of matrix range")
        if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
            raise IndexError("cluster column index out of matrix range")
        row_member[rows] = True
        col_member[cols] = True
        seeds.append((row_member, col_member))
    return seeds
