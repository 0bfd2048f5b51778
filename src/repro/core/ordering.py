"""Action-order schedulers (Sections 4.1 and 5.2 of the paper).

Within each FLOC iteration every row and every column performs exactly one
action.  The *order* in which those M + N actions are performed matters: a
run of negative-gain actions early in a fixed order can keep later
positive-gain actions from ever getting "a full play" (Section 5.2).  The
paper proposes three schedulers:

``fixed``
    Row 1 .. row M followed by column 1 .. column N, every iteration.
``random``
    A uniform shuffle produced by ``g = 2 * (M + N)`` random pairwise
    swaps (Section 5.2.1 describes exactly this swap procedure).
``weighted``
    The same swap procedure, but a proposed swap of the action at the
    earlier position ``i`` with the one at the later position ``j`` only
    happens with probability ``0.5 + (g_j - g_i) / (2 * Gamma)`` where
    ``Gamma`` is the spread between the maximum and minimum gain
    (Section 5.2.2).  High-gain actions therefore tend to bubble toward
    the front while low-gain ones drift back, without deterministically
    sorting (which would trap the search in local optima).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .actions import COL, ROW

__all__ = [
    "ORDERINGS",
    "action_slots",
    "fixed_order",
    "greedy_order",
    "make_order",
    "random_order",
    "weighted_order",
]

#: A slot identifies the row/column whose best action will be performed.
Slot = Tuple[str, int]

ORDERINGS = ("fixed", "random", "weighted", "greedy")


def action_slots(n_rows: int, n_cols: int) -> List[Slot]:
    """All M + N action slots in the paper's canonical (fixed) order."""
    slots: List[Slot] = [(ROW, i) for i in range(n_rows)]
    slots.extend((COL, j) for j in range(n_cols))
    return slots


def fixed_order(n_rows: int, n_cols: int) -> List[Slot]:
    """Rows first, then columns -- identical every iteration."""
    return action_slots(n_rows, n_cols)


def _swap_count(n_slots: int, swaps: Optional[int]) -> int:
    if swaps is None:
        # "We found that the randomness of the list is satisfactory where
        # g >= 2 x (M + N).  Thus, we chose g = 2 x (M + N)."
        return 2 * n_slots
    if swaps < 0:
        raise ValueError(f"swaps must be non-negative, got {swaps}")
    return swaps


def random_order(
    slots: Sequence[Slot],
    rng: np.random.Generator,
    swaps: Optional[int] = None,
) -> List[Slot]:
    """Uniform random order via the paper's repeated-swap procedure."""
    order = list(slots)
    n = len(order)
    if n < 2:
        return order
    count = _swap_count(n, swaps)
    picks = rng.integers(0, n, size=(count, 2))
    for a, b in picks:
        order[a], order[b] = order[b], order[a]
    return order


def weighted_order(
    slots: Sequence[Slot],
    gains: Sequence[float],
    rng: np.random.Generator,
    swaps: Optional[int] = None,
) -> List[Slot]:
    """Gain-weighted random order (Section 5.2.2).

    ``gains`` holds the best-action gain of each slot, aligned with
    ``slots``.  Blocked slots (``-inf`` gain) are treated as carrying the
    minimum finite gain so the probability formula stays well-defined.
    """
    if len(gains) != len(slots):
        raise ValueError(
            f"gains has {len(gains)} entries, expected {len(slots)}"
        )
    order = list(slots)
    n = len(order)
    if n < 2:
        return order
    gain_of = np.asarray(gains, dtype=np.float64)
    finite = gain_of[np.isfinite(gain_of)]
    floor = float(finite.min()) if finite.size else 0.0
    gain_of = np.where(np.isfinite(gain_of), gain_of, floor)
    gamma = float(gain_of.max() - gain_of.min())
    current = list(gain_of)
    count = _swap_count(n, swaps)
    picks = rng.integers(0, n, size=(count, 2))
    coins = rng.random(count)
    for (a, b), coin in zip(picks, coins):
        if a == b:
            continue
        front, back = (a, b) if a < b else (b, a)
        if gamma > 0.0:
            # Swap is *less* likely when the front action already has the
            # larger gain; certain when the back action has the maximum
            # gain and the front the minimum.
            probability = 0.5 + (current[back] - current[front]) / (2.0 * gamma)
        else:
            probability = 0.5
        if coin < probability:
            order[front], order[back] = order[back], order[front]
            current[front], current[back] = current[back], current[front]
    return order


def greedy_order(
    slots: Sequence[Slot],
    gains: Sequence[float],
) -> List[Slot]:
    """Deterministic descending-gain order.

    Not one of the paper's three schedulers -- Section 5.2.2 worries that
    full sorting "may only find the local optimal clustering" -- but the
    per-action snapshot makes the risk moot in this implementation, and on
    cleanup-heavy workloads front-loading big-gain removals protects the
    planted core from being shredded before the junk leaves.  Offered as
    an extension and compared against the paper's orderings in the
    ablation bench.  Ties keep the canonical slot order, so the result is
    fully deterministic.
    """
    if len(gains) != len(slots):
        raise ValueError(
            f"gains has {len(gains)} entries, expected {len(slots)}"
        )
    gain_of = np.asarray(gains, dtype=np.float64)
    gain_of = np.where(np.isfinite(gain_of), gain_of, -1e30)
    return [slots[i] for i in np.argsort(-gain_of, kind="stable")]


def make_order(
    ordering: str,
    slots: Sequence[Slot],
    gains: Sequence[float],
    rng: np.random.Generator,
    swaps: Optional[int] = None,
) -> List[Slot]:
    """Dispatch to the requested scheduler.

    ``gains`` is only consulted by the weighted and greedy schedulers;
    passing an empty sequence is fine for ``fixed`` and ``random``.
    """
    if ordering == "fixed":
        return list(slots)
    if ordering == "random":
        return random_order(slots, rng, swaps)
    if ordering == "weighted":
        return weighted_order(slots, gains, rng, swaps)
    if ordering == "greedy":
        return greedy_order(slots, gains)
    raise ValueError(
        f"unknown ordering {ordering!r}; expected one of {ORDERINGS}"
    )
