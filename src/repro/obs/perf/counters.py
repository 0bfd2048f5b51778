"""The work-counter cost model: deterministic counts of algorithmic work.

Wall-clock timing answers "how long did it take on this machine today";
the counters here answer "how much work was done" -- a machine- and
load-independent complement that is *bit-identical across runs at a
fixed seed*.  Each counter names one unit of the Section 4.2 complexity
analysis:

``residue_evals``
    Exact residue recomputations of a cluster submatrix: one per
    refresh (:meth:`~repro.core.floc._State.refresh_cluster`, or the
    fused fast-mode :meth:`~repro.core.floc._State.perform`) of a
    non-empty cluster and one per
    :class:`~repro.core.gain_engine.ExactContext` build (each context
    re-derives its cluster's residue from the sufficient statistics).
    The O(n*m) unit.
``cells_scanned``
    Matrix cells whose residue contribution was computed, summed over
    every evaluation: ``M*m + N*n`` per
    :meth:`~repro.core.floc._State.line_deviations` pass (the row block
    over the ``m`` member columns plus the column block over the ``n``
    member rows -- the scan behind every refresh), the volume per
    context build, and the toggled line's specified-cell count per
    candidate elsewhere (a lane adds its candidates' line counts, so a
    block build adds only the selected slots').  The finest-grained
    cost unit -- directly comparable to the paper's "matrix volume x k"
    scaling claim.
``toggle_evals``
    Candidate toggle evaluations of either gain mode: the candidates of
    every engine lane build (M + N for an estimate build, S for a full
    exact lane, the block size for a windowed rebuild).
``batch_evals``
    Vectorized candidate evaluations: one per estimate build (every row
    and column of one cluster at once) and one per exact lane of one
    kind, full or windowed.  The amortization unit: the more
    ``toggle_evals`` each ``batch_eval`` carries, the better batched.
``lane_builds``
    Sorted-residual *exact* lane constructions
    (:func:`~repro.core.gain_engine.exact_lane`), full or
    block-windowed -- the O(volume log n) unit that replaced exact
    mode's per-candidate submatrix rescans.
``toggles``
    Membership bits actually flipped (including best-prefix replay).
``sweeps``
    Phase-2 iterations executed.
``snapshots`` / ``restores``
    Full-state copies taken / rolled back by the per-iteration
    best-clustering bookkeeping.  Only rollbacks that change the state
    count: a sweep whose best prefix is the whole sweep is kept in
    place, not restored and replayed.

Counting is strictly passive: every increment reuses a quantity the
algorithm already computed, no counter path reads a clock or an RNG,
and a run with counting enabled is bit-identical to one without
(enforced by the parity test in ``tests/test_perf_counters.py`` and by
lint rule DCL008, which bans wall-clock calls in this package).
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

__all__ = ["WorkCounters", "WORK_COUNTER_FIELDS"]

#: Field order is the schema: ``as_dict`` emits exactly these keys, and
#: the bench-document ``work`` sections are comparable field-for-field.
WORK_COUNTER_FIELDS: Tuple[str, ...] = (
    "residue_evals",
    "cells_scanned",
    "toggle_evals",
    "batch_evals",
    "lane_builds",
    "toggles",
    "sweeps",
    "snapshots",
    "restores",
)


class WorkCounters:
    """Monotonic integer counters of algorithmic work (see module doc).

    Plain ``__slots__`` ints so hot-path increments are a single
    attribute add.  Instances are merged with :meth:`merge` (restart
    pooling), compared structurally, and serialized via :meth:`as_dict`
    in fixed field order.
    """

    __slots__ = WORK_COUNTER_FIELDS

    def __init__(self, **initial: int) -> None:
        unknown = set(initial) - set(WORK_COUNTER_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown work counter(s): {', '.join(sorted(unknown))}"
            )
        for name in WORK_COUNTER_FIELDS:
            setattr(self, name, int(initial.get(name, 0)))

    # -- aggregation ---------------------------------------------------
    def merge(self, other: "WorkCounters") -> "WorkCounters":
        """Add ``other``'s counts into ``self``; returns ``self``."""
        for name in WORK_COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def copy(self) -> "WorkCounters":
        return WorkCounters(**self.as_dict())

    # -- views ---------------------------------------------------------
    def as_dict(self) -> Dict[str, int]:
        """Plain dict in schema field order (insertion-ordered)."""
        return {name: int(getattr(self, name)) for name in WORK_COUNTER_FIELDS}

    def total(self) -> int:
        """Sum of every counter -- a crude single-number work volume."""
        return sum(getattr(self, name) for name in WORK_COUNTER_FIELDS)

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(self.as_dict().items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkCounters):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __hash__(self) -> int:  # pragma: no cover - not used as a key
        return hash(tuple(self.as_dict().values()))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={getattr(self, name)}" for name in WORK_COUNTER_FIELDS
        )
        return f"WorkCounters({inner})"
