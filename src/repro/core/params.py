"""The mining parameters and their range checks, shared by every front end.

:class:`MiningParams` is the one list of a mining session's parameters
(Phase 1 + Phase 2 per restart, then pooling), with one default each.
:func:`~repro.core.mining.mine_delta_clusters`,
:func:`~repro.core.mining.run_restart`,
:func:`~repro.core.mining.pool_mining_results`, the runtime's
``RunConfig`` (a subclass) and ``repro mine`` all take it, so the same
unset parameters mine the same clusters on every path, and a value is
refused with the same message wherever it enters, before any restart
runs.  :func:`check_params` holds the rules; :func:`~repro.core.floc.floc`
and the runtime's schedule fields use it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

from .ordering import ORDERINGS

__all__ = [
    "DEFAULT_GAIN_MODE",
    "GAIN_MODES",
    "MiningParams",
    "ParameterError",
    "check_params",
]

GAIN_MODES = ("exact", "fast")

#: The gain mode of a mining session and of a bare ``floc`` call.
DEFAULT_GAIN_MODE = "fast"


class ParameterError(ValueError):
    """A parameter outside its range; ``name`` is its keyword."""

    def __init__(self, name: str, message: str) -> None:
        super().__init__(message)
        self.name = name


#: ``name -> (accepts, rule)``: the message reads ``"<name> <rule>, got <value>"``.
_RULES: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    "residue_target": (lambda v: v > 0, "must be positive"),
    "n_restarts": (lambda v: v >= 1, "must be >= 1"),
    "root_seed": (lambda v: v >= 0, "must be >= 0"),
    "k": (lambda v: v > 0, "must be positive"),
    "min_rows": (lambda v: v >= 1, "must be >= 1"),
    "min_cols": (lambda v: v >= 1, "must be >= 1"),
    "min_volume": (lambda v: v >= 0, "must be >= 0"),
    "alpha": (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]"),
    "p": (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),
    "max_overlap": (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]"),
    "reseed_rounds": (lambda v: v >= 0, "must be >= 0"),
    "max_clusters": (lambda v: v >= 1, "must be >= 1"),
    "ordering": (lambda v: v in ORDERINGS, f"must be one of {ORDERINGS}"),
    "gain_mode": (lambda v: v in GAIN_MODES, f"must be one of {GAIN_MODES}"),
    "max_iterations": (lambda v: v >= 1, "must be >= 1"),
    "workers": (lambda v: v >= 1, "must be >= 1"),
    "max_retries": (lambda v: v >= 0, "must be >= 0"),
    "task_timeout": (lambda v: v > 0, "must be positive"),
}


def check_params(shape: Optional[Tuple[int, int]] = None, **values: Any) -> None:
    """Raise :class:`ParameterError` for the first of ``values`` (keyword
    -> value; ``None`` skips it) outside its range.

    ``p`` may be a sequence (mixed-p seeding): every entry must be in
    range.  With the matrix ``shape`` given, ``min_rows`` / ``min_cols``
    may not exceed its rows / columns -- no seed could be drawn.
    """
    for name, value in values.items():
        if value is None:
            continue
        accepts, rule = _RULES[name]
        entries: Sequence[Any] = value if isinstance(value, (list, tuple)) else (value,)
        if not entries or not all(accepts(entry) for entry in entries):
            raise ParameterError(name, f"{name} {rule}, got {value}")
    if shape is not None:
        bounds = (("min_rows", shape[0], "rows"), ("min_cols", shape[1], "columns"))
        for name, limit, axis in bounds:
            value = values.get(name)
            if value is not None and value > limit:
                raise ParameterError(
                    name, f"{name} must be <= the matrix's {limit} {axis}, got {value}"
                )


@dataclass(frozen=True)
class MiningParams:
    """The parameters of one mining session, checked on construction.

    Each restart runs :func:`~repro.core.floc.floc` in r-residue mode
    with ``k``, ``p``, ``alpha``, ``reseed_rounds``, ``ordering``,
    ``gain_mode``, ``max_iterations`` and a ``min_rows`` x ``min_cols``
    structural floor; pooling keeps the clusters of the ``n_restarts``
    restarts that meet ``residue_target`` (every returned cluster's mean
    absolute residue is at most this), ``alpha`` occupancy, the size
    floor and ``min_volume`` (counting *specified* entries), drops one
    that overlaps a kept, larger cluster by more than ``max_overlap`` of
    the smaller one's cells, and keeps at most ``max_clusters`` (largest
    volume first; ``None`` keeps all).  A sequence ``p`` (mixed-p
    seeding) is stored as a tuple of floats.  An out-of-range value
    raises :class:`ParameterError`.
    """

    residue_target: float
    n_restarts: int = 3
    k: int = 10
    min_rows: int = 3
    min_cols: int = 3
    min_volume: int = 25
    max_overlap: float = 0.5
    max_clusters: Optional[int] = None
    alpha: float = 0.0
    p: Union[float, Sequence[float]] = 0.2
    reseed_rounds: int = 10
    ordering: str = "greedy"
    gain_mode: str = DEFAULT_GAIN_MODE
    max_iterations: int = 100

    def __post_init__(self) -> None:
        check_params(**self.mining_params())
        if isinstance(self.p, (list, tuple)):
            # A tuple keeps frozen instances hashable and round-trips.
            object.__setattr__(self, "p", tuple(float(x) for x in self.p))

    def mining_params(self) -> Dict[str, Any]:
        """The mining parameters as keywords (a subclass's own fields
        left out): what :func:`~repro.core.mining.mine_delta_clusters`
        takes."""
        return {f.name: getattr(self, f.name) for f in fields(MiningParams)}

    def check_shape(self, shape: Tuple[int, int]) -> None:
        """Raise :class:`ParameterError` unless a ``min_rows`` x
        ``min_cols`` seed fits a matrix of ``shape``."""
        check_params(shape, min_rows=self.min_rows, min_cols=self.min_cols)
