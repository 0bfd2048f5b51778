"""Range checks of the mining parameters, shared by every front end.

:func:`~repro.core.floc.floc`, :func:`~repro.core.mining.mine_delta_clusters`,
:func:`~repro.core.mining.pool_mining_results`, the runtime's
``RunConfig`` and ``repro mine`` all check their parameters here, so a
value is refused with the same message wherever it enters, and before
any restart runs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

__all__ = ["ParameterError", "check_params"]


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
    "alpha": (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]"),
    "p": (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),
    "max_overlap": (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]"),
    "reseed_rounds": (lambda v: v >= 0, "must be >= 0"),
    "max_clusters": (lambda v: v >= 1, "must be >= 1"),
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
