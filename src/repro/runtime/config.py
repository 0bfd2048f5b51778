"""Run configuration for the supervised mining runtime.

A :class:`RunConfig` captures *everything* a worker process needs to
re-execute restart ``i`` of a mining session: the FLOC parameters, the
pooling thresholds, and the root seed that
:func:`repro.core.mining.restart_seed` expands into the restart's
private stream.  It round-trips through plain JSON so the checkpoint
manifest can embed it and a resumed run can verify it is continuing
the *same* session (see :mod:`repro.runtime.checkpoint`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Sequence, Union

from ..core.params import check_params

__all__ = ["RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """Immutable description of one supervised mining session.

    Mining parameters mirror
    :func:`repro.core.mining.mine_delta_clusters`; supervision
    parameters (``workers``, ``task_timeout``, ``max_retries``) shape
    scheduling only and are deliberately *excluded* from the identity
    digest -- re-running with more workers must resume the same session.
    """

    # -- mining parameters (identity-bearing) --------------------------
    residue_target: float
    n_restarts: int = 1
    root_seed: int = 0
    k: int = 10
    min_rows: int = 3
    min_cols: int = 3
    alpha: float = 0.0
    p: Union[float, Sequence[float]] = 0.2
    reseed_rounds: int = 10
    ordering: str = "greedy"
    gain_mode: str = "fast"
    max_iterations: int = 100
    min_volume: int = 25
    max_overlap: float = 0.5
    max_clusters: Optional[int] = None

    # -- supervision parameters (schedule-only) ------------------------
    workers: int = 1
    task_timeout: Optional[float] = None
    max_retries: int = 2

    #: Fields that define the session identity: two configs agreeing on
    #: these produce bit-identical results regardless of scheduling.
    IDENTITY_FIELDS = (
        "residue_target", "n_restarts", "root_seed", "k", "min_rows",
        "min_cols", "alpha", "p", "reseed_rounds", "ordering",
        "gain_mode", "max_iterations", "min_volume", "max_overlap",
        "max_clusters",
    )

    def __post_init__(self) -> None:
        check_params(
            residue_target=self.residue_target, n_restarts=self.n_restarts,
            root_seed=self.root_seed, k=self.k, min_rows=self.min_rows,
            min_cols=self.min_cols, alpha=self.alpha, p=self.p,
            max_overlap=self.max_overlap, reseed_rounds=self.reseed_rounds,
            max_clusters=self.max_clusters, workers=self.workers,
            max_retries=self.max_retries, task_timeout=self.task_timeout,
        )
        if isinstance(self.p, (list, tuple)):
            # Normalize to a tuple so to_dict/from_dict round-trips and
            # frozen instances hash consistently.
            object.__setattr__(self, "p", tuple(float(x) for x in self.p))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (tuples become lists)."""
        out = asdict(self)
        if isinstance(out["p"], tuple):
            out["p"] = list(out["p"])
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown RunConfig keys: {', '.join(unknown)}")
        return cls(**payload)  # type: ignore[arg-type]

    def identity(self) -> Dict[str, object]:
        """The identity-bearing subset of :meth:`to_dict` (see above)."""
        full = self.to_dict()
        return {name: full[name] for name in self.IDENTITY_FIELDS}

    def restart_indices(self) -> List[int]:
        return list(range(self.n_restarts))
