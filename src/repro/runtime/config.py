"""Run configuration for the supervised mining runtime.

A :class:`RunConfig` captures *everything* a worker process needs to
re-execute restart ``i`` of a mining session: the session's
:class:`~repro.core.params.MiningParams` (it is one) and the root seed
that :func:`repro.core.mining.restart_seed` expands into the restart's
private stream.  It round-trips through plain JSON so the checkpoint
manifest can embed it and a resumed run can verify it is continuing
the *same* session (see :mod:`repro.runtime.checkpoint`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional

from ..core.params import MiningParams, check_params

__all__ = ["RunConfig"]


@dataclass(frozen=True)
class RunConfig(MiningParams):
    """Immutable description of one supervised mining session.

    The mining parameters and their defaults are
    :class:`~repro.core.params.MiningParams`'; with ``root_seed`` they
    are the session's identity.  Supervision parameters (``workers``,
    ``task_timeout``, ``max_retries``) shape scheduling only and are
    deliberately *excluded* from the identity -- re-running with more
    workers must resume the same session.
    """

    root_seed: int = 0

    # -- supervision parameters (schedule-only) ------------------------
    workers: int = 1
    task_timeout: Optional[float] = None
    max_retries: int = 2

    #: Fields that define the session identity: two configs agreeing on
    #: these produce bit-identical results regardless of scheduling.
    IDENTITY_FIELDS = (
        *(f.name for f in fields(MiningParams)), "root_seed",
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        check_params(
            root_seed=self.root_seed, workers=self.workers,
            max_retries=self.max_retries, task_timeout=self.task_timeout,
        )

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
