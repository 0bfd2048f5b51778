"""Core delta-cluster model and the FLOC mining algorithm.

Every name but :mod:`~repro.core.predict`'s is imported eagerly: mining
loads those modules anyway, and a lazy name that shares its submodule's
name (the function :func:`floc` in :mod:`repro.core.floc`) would be
replaced by the module once the submodule is imported.  Prediction
loads on first use (:mod:`repro._lazy`), so a mining process does not
load it.
"""

from .._lazy import lazy_exports
from .actions import Action, evaluate_toggle, toggle_occupancy_ok
from .cluster import DeltaCluster
from .clustering import Clustering
from .constraints import Constraints
from .floc import FlocResult, floc
from .matrix import DataMatrix
from .mining import (
    MiningResult,
    mine_delta_clusters,
    pool_mining_results,
    restart_seed,
    run_restart,
)
from .ordering import (
    action_slots,
    fixed_order,
    greedy_order,
    make_order,
    random_order,
    weighted_order,
)
from .residue import (
    compute_bases,
    mean_abs_residue,
    mean_squared_residue,
    residue_matrix,
    submatrix_residue,
)
from .rng import RngLike, resolve_rng
from .seeding import (
    axis_seeds,
    bernoulli_seeds,
    mixed_seeds,
    seeds_from_clusters,
    volume_seeds,
)

_resolve, __dir__ = lazy_exports(__name__, {
    ".predict": ("impute", "predict_entry", "prediction_error"),
})

__all__ = [
    "Action",
    "Clustering",
    "Constraints",
    "DataMatrix",
    "DeltaCluster",
    "FlocResult",
    "MiningResult",
    "RngLike",
    "action_slots",
    "axis_seeds",
    "bernoulli_seeds",
    "compute_bases",
    "evaluate_toggle",
    "fixed_order",
    "floc",
    "greedy_order",
    "impute",
    "make_order",
    "mine_delta_clusters",
    "predict_entry",
    "prediction_error",
    "mean_abs_residue",
    "mean_squared_residue",
    "mixed_seeds",
    "pool_mining_results",
    "random_order",
    "residue_matrix",
    "resolve_rng",
    "restart_seed",
    "run_restart",
    "seeds_from_clusters",
    "submatrix_residue",
    "toggle_occupancy_ok",
    "volume_seeds",
    "weighted_order",
]


def __getattr__(name: str) -> object:
    return _resolve(name)
