"""Workload generators, dataset substitutes and matrix IO.

Each name is imported on first use (:mod:`repro._lazy`): reading a
matrix loads no generator.
"""

from .._lazy import lazy_exports

_resolve, __dir__ = lazy_exports(__name__, {
    ".categorical": ("CategoricalEncoding", "encode_hybrid"),
    ".distributions": (
        "erlang", "erlang_volumes", "variance_level_to_shape",
    ),
    ".io": (
        "load_clusters", "load_matrix_csv", "load_matrix_npz",
        "load_ratings_triples", "save_clusters", "save_matrix_csv",
        "save_matrix_npz",
    ),
    ".microarray": (
        "FIGURE4_CONDITIONS", "FIGURE4_GENES", "FIGURE4_VALUES",
        "YeastDataset", "figure4_cluster", "figure4_matrix",
        "generate_yeast_like",
    ),
    ".movielens": ("DEFAULT_GENRES", "MovieLensDataset", "generate_ratings"),
    ".synthetic": ("SyntheticDataset", "generate_embedded", "volumes_to_shapes"),
})

__all__ = [
    "CategoricalEncoding",
    "DEFAULT_GENRES",
    "FIGURE4_CONDITIONS",
    "FIGURE4_GENES",
    "FIGURE4_VALUES",
    "MovieLensDataset",
    "SyntheticDataset",
    "YeastDataset",
    "encode_hybrid",
    "erlang",
    "erlang_volumes",
    "figure4_cluster",
    "figure4_matrix",
    "generate_embedded",
    "generate_ratings",
    "generate_yeast_like",
    "load_clusters",
    "load_matrix_csv",
    "load_matrix_npz",
    "load_ratings_triples",
    "save_clusters",
    "save_matrix_csv",
    "save_matrix_npz",
    "variance_level_to_shape",
    "volumes_to_shapes",
]


def __getattr__(name: str) -> object:
    return _resolve(name)
