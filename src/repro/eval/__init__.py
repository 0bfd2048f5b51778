"""Evaluation: metrics, experiment harness, and table rendering.

Each name is imported on first use (:mod:`repro._lazy`): printing a
table loads no experiment harness.
"""

from .._lazy import lazy_exports

_resolve, __dir__ = lazy_exports(__name__, {
    ".experiment": (
        "ExperimentConfig", "TrialResult", "generate_workload", "run_trial",
        "run_trials",
    ),
    ".metrics": (
        "RecallPrecision", "clustering_report", "coverage_sets",
        "jaccard_entries", "match_clusters", "recall_precision",
    ),
    ".reporting": ("format_records", "format_series", "format_table"),
    ".significance": (
        "SignificanceReport", "empirical_residue_distribution",
        "residue_significance",
    ),
})

__all__ = [
    "ExperimentConfig",
    "RecallPrecision",
    "SignificanceReport",
    "TrialResult",
    "empirical_residue_distribution",
    "residue_significance",
    "clustering_report",
    "coverage_sets",
    "format_records",
    "format_series",
    "format_table",
    "generate_workload",
    "jaccard_entries",
    "match_clusters",
    "recall_precision",
    "run_trial",
    "run_trials",
]


def __getattr__(name: str) -> object:
    return _resolve(name)
