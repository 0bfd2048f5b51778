"""repro: a full reproduction of "delta-Clusters: Capturing Subspace
Correlation in a Large Data Set" (Yang, Wang, Wang, Yu -- ICDE 2002).

The package implements the delta-cluster model (shifting coherence with
per-object/per-attribute bias and missing values), the FLOC move-based
mining algorithm with all three action orderings and the optional
constraints, the Cheng & Church biclustering baseline, the CLIQUE-based
alternative algorithm of Section 4.4, the paper's synthetic / MovieLens /
micro-array workloads, and an evaluation harness that regenerates every
table and figure of the paper's experimental section.

Every public name is imported on first use (:mod:`repro._lazy`), so
``import repro`` loads no subpackage.

Quickstart
----------
>>> import numpy as np
>>> from repro import DataMatrix, floc
>>> rng = np.random.default_rng(0)
>>> values = rng.uniform(0, 100, size=(60, 12))
>>> values[:10, :4] = 50 + rng.uniform(-20, 20, 10)[:, None] \
...     + rng.uniform(-20, 20, 4)[None, :]
>>> result = floc(DataMatrix(values), k=1, rng=0)
>>> result.average_residue < 10
True
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

_resolve, __dir__ = lazy_exports(__name__, {
    ".baselines": (
        "Bicluster", "ChengChurchResult", "fill_missing_with_random",
        "find_bicluster", "find_biclusters", "msr", "pearson_r",
    ),
    ".core": (
        "Action", "Clustering", "Constraints", "DataMatrix", "DeltaCluster",
        "FlocResult", "MiningResult", "floc", "impute", "mean_abs_residue",
        "mean_squared_residue", "mine_delta_clusters", "pool_mining_results",
        "predict_entry", "prediction_error", "residue_matrix",
        "restart_seed", "run_restart", "submatrix_residue",
    ),
    ".data": (
        "MovieLensDataset", "SyntheticDataset", "YeastDataset",
        "figure4_cluster", "figure4_matrix", "generate_embedded",
        "generate_ratings", "generate_yeast_like",
    ),
    ".eval": (
        "ExperimentConfig", "SignificanceReport", "clustering_report",
        "format_table", "recall_precision", "residue_significance",
        "run_trial", "run_trials",
    ),
    ".obs": (
        "ActionEvent", "ConsoleProgressSink", "FaultEvent", "IterationEvent",
        "JsonlSink", "MetricsRegistry", "RetryEvent", "RingBufferSink",
        "SeedEvent", "TaskEvent", "TraceAnalysis", "TraceDiff", "Tracer",
        "analyze_records", "analyze_trace", "diff_traces", "read_jsonl",
    ),
    ".runtime": (
        "CheckpointStore", "DegradationReport", "FaultPlan", "FaultSpec",
        "RunConfig", "RuntimeResult", "TaskFailure", "resume_run",
        "run_supervised",
    ),
    ".subspace": ("alternative_delta_clusters", "clique", "derived_matrix"),
})

__all__ = [
    "Action",
    "ActionEvent",
    "Bicluster",
    "ChengChurchResult",
    "CheckpointStore",
    "Clustering",
    "ConsoleProgressSink",
    "Constraints",
    "DataMatrix",
    "DegradationReport",
    "DeltaCluster",
    "ExperimentConfig",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "FlocResult",
    "IterationEvent",
    "JsonlSink",
    "MetricsRegistry",
    "MiningResult",
    "MovieLensDataset",
    "RetryEvent",
    "RingBufferSink",
    "RunConfig",
    "RuntimeResult",
    "SeedEvent",
    "SignificanceReport",
    "SyntheticDataset",
    "TaskEvent",
    "TaskFailure",
    "TraceAnalysis",
    "TraceDiff",
    "Tracer",
    "YeastDataset",
    "__version__",
    "alternative_delta_clusters",
    "analyze_records",
    "analyze_trace",
    "clique",
    "clustering_report",
    "derived_matrix",
    "diff_traces",
    "figure4_cluster",
    "figure4_matrix",
    "fill_missing_with_random",
    "find_bicluster",
    "find_biclusters",
    "floc",
    "format_table",
    "generate_embedded",
    "generate_ratings",
    "generate_yeast_like",
    "impute",
    "mean_abs_residue",
    "mean_squared_residue",
    "mine_delta_clusters",
    "msr",
    "pearson_r",
    "pool_mining_results",
    "predict_entry",
    "prediction_error",
    "read_jsonl",
    "recall_precision",
    "residue_matrix",
    "residue_significance",
    "restart_seed",
    "resume_run",
    "run_restart",
    "run_supervised",
    "run_trial",
    "run_trials",
    "submatrix_residue",
]


def __getattr__(name: str) -> object:
    return _resolve(name)
