"""Edge cases and regression guards across modules."""

import numpy as np
import pytest

from repro import (
    Constraints,
    DataMatrix,
    DeltaCluster,
    floc,
    generate_embedded,
)
from repro.core.clustering import Clustering
from repro.core.floc import GAIN_MODES
from repro.core.ordering import ORDERINGS
from repro.eval.experiment import ExperimentConfig, run_trial

NAN = float("nan")


class TestTinyMatrices:
    def test_floc_on_2x2(self):
        matrix = DataMatrix([[1.0, 2.0], [3.0, 4.0]])
        result = floc(matrix, 1, p=1.0, rng=0, gain_mode="exact")
        assert len(result.clustering) == 1

    def test_floc_on_single_column_matrix_rejected_by_floor(self):
        matrix = DataMatrix([[1.0], [2.0], [3.0]])
        with pytest.raises(ValueError, match="too small"):
            floc(matrix, 1, p=0.5, rng=0, gain_mode="exact")

    def test_single_cluster_whole_matrix_seed(self):
        rng = np.random.default_rng(0)
        matrix = DataMatrix(rng.normal(size=(6, 4)))
        result = floc(matrix, 1, p=1.0, rng=1, max_iterations=5, gain_mode="exact")
        assert result.n_iterations >= 1

    def test_k_larger_than_matrix_rows(self):
        rng = np.random.default_rng(1)
        matrix = DataMatrix(rng.normal(size=(5, 5)))
        result = floc(matrix, 8, p=0.5, rng=2, max_iterations=5, gain_mode="exact")
        assert len(result.clustering) == 8


class TestHighlyMissingData:
    def test_floc_survives_80_percent_missing(self):
        dataset = generate_embedded(
            60, 20, 1, cluster_shape=(10, 8), missing_fraction=0.8, rng=3
        )
        result = floc(dataset.matrix, 2, p=0.4, rng=4, max_iterations=10, gain_mode="exact")
        assert len(result.clustering) == 2

    def test_cluster_of_fully_missing_region(self):
        values = np.full((6, 6), NAN)
        values[3:, 3:] = 1.0
        matrix = DataMatrix(values)
        cluster = DeltaCluster((0, 1), (0, 1))  # entirely missing block
        assert cluster.volume(matrix) == 0
        assert cluster.residue(matrix) == 0.0
        assert cluster.diameter(matrix) == 0.0

    def test_clustering_statistics_with_missing(self):
        values = np.full((4, 4), NAN)
        values[0, 0] = 1.0
        matrix = DataMatrix(values)
        clustering = Clustering(matrix, [DeltaCluster((0, 1), (0, 1))])
        assert clustering.total_volume() == 1
        assert clustering.average_residue() == 0.0


class TestConstantData:
    def test_constant_matrix_residue_zero(self):
        matrix = DataMatrix(np.full((8, 6), 42.0))
        cluster = DeltaCluster(range(8), range(6))
        assert cluster.residue(matrix) == 0.0

    def test_floc_on_constant_matrix(self):
        matrix = DataMatrix(np.full((10, 8), 1.0))
        result = floc(matrix, 2, p=0.4, rng=5, max_iterations=5, gain_mode="exact")
        assert result.average_residue == 0.0


class TestParameterMatrix:
    """Every (ordering, gain_mode, target?) combination must run."""

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("gain_mode", GAIN_MODES)
    @pytest.mark.parametrize("target", [None, 5.0])
    def test_combination_runs(self, ordering, gain_mode, target):
        dataset = generate_embedded(
            40, 12, 1, cluster_shape=(8, 6), noise=1.0, rng=6
        )
        result = floc(
            dataset.matrix, 2, p=0.3,
            ordering=ordering, gain_mode=gain_mode, residue_target=target,
            rng=7, max_iterations=8,
        )
        assert len(result.clustering) == 2
        assert result.n_iterations <= 8


class TestExperimentConfigExtras:
    def test_residue_target_factor_scales_to_embedded(self):
        config = ExperimentConfig(
            n_rows=60, n_cols=15, n_embedded=2, embedded_shape=(8, 6),
            noise=1.0, k=2, p=0.3, residue_target_factor=2.0,
            reseed_rounds=2, ordering="greedy", gain_mode="fast",
            max_iterations=15,
        )
        result = run_trial(config, rng=0)
        assert result.n_iterations >= 1
        assert 0.0 <= result.recall <= 1.0

    def test_explicit_target_takes_precedence(self):
        config = ExperimentConfig(
            n_rows=50, n_cols=12, n_embedded=1, embedded_shape=(8, 6),
            noise=1.0, k=2, p=0.3,
            residue_target=3.0, residue_target_factor=99.0,
            max_iterations=10,
        )
        result = run_trial(config, rng=1)
        assert result.n_iterations >= 1

    def test_mandatory_moves_forwarded(self):
        config = ExperimentConfig(
            n_rows=40, n_cols=10, n_embedded=1, embedded_shape=(6, 5),
            noise=1.0, k=2, p=0.3, mandatory_moves=True, max_iterations=6,
        )
        result = run_trial(config, rng=2)
        assert result.n_actions > 0


class TestExtremeValues:
    def test_large_magnitudes(self):
        rng = np.random.default_rng(8)
        matrix = DataMatrix(rng.uniform(1e9, 2e9, size=(20, 8)))
        result = floc(matrix, 1, p=0.4, rng=9, max_iterations=5, gain_mode="exact")
        assert np.isfinite(result.average_residue)

    def test_negative_values(self):
        rng = np.random.default_rng(10)
        matrix = DataMatrix(rng.uniform(-500, -100, size=(20, 8)))
        result = floc(matrix, 1, p=0.4, rng=11, max_iterations=5, gain_mode="exact")
        assert result.average_residue >= 0.0

    def test_mixed_scale_columns(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=(20, 6))
        values[:, 0] *= 1e6
        matrix = DataMatrix(values)
        cluster = DeltaCluster(range(20), range(6))
        assert np.isfinite(cluster.residue(matrix))


class TestOverlappingPlantedColumns:
    def test_clusters_sharing_columns_recovered(self):
        # Planted clusters share columns heavily (rows are disjoint by
        # construction); overlap-aware mining must still separate them.
        rng = np.random.default_rng(13)
        values = rng.uniform(0, 600, size=(120, 20))
        shared_cols = np.arange(12)
        for block, rows in enumerate((range(0, 30), range(30, 60))):
            rows = np.array(list(rows))
            values[np.ix_(rows, shared_cols)] = (
                100.0 * (block + 1)
                + rng.uniform(-50, 50, size=rows.size)[:, None]
                + rng.uniform(-50, 50, size=shared_cols.size)[None, :]
            )
        matrix = DataMatrix(values)
        result = floc(
            matrix, 4, p=0.3, rng=14, residue_target=1.0,
            constraints=Constraints(min_rows=3, min_cols=3),
            reseed_rounds=8, gain_mode="fast", ordering="greedy",
        )
        hits = 0
        for rows in (set(range(0, 30)), set(range(30, 60))):
            for cluster in result.clustering:
                if len(set(cluster.rows) & rows) >= 25 and cluster.n_cols >= 10:
                    hits += 1
                    break
        assert hits == 2
