"""Unit tests for the multi-restart mining front end."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.cluster import DeltaCluster
from repro.core.clustering import Clustering
from repro.core.floc import FlocResult
from repro.core.matrix import DataMatrix
from repro.core.mining import (
    MiningResult, mine_delta_clusters, pool_mining_results, run_restart,
)
from repro.core.params import MiningParams
from repro.data.synthetic import generate_embedded
from repro.eval.metrics import recall_precision


@pytest.fixture(scope="module")
def workload():
    return generate_embedded(
        200, 40, 5, cluster_shape=(20, 14), noise=2.5, rng=3
    )


class TestValidation:
    def test_target_positive(self, workload):
        with pytest.raises(ValueError, match="residue_target"):
            mine_delta_clusters(workload.matrix, residue_target=0.0)

    def test_restarts_positive(self, workload):
        with pytest.raises(ValueError, match="n_restarts"):
            mine_delta_clusters(
                workload.matrix, residue_target=1.0, n_restarts=0
            )

    def test_overlap_range(self, workload):
        with pytest.raises(ValueError, match="max_overlap"):
            mine_delta_clusters(
                workload.matrix, residue_target=1.0, max_overlap=1.5
            )

    def test_out_of_range_parameters_refused_before_mining(self, workload):
        for name, value in (("k", 0), ("alpha", 2.0), ("p", 1.5), ("min_rows", 500)):
            with pytest.raises(ValueError, match=f"^{name} "):
                mine_delta_clusters(
                    workload.matrix, residue_target=1.0, **{name: value}
                )

    def test_accepts_raw_array(self, workload):
        result = mine_delta_clusters(
            workload.matrix.values, residue_target=5.0,
            k=4, n_restarts=1, reseed_rounds=2, rng=0,
        )
        assert isinstance(result, MiningResult)


class TestMining:
    def test_all_returned_clusters_meet_contract(self, workload):
        target = 2 * workload.embedded_average_residue()
        result = mine_delta_clusters(
            workload.matrix, residue_target=target,
            k=6, n_restarts=2, reseed_rounds=6, min_volume=40, rng=1,
        )
        for cluster in result.clustering:
            assert cluster.residue(workload.matrix) <= target
            assert cluster.n_rows >= 3
            assert cluster.n_cols >= 3
            assert cluster.volume(workload.matrix) >= 40

    def test_recovers_planted_structure(self, workload):
        target = 2 * workload.embedded_average_residue()
        result = mine_delta_clusters(
            workload.matrix, residue_target=target,
            k=6, n_restarts=2, reseed_rounds=8, rng=1,
        )
        scores = recall_precision(
            workload.embedded, list(result.clustering), workload.matrix.shape
        )
        assert scores.precision > 0.8
        assert scores.recall > 0.5

    def test_deduplication_drops_overlaps(self, workload):
        target = 2 * workload.embedded_average_residue()
        result = mine_delta_clusters(
            workload.matrix, residue_target=target,
            k=6, n_restarts=3, reseed_rounds=6, max_overlap=0.5, rng=2,
        )
        clusters = list(result.clustering)
        for i, first in enumerate(clusters):
            for second in clusters[i + 1:]:
                assert first.overlap_fraction(second) <= 0.5
        assert result.n_pooled >= len(clusters)
        assert result.n_deduplicated == result.n_pooled - len(clusters)

    def test_max_clusters_cap(self, workload):
        target = 2 * workload.embedded_average_residue()
        result = mine_delta_clusters(
            workload.matrix, residue_target=target,
            k=6, n_restarts=2, reseed_rounds=6, max_clusters=2, rng=3,
        )
        assert len(result.clustering) <= 2

    def test_clusters_sorted_by_volume(self, workload):
        target = 2 * workload.embedded_average_residue()
        result = mine_delta_clusters(
            workload.matrix, residue_target=target,
            k=6, n_restarts=2, reseed_rounds=6, rng=4,
        )
        volumes = [c.volume(workload.matrix) for c in result.clustering]
        assert volumes == sorted(volumes, reverse=True)

    def test_runs_recorded_and_timed(self, workload):
        result = mine_delta_clusters(
            workload.matrix, residue_target=5.0,
            k=4, n_restarts=2, reseed_rounds=2, rng=5,
        )
        assert len(result.runs) == 2
        assert result.elapsed_seconds > 0.0


class TestPoolingOccupancy:
    def test_alpha_drops_clusters_below_occupancy(self):
        """Pooling with ``alpha`` keeps only the clusters that meet it,
        whichever run holds them, and ``alpha == 0`` keeps the pool
        unchanged.  FLOC's lanes block the moves that break alpha, so a
        hand-built run holds the violator: the planted cluster of lowest
        residue, one of whose columns is blanked on 16 of its 30 rows."""
        data = generate_embedded(
            160, 32, 4, cluster_shape=(30, 12), noise=2,
            missing_fraction=0.2, rng=1,
        )
        alpha = 0.5
        planted = min(data.embedded, key=lambda c: c.residue(data.matrix))
        rows, cols = np.asarray(planted.rows), np.asarray(planted.cols)
        values = data.matrix.values.copy()
        values[rows[:16], cols[0]] = np.nan
        matrix = DataMatrix(values)
        held = DeltaCluster(rows, cols)
        assert not held.occupancy_ok(matrix, alpha)
        params = MiningParams(residue_target=8.0, k=8, alpha=alpha,
                              reseed_rounds=2)
        runs = [
            run_restart(matrix, restart, params, root_seed=1)
            for restart in range(4)
        ]
        runs.append(FlocResult(
            clustering=Clustering(matrix, [held]), n_iterations=0,
            initial_residue=0.0,
        ))
        unchecked = pool_mining_results(
            matrix, runs, MiningParams(residue_target=8.0)
        )
        checked = pool_mining_results(matrix, runs, params)
        assert any(not c.occupancy_ok(matrix, alpha) for c in unchecked.clustering)
        assert checked.clustering.clusters
        assert all(c.occupancy_ok(matrix, alpha) for c in checked.clustering)
        assert pool_mining_results(
            matrix, runs, replace(params, alpha=0.0)
        ).clustering.clusters == unchecked.clustering.clusters
