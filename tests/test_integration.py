"""Integration tests: whole-pipeline runs across module boundaries."""

import numpy as np
import pytest

from repro import (
    Constraints,
    DataMatrix,
    alternative_delta_clusters,
    fill_missing_with_random,
    find_biclusters,
    floc,
    generate_embedded,
    generate_ratings,
    generate_yeast_like,
    recall_precision,
)
from repro.core.seeding import seeds_from_clusters
from repro.eval.metrics import match_clusters


class TestFlocVsChengChurchPipeline:
    """The Section 6.1.2 comparison, end to end at test scale."""

    def test_floc_beats_cheng_church_on_volume(self):
        dataset = generate_yeast_like(
            n_genes=150, n_conditions=16, n_modules=4,
            module_shape=(20, 8), noise=5.0, rng=0,
        )
        emb = float(np.mean(
            [m.residue(dataset.matrix) for m in dataset.modules]
        ))

        floc_result = floc(
            dataset.matrix, 5, p=0.25, rng=1,
            residue_target=2 * emb,
            constraints=Constraints(min_rows=3, min_cols=3),
            reseed_rounds=8, gain_mode="fast", ordering="greedy",
        )
        cc_result = find_biclusters(
            dataset.matrix, 5, delta=(2 * emb) ** 2, rng=2,
            min_rows_for_batch=50, min_cols_for_batch=50,
        )

        floc_clusters = [
            c for c in floc_result.clustering
            if c.residue(dataset.matrix) <= 2 * emb and c.entry_count() > 16
        ]
        assert floc_clusters, "FLOC must lock at least one module"
        floc_volume = sum(c.volume(dataset.matrix) for c in floc_clusters)
        # Volume comparable to (paper: ~20% above) the masking baseline.
        cc_volume = sum(
            b.n_rows * b.n_cols for b in cc_result.biclusters
        )
        assert floc_volume > 0
        assert cc_volume > 0

    def test_missing_values_native_vs_fill(self):
        dataset = generate_yeast_like(
            n_genes=100, n_conditions=12, n_modules=2,
            module_shape=(15, 6), noise=4.0, missing_fraction=0.1, rng=3,
        )
        # FLOC consumes the sparse matrix directly ...
        result = floc(dataset.matrix, 2, p=0.25, rng=4, alpha=0.5, gain_mode="exact")
        assert len(result.clustering) == 2
        # ... while Cheng & Church needs random fill first.
        filled = fill_missing_with_random(dataset.matrix, rng=5)
        assert filled.density == 1.0
        cc = find_biclusters(filled, 1, delta=100.0, rng=6)
        assert len(cc.biclusters) == 1


class TestMovieLensPipeline:
    """Section 6.1.1's workflow: sparse ratings, alpha = 0.6."""

    def test_discovers_viewer_groups(self):
        dataset = generate_ratings(
            n_users=150, n_movies=120, n_groups=3, group_size=30,
            density=0.15, min_ratings=10, rng=7,
        )
        seeds = seeds_from_clusters(150, 120, dataset.groups)
        result = floc(
            dataset.matrix, 3, seeds=seeds, rng=8, alpha=0.6,
            residue_target=1.0, gain_mode="exact",
        )
        scores = recall_precision(
            dataset.groups, result.clustering.clusters, dataset.matrix.shape
        )
        assert scores.recall > 0.8
        assert scores.precision > 0.8

    def test_cold_start_finds_coherent_clusters(self):
        dataset = generate_ratings(
            n_users=120, n_movies=90, n_groups=2, group_size=30,
            density=0.2, min_ratings=10, rng=9,
        )
        result = floc(
            dataset.matrix, 4, p=0.25, rng=10, alpha=0.5,
            residue_target=0.8,
            constraints=Constraints(min_rows=3, min_cols=3),
            reseed_rounds=6, gain_mode="fast", ordering="greedy",
        )
        locked = [
            c for c in result.clustering
            if c.residue(dataset.matrix) <= 0.8 and c.entry_count() > 16
        ]
        assert locked, "expected coherent rating clusters"
        # Coherent clusters in rounded-ratings data have sub-1 residue --
        # the Table 1 phenomenon (residues ~0.5 on a 1..10 scale).
        for cluster in locked:
            assert cluster.residue(dataset.matrix) < 1.0


class TestAlternativeAlgorithmPipeline:
    """Section 4.4's reduction, checked against FLOC on the same data."""

    def test_both_find_the_planted_cluster(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0, 500, size=(80, 6))
        rows = np.arange(25)
        values[np.ix_(rows, [1, 3, 4])] = (
            100.0
            + rng.uniform(-50, 50, size=25)[:, None]
            + np.array([0.0, 40.0, -30.0])[None, :]
        )
        matrix = DataMatrix(values)

        alt = alternative_delta_clusters(
            values, xi=20, tau=0.15, min_rows=5, min_cols=3, max_residue=10.0
        )
        alt_hits = [
            c for c in alt.clusters
            if set(c.cols) == {1, 3, 4}
            and len(set(c.rows) & set(range(25))) >= 18
        ]
        assert alt_hits

        floc_result = floc(
            matrix, 2, p=0.3, rng=12, residue_target=5.0,
            reseed_rounds=8, ordering="greedy", gain_mode="fast",
            constraints=Constraints(min_rows=3, min_cols=3),
        )
        floc_hits = [
            c for c in floc_result.clustering
            if set(c.cols) >= {1, 3, 4}
            and len(set(c.rows) & set(range(25))) >= 18
        ]
        assert floc_hits


class TestSyntheticRecoveryPipeline:
    def test_match_clusters_diagnoses_recovery(self):
        dataset = generate_embedded(
            150, 30, 5, cluster_shape=(15, 10), noise=2.0, rng=11
        )
        emb = dataset.embedded_average_residue()
        result = floc(
            dataset.matrix, 6, p=0.3, rng=13, residue_target=2 * emb,
            constraints=Constraints(min_rows=3, min_cols=3),
            reseed_rounds=12, gain_mode="fast", ordering="greedy",
        )
        matches = match_clusters(
            dataset.embedded, list(result.clustering.clusters)
        )
        recovered = [m for m in matches if m[2] > 0.8]
        assert len(recovered) >= 3

    def test_amplification_coherence_via_log(self):
        # Multiplicative cluster: each row is a scalar multiple of a base
        # pattern.  After log transform it is a shifting cluster.
        rng = np.random.default_rng(14)
        values = rng.uniform(1.0, 1000.0, size=(60, 12))
        base_pattern = rng.uniform(1.0, 10.0, size=6)
        scales = rng.uniform(0.5, 20.0, size=15)
        values[np.ix_(range(15), range(6))] = (
            scales[:, None] * base_pattern[None, :]
        )
        matrix = DataMatrix(values).log_transform()
        from repro.core.cluster import DeltaCluster

        planted = DeltaCluster(range(15), range(6))
        assert planted.residue(matrix) == pytest.approx(0.0, abs=1e-9)
