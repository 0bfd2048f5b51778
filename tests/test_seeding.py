"""Unit tests for Phase-1 seeding (Sections 4.1 and 5.1)."""

import numpy as np
import pytest

from repro.core.cluster import DeltaCluster
from repro.core.seeding import (
    axis_seeds,
    bernoulli_seeds,
    mixed_seeds,
    seeds_from_clusters,
    volume_seeds,
)


class TestBernoulliSeeds:
    def test_count_and_shapes(self):
        rng = np.random.default_rng(0)
        seeds = bernoulli_seeds(50, 20, 5, 0.3, rng)
        assert len(seeds) == 5
        for rows, cols in seeds:
            assert rows.shape == (50,)
            assert cols.shape == (20,)
            assert rows.dtype == bool

    def test_expected_size(self):
        rng = np.random.default_rng(1)
        seeds = bernoulli_seeds(2000, 1000, 10, 0.25, rng)
        row_fraction = np.mean([s[0].mean() for s in seeds])
        col_fraction = np.mean([s[1].mean() for s in seeds])
        assert row_fraction == pytest.approx(0.25, abs=0.03)
        assert col_fraction == pytest.approx(0.25, abs=0.03)

    def test_minimum_enforced(self):
        rng = np.random.default_rng(2)
        seeds = bernoulli_seeds(100, 30, 20, 0.01, rng, min_rows=2, min_cols=2)
        for rows, cols in seeds:
            assert rows.sum() >= 2
            assert cols.sum() >= 2

    def test_deterministic(self):
        a = bernoulli_seeds(30, 10, 3, 0.5, np.random.default_rng(9))
        b = bernoulli_seeds(30, 10, 3, 0.5, np.random.default_rng(9))
        for (ra, ca), (rb, cb) in zip(a, b):
            assert (ra == rb).all() and (ca == cb).all()


class TestMixedSeeds:
    def test_p_values_cycled(self):
        rng = np.random.default_rng(3)
        seeds = mixed_seeds(4000, 4000, 4, [0.05, 0.5], rng)
        sizes = [s[0].mean() for s in seeds]
        # Seeds 0 and 2 use p=0.05, seeds 1 and 3 use p=0.5.
        assert sizes[0] < 0.15 < sizes[1]
        assert sizes[2] < 0.15 < sizes[3]

    def test_invalid_p(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="probability"):
            mixed_seeds(10, 10, 2, [0.0], rng)
        with pytest.raises(ValueError, match="probability"):
            mixed_seeds(10, 10, 2, [1.5], rng)

    def test_empty_p_values(self):
        with pytest.raises(ValueError, match="empty"):
            mixed_seeds(10, 10, 2, [], np.random.default_rng(0))

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="k"):
            mixed_seeds(10, 10, 0, [0.3], np.random.default_rng(0))

    def test_matrix_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            mixed_seeds(1, 10, 2, [0.3], np.random.default_rng(0), min_rows=2)


class TestAxisSeeds:
    def test_paper_table23_proportions(self):
        # "0.05 x N rows and 0.2 x M columns" (Section 6.2.1).
        rng = np.random.default_rng(0)
        seeds = axis_seeds(3000, 1000, 10, 0.05, 0.2, rng)
        row_fraction = np.mean([s[0].mean() for s in seeds])
        col_fraction = np.mean([s[1].mean() for s in seeds])
        assert row_fraction == pytest.approx(0.05, abs=0.01)
        assert col_fraction == pytest.approx(0.2, abs=0.03)

    def test_minimums_enforced(self):
        rng = np.random.default_rng(1)
        seeds = axis_seeds(50, 20, 5, 0.01, 0.01, rng, min_rows=3, min_cols=3)
        for rows, cols in seeds:
            assert rows.sum() >= 3
            assert cols.sum() >= 3

    def test_validation(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="k"):
            axis_seeds(10, 10, 0, 0.5, 0.5, rng)
        with pytest.raises(ValueError, match="p_rows"):
            axis_seeds(10, 10, 1, 0.0, 0.5, rng)
        with pytest.raises(ValueError, match="p_cols"):
            axis_seeds(10, 10, 1, 0.5, 1.5, rng)
        with pytest.raises(ValueError, match="too small"):
            axis_seeds(1, 10, 1, 0.5, 0.5, rng, min_rows=2)

    def test_usable_as_floc_seeds(self):
        from repro import DataMatrix, floc

        rng = np.random.default_rng(3)
        matrix = DataMatrix(rng.normal(size=(30, 12)))
        seeds = axis_seeds(30, 12, 2, 0.2, 0.4, np.random.default_rng(4))
        result = floc(matrix, 2, seeds=seeds, rng=5, max_iterations=5, gain_mode="exact")
        assert len(result.clustering) == 2


class TestVolumeSeeds:
    def test_volumes_respected_approximately(self):
        rng = np.random.default_rng(4)
        seeds = volume_seeds(300, 100, [300.0, 1200.0], rng)
        cells = [int(r.sum()) * int(c.sum()) for r, c in seeds]
        assert cells[0] == pytest.approx(300, rel=0.4)
        assert cells[1] == pytest.approx(1200, rel=0.4)

    def test_aspect_ratio_followed(self):
        rng = np.random.default_rng(5)
        ((rows, cols),) = volume_seeds(1000, 10, [400.0], rng)
        # 1000x10 matrix: a 400-cell seed should be much taller than wide.
        assert rows.sum() > cols.sum()

    def test_invalid_volume(self):
        with pytest.raises(ValueError, match="positive"):
            volume_seeds(10, 10, [0.0], np.random.default_rng(0))

    def test_distinct_members(self):
        rng = np.random.default_rng(6)
        ((rows, cols),) = volume_seeds(20, 20, [100.0], rng)
        # Boolean representation cannot double-count, but the counts must
        # stay within matrix bounds.
        assert rows.sum() <= 20
        assert cols.sum() <= 20


class TestSeedsFromClusters:
    def test_round_trip(self):
        cluster = DeltaCluster((1, 3), (0, 2))
        ((rows, cols),) = seeds_from_clusters(5, 4, [cluster])
        assert np.flatnonzero(rows).tolist() == [1, 3]
        assert np.flatnonzero(cols).tolist() == [0, 2]

    def test_out_of_range(self):
        cluster = DeltaCluster((10,), (0,))
        with pytest.raises(IndexError):
            seeds_from_clusters(5, 4, [cluster])

    def test_empty_cluster_gives_empty_seed(self):
        ((rows, cols),) = seeds_from_clusters(3, 3, [DeltaCluster((), ())])
        assert rows.sum() == 0
        assert cols.sum() == 0
