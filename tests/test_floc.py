"""Unit and behaviour tests for the FLOC algorithm (Sections 4-5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import DeltaCluster
from repro.core.constraints import Constraints
from repro.core.floc import GAIN_MODES, FlocResult, floc
from repro.core.matrix import DataMatrix
from repro.core.params import ParameterError
from repro.core.seeding import seeds_from_clusters
from repro.data.synthetic import generate_embedded
from repro.eval.metrics import recall_precision

NAN = float("nan")


@st.composite
def sparse_floc_runs(draw):
    """A small matrix, NaN-free to NaN-heavy, with any number of
    all-missing rows and columns, and ``floc`` arguments at alpha > 0:
    both gain modes, every ordering, reseed rounds and Cons_o."""
    n_rows, n_cols = draw(st.integers(4, 12)), draw(st.integers(4, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(scale=3.0, size=(n_rows, n_cols))
    density = draw(st.sampled_from((1.0, 0.8, 0.6, 0.3)))
    values[rng.random(values.shape) >= density] = NAN
    values[draw(st.lists(st.integers(0, n_rows - 1), max_size=n_rows)), :] = NAN
    values[:, draw(st.lists(st.integers(0, n_cols - 1), max_size=n_cols))] = NAN
    kwargs = dict(
        alpha=draw(st.sampled_from((1 / 3, 0.5, 0.6, 1.0))),
        gain_mode=draw(st.sampled_from(GAIN_MODES)),
        ordering=draw(st.sampled_from(("fixed", "random", "weighted", "greedy"))),
        residue_target=draw(st.sampled_from((None, 2.0))),
        reseed_rounds=draw(st.integers(0, 2)),
        constraints=Constraints(max_overlap=draw(st.sampled_from((None, 0.3)))),
        p=draw(st.sampled_from((0.3, (0.2, 0.6)))),
        rng=draw(st.integers(0, 2**16)),
        max_iterations=8,
    )
    return DataMatrix(values), draw(st.integers(1, 3)), kwargs


def planted_dataset(rng=3, noise=2.0):
    """A small matrix with 4 planted clusters in the recoverable regime."""
    return generate_embedded(
        120, 24, 4, cluster_shape=(12, 8), noise=noise, rng=rng
    )


class TestValidation:
    def setup_method(self):
        self.matrix = DataMatrix(np.random.default_rng(0).normal(size=(10, 6)))

    def test_k_positive(self):
        with pytest.raises(ValueError, match="k"):
            floc(self.matrix, 0, gain_mode="exact")

    def test_ordering_checked(self):
        with pytest.raises(ValueError, match="ordering"):
            floc(self.matrix, 1, ordering="sorted", gain_mode="exact")

    def test_gain_mode_checked(self):
        with pytest.raises(ValueError, match="gain_mode"):
            floc(self.matrix, 1, gain_mode="approximate")

    def test_alpha_checked(self):
        with pytest.raises(ValueError, match="alpha"):
            floc(self.matrix, 1, alpha=2.0, gain_mode="exact")

    @pytest.mark.parametrize("target", [0.0, -1.0])
    def test_residue_target_checked(self, target):
        with pytest.raises(ParameterError, match="residue_target"):
            floc(self.matrix, 1, residue_target=target, gain_mode="exact")

    def test_max_iterations_checked(self):
        with pytest.raises(ValueError, match="max_iterations"):
            floc(self.matrix, 1, max_iterations=0, gain_mode="exact")

    def test_seed_count_checked(self):
        seeds = seeds_from_clusters(10, 6, [DeltaCluster((0, 1), (0, 1))])
        with pytest.raises(ValueError, match="seeds"):
            floc(self.matrix, 2, seeds=seeds, gain_mode="exact")

    def test_seed_shape_checked(self):
        bad = [(np.ones(3, dtype=bool), np.ones(6, dtype=bool))]
        with pytest.raises(ValueError, match="shape"):
            floc(self.matrix, 1, seeds=bad, gain_mode="exact")

    def test_accepts_raw_array(self):
        result = floc(np.random.default_rng(0).normal(size=(10, 6)), 1, rng=0,
                      gain_mode="exact")
        assert isinstance(result, FlocResult)


class TestBasicBehaviour:
    def test_result_fields(self):
        matrix = DataMatrix(np.random.default_rng(0).uniform(0, 10, (20, 8)))
        result = floc(matrix, 2, p=0.3, rng=1, gain_mode="exact")
        assert result.n_iterations >= 1
        assert len(result.clustering) == 2
        assert result.elapsed_seconds >= 0.0
        assert result.initial_residue >= 0.0
        assert len(result.history) == result.n_iterations

    def test_deterministic_with_int_seed(self):
        matrix = DataMatrix(np.random.default_rng(5).uniform(0, 10, (25, 10)))
        a = floc(matrix, 3, p=0.3, rng=42, gain_mode="exact")
        b = floc(matrix, 3, p=0.3, rng=42, gain_mode="exact")
        assert a.clustering.clusters == b.clustering.clusters
        assert a.n_iterations == b.n_iterations

    def test_history_non_increasing(self):
        matrix = DataMatrix(np.random.default_rng(2).uniform(0, 10, (30, 10)))
        result = floc(matrix, 2, p=0.3, rng=3, mandatory_moves=True, gain_mode="exact")
        history = result.history
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_final_not_worse_than_initial(self):
        matrix = DataMatrix(np.random.default_rng(4).uniform(0, 10, (30, 10)))
        result = floc(matrix, 2, p=0.4, rng=5, gain_mode="exact")
        assert result.average_residue <= result.initial_residue + 1e-9

    def test_all_orderings_run(self):
        matrix = DataMatrix(np.random.default_rng(6).uniform(0, 10, (20, 8)))
        for ordering in ("fixed", "random", "weighted"):
            result = floc(matrix, 2, p=0.3, ordering=ordering, rng=7, gain_mode="exact")
            assert len(result.clustering) == 2

    def test_fast_mode_runs(self):
        matrix = DataMatrix(np.random.default_rng(8).uniform(0, 10, (20, 8)))
        result = floc(matrix, 2, p=0.3, gain_mode="fast", rng=9)
        assert len(result.clustering) == 2

    def test_mandatory_moves_runs(self):
        matrix = DataMatrix(np.random.default_rng(8).uniform(0, 10, (15, 6)))
        result = floc(matrix, 2, p=0.3, mandatory_moves=True, rng=9, gain_mode="exact")
        assert len(result.clustering) == 2


class TestWarmStartStability:
    def test_ground_truth_is_fixed_point(self):
        # With noiseless planted clusters and an r-residue target, the
        # ground truth is an exact fixed point: no planted line can leave
        # (negative volume gain), no junk line fits the admission test.
        dataset = planted_dataset(noise=0.0)
        seeds = seeds_from_clusters(
            dataset.matrix.n_rows, dataset.matrix.n_cols, dataset.embedded
        )
        result = floc(
            dataset.matrix, len(seeds), seeds=seeds, rng=0, residue_target=1.0,
            gain_mode="exact",
        )
        scores = recall_precision(
            dataset.embedded, result.clustering.clusters, dataset.matrix.shape
        )
        assert scores.recall == pytest.approx(1.0)
        assert scores.precision == pytest.approx(1.0)

    def test_ground_truth_mostly_stable_with_noise(self):
        dataset = planted_dataset(noise=2.0)
        seeds = seeds_from_clusters(
            dataset.matrix.n_rows, dataset.matrix.n_cols, dataset.embedded
        )
        emb = dataset.embedded_average_residue()
        result = floc(
            dataset.matrix, len(seeds), seeds=seeds, rng=0,
            residue_target=3 * emb, gain_mode="exact",
        )
        scores = recall_precision(
            dataset.embedded, result.clustering.clusters, dataset.matrix.shape
        )
        assert scores.recall > 0.9
        assert scores.precision > 0.9

    def test_contaminated_seed_cleans_up_exactly_with_greedy(self):
        dataset = generate_embedded(
            160, 40, 4, cluster_shape=(16, 13), noise=2.0, rng=3
        )
        target = dataset.embedded[0]
        rng = np.random.default_rng(7)
        junk_rows = rng.choice(
            [r for r in range(160) if r not in target.rows], 8, replace=False
        )
        junk_cols = rng.choice(
            [c for c in range(40) if c not in target.cols], 5, replace=False
        )
        contaminated = DeltaCluster(
            list(target.rows) + list(junk_rows),
            list(target.cols) + list(junk_cols),
        )
        seeds = seeds_from_clusters(160, 40, [contaminated])
        emb = dataset.embedded_average_residue()
        result = floc(
            dataset.matrix, 1, seeds=seeds, rng=5,
            residue_target=2 * emb, ordering="greedy", gain_mode="exact",
        )
        found = result.clustering[0]
        assert set(found.rows) == set(target.rows)
        assert set(found.cols) == set(target.cols)

    def test_contaminated_seed_reaches_target_with_weighted(self):
        # The paper's weighted ordering reliably drives a contaminated
        # seed to a coherent (target-respecting) cluster; recovering the
        # planted submatrix *exactly* in a single shot is only guaranteed
        # by the greedy extension (see the test above).
        dataset = generate_embedded(
            300, 60, 10, cluster_shape=(12, 6), noise=3.0, rng=3
        )
        target = dataset.embedded[0]
        rng = np.random.default_rng(7)
        junk_rows = rng.choice(
            [r for r in range(300) if r not in target.rows], 12, replace=False
        )
        junk_cols = rng.choice(
            [c for c in range(60) if c not in target.cols], 6, replace=False
        )
        contaminated = DeltaCluster(
            list(target.rows) + list(junk_rows),
            list(target.cols) + list(junk_cols),
        )
        seeds = seeds_from_clusters(300, 60, [contaminated])
        emb = dataset.embedded_average_residue()
        result = floc(
            dataset.matrix, 1, seeds=seeds, rng=5, residue_target=2 * emb,
            gain_mode="exact",
        )
        found = result.clustering[0]
        assert found.residue(dataset.matrix) <= 2 * emb
        assert found.entry_count() < contaminated.entry_count()


class TestPlantedRecovery:
    def test_cold_start_recovers_clusters(self):
        dataset = generate_embedded(
            150, 30, 5, cluster_shape=(15, 10), noise=2.0, rng=11
        )
        emb = dataset.embedded_average_residue()
        result = floc(
            dataset.matrix, 6, p=0.3, rng=13,
            residue_target=2 * emb,
            constraints=Constraints(min_rows=3, min_cols=3),
            reseed_rounds=12,
            gain_mode="fast",
            ordering="greedy",
        )
        scores = recall_precision(
            dataset.embedded, result.clustering.clusters, dataset.matrix.shape
        )
        assert scores.precision > 0.7
        assert scores.recall > 0.5

    def test_reseed_improves_recall(self):
        dataset = generate_embedded(
            150, 30, 5, cluster_shape=(15, 10), noise=2.0, rng=11
        )
        emb = dataset.embedded_average_residue()
        kwargs = dict(
            p=0.3, rng=13, residue_target=2 * emb,
            constraints=Constraints(min_rows=3, min_cols=3),
            gain_mode="fast",
            ordering="greedy",
        )
        base = floc(dataset.matrix, 6, reseed_rounds=0, **kwargs)
        reseeded = floc(dataset.matrix, 6, reseed_rounds=12, **kwargs)
        base_scores = recall_precision(
            dataset.embedded, base.clustering.clusters, dataset.matrix.shape
        )
        reseeded_scores = recall_precision(
            dataset.embedded, reseeded.clustering.clusters, dataset.matrix.shape
        )
        assert reseeded_scores.recall >= base_scores.recall


class TestConstraintsRespected:
    def test_structural_floor_in_output(self):
        matrix = DataMatrix(np.random.default_rng(0).uniform(0, 10, (30, 12)))
        cons = Constraints(min_rows=3, min_cols=3)
        result = floc(matrix, 2, p=0.4, rng=1, constraints=cons, gain_mode="exact")
        for cluster in result.clustering:
            assert cluster.n_rows >= 3
            assert cluster.n_cols >= 3

    def test_max_volume_respected(self):
        matrix = DataMatrix(np.random.default_rng(0).uniform(0, 10, (30, 12)))
        cons = Constraints(max_volume=30)
        result = floc(matrix, 2, p=0.1, rng=1, constraints=cons, gain_mode="exact")
        for cluster in result.clustering:
            assert cluster.entry_count() <= 30

    def test_max_overlap_respected(self):
        dataset = planted_dataset()
        emb = dataset.embedded_average_residue()
        cons = Constraints(max_overlap=0.25, min_rows=3, min_cols=3)
        result = floc(
            dataset.matrix, 4, p=0.2, rng=2, constraints=cons,
            residue_target=2 * emb, gain_mode="fast",
        )
        assert result.clustering.max_pairwise_overlap() <= 0.25 + 1e-9


class TestMissingValues:
    def test_runs_on_sparse_matrix(self):
        dataset = generate_embedded(
            60, 16, 2, cluster_shape=(10, 8), noise=1.0,
            missing_fraction=0.2, rng=21,
        )
        result = floc(dataset.matrix, 2, p=0.25, rng=3, alpha=0.5, gain_mode="exact")
        assert len(result.clustering) == 2

    def test_alpha_enforced_on_output(self):
        dataset = generate_embedded(
            60, 16, 2, cluster_shape=(10, 8), noise=1.0,
            missing_fraction=0.15, rng=22,
        )
        emb = dataset.embedded_average_residue()
        result = floc(
            dataset.matrix, 2, p=0.25, rng=4, alpha=0.6,
            residue_target=max(2 * emb, 1.0), gain_mode="exact",
        )
        # Seeds are admitted at alpha and no action may break it.
        for cluster in result.clustering:
            assert cluster.occupancy_ok(dataset.matrix, alpha=0.6)

    def test_sparse_run_ends_with_every_cluster_at_alpha(self):
        """A run of the sparse benchmark's shape in which some seeds do
        not trim to alpha: each is redrawn, so no cluster ends below
        alpha (handed on untrimmed, two such seeds end below it)."""
        dataset = generate_embedded(
            80, 20, 2, cluster_shape=(16, 8), noise=2.0,
            missing_fraction=0.2, rng=0,
        )
        result = floc(
            dataset.matrix, 4, p=0.2, rng=2, alpha=0.5, residue_target=8.0,
            reseed_rounds=2, constraints=Constraints(min_rows=3, min_cols=3),
        )
        for cluster in result.clustering:
            assert not cluster.is_empty
            assert cluster.occupancy_ok(dataset.matrix, alpha=0.5)

    def test_seed_below_alpha_starts_empty_until_reseeded(self):
        """An explicit seed that cannot trim to alpha starts empty and
        blocks every toggle; a reseed round redraws it."""
        values = np.random.default_rng(5).normal(size=(30, 10))
        values[:4, :4] = NAN
        seeds = [
            (np.arange(30) < 4, np.arange(10) < 4),  # all missing
            (np.arange(30) >= 20, np.arange(10) >= 5),
        ]
        kwargs = dict(seeds=seeds, alpha=1.0, residue_target=2.0, rng=1)
        idle = floc(values, 2, **kwargs).clustering
        assert idle[0].is_empty and not idle[1].is_empty
        refilled = floc(values, 2, reseed_rounds=2, **kwargs).clustering
        assert not refilled[0].is_empty
        assert all(cluster.occupancy_ok(refilled.matrix, 1.0) for cluster in refilled)

    @given(sparse_floc_runs())
    @settings(max_examples=80, deadline=None)
    def test_every_cluster_meets_alpha_or_is_empty(self, run):
        matrix, k, kwargs = run
        result = floc(matrix, k, **kwargs)
        for cluster in result.clustering:
            assert cluster.is_empty or cluster.occupancy_ok(matrix, kwargs["alpha"])


class TestResidueTargetMode:
    def test_feasible_clusters_meet_target(self):
        dataset = planted_dataset()
        emb = dataset.embedded_average_residue()
        target = 2 * emb
        result = floc(
            dataset.matrix, 4, p=0.2, rng=6, residue_target=target,
            constraints=Constraints(min_rows=3, min_cols=3),
            reseed_rounds=8, gain_mode="fast",
        )
        feasible = [
            c for c in result.clustering
            if c.residue(dataset.matrix) <= target and c.entry_count() > 16
        ]
        assert feasible, "expected at least one locked cluster"
