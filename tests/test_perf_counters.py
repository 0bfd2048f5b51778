"""Work-counter cost model: deterministic, inert, and conserved.

The acceptance contract for :mod:`repro.obs.perf.counters`:

* **parity** -- a counted run produces bit-identical clusterings,
  histories and action counts to an uncounted run (counting never draws
  from the RNG or branches the algorithm);
* **determinism** -- two counted runs at the same seed produce equal
  counters (no wall-clock, no machine dependence);
* **conservation** -- counters aggregate without double-counting across
  per-restart counters summed by pooling (in-process and supervised
  mining alike), ``perf.*`` metric mirroring, and the checkpoint
  round-trip.
"""

import numpy as np
import pytest

from repro.core.floc import floc
from repro.core.matrix import DataMatrix
from repro.core.mining import mine_delta_clusters, pool_mining_results, run_restart
from repro.obs import MetricsRegistry, Tracer, WorkCounters, WORK_COUNTER_FIELDS

pytestmark = pytest.mark.perf


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(2)
    values = rng.uniform(0, 100, size=(40, 12))
    values[:12, :5] = (
        50.0
        + rng.uniform(-15, 15, 12)[:, None]
        + rng.uniform(-15, 15, 5)[None, :]
    )
    return DataMatrix(values)


class TestWorkCounters:
    def test_starts_at_zero(self):
        work = WorkCounters()
        assert work.total() == 0
        assert work.as_dict() == {name: 0 for name in WORK_COUNTER_FIELDS}

    def test_keyword_init_and_unknown_key(self):
        work = WorkCounters(residue_evals=3, sweeps=2)
        assert work.residue_evals == 3
        assert work.sweeps == 2
        assert work.total() == 5
        with pytest.raises(ValueError, match="wall_clock"):
            WorkCounters(wall_clock=1)

    def test_as_dict_preserves_field_order(self):
        assert tuple(WorkCounters().as_dict()) == WORK_COUNTER_FIELDS

    def test_merge_and_copy(self):
        a = WorkCounters(toggles=2, cells_scanned=10)
        b = WorkCounters(toggles=1, sweeps=4)
        snapshot = a.copy()
        assert a.merge(b) is a
        assert a.toggles == 3 and a.sweeps == 4 and a.cells_scanned == 10
        # copy() was unaffected by the merge.
        assert snapshot.toggles == 2 and snapshot.sweeps == 0

    def test_equality_and_iteration(self):
        a = WorkCounters(batch_evals=7)
        b = WorkCounters(batch_evals=7)
        assert a == b and hash(a) == hash(b)
        assert dict(a) == a.as_dict()
        assert "batch_evals=7" in repr(a)


class TestParity:
    """Counting must not perturb the algorithm in any observable way."""

    @pytest.mark.parametrize("gain_mode", ["exact", "fast"])
    def test_counted_run_identical_to_uncounted(self, matrix, gain_mode):
        kwargs = dict(
            k=3, residue_target=2.0, gain_mode=gain_mode,
            reseed_rounds=2, max_iterations=10, rng=7,
        )
        plain = floc(matrix, **kwargs)
        counted = floc(matrix, work=WorkCounters(), **kwargs)
        assert plain.history == counted.history
        assert plain.n_actions == counted.n_actions
        assert plain.n_iterations == counted.n_iterations
        assert [
            (c.rows, c.cols) for c in plain.clustering
        ] == [(c.rows, c.cols) for c in counted.clustering]

    def test_uncounted_run_has_no_work(self, matrix):
        result = floc(matrix, k=3, residue_target=2.0, rng=7,
                      max_iterations=5)
        assert result.work is None

    def test_counted_runs_are_deterministic(self, matrix):
        totals = []
        for __ in range(2):
            work = WorkCounters()
            floc(matrix, k=3, residue_target=2.0, gain_mode="fast",
                 reseed_rounds=2, max_iterations=10, rng=7, work=work)
            totals.append(work.as_dict())
        assert totals[0] == totals[1]
        assert sum(totals[0].values()) > 0

    def test_expected_counters_move(self, matrix):
        exact = WorkCounters()
        floc(matrix, k=3, residue_target=2.0, gain_mode="exact",
             max_iterations=8, rng=7, work=exact)
        assert exact.residue_evals > 0
        assert exact.cells_scanned > 0
        assert exact.toggle_evals > 0
        assert exact.sweeps > 0

        fast = WorkCounters()
        floc(matrix, k=3, residue_target=2.0, gain_mode="fast",
             max_iterations=8, rng=7, work=fast)
        assert fast.batch_evals > 0
        # The fast path amortizes: k toggle evaluations per batch call.
        assert fast.toggle_evals >= 3 * fast.batch_evals


class TestMetricsMirroring:
    def test_perf_metrics_equal_work_deltas(self, matrix):
        work = WorkCounters()
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        floc(matrix, k=3, residue_target=2.0, gain_mode="fast",
             max_iterations=8, rng=7, tracer=tracer, work=work)
        tracer.close()
        counters = metrics.snapshot()["counters"]
        for name, value in work:
            if value:
                assert counters[f"perf.{name}"] == value
            else:
                assert f"perf.{name}" not in counters

    def test_shared_accumulator_mirrors_per_run_deltas(self, matrix):
        # The same WorkCounters object across two runs: each run must
        # inc perf.* by its own delta, so the registry total equals the
        # accumulated counters -- never double-counts the carry-over.
        work = WorkCounters()
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        for seed in (7, 8):
            floc(matrix, k=3, residue_target=2.0, gain_mode="fast",
                 max_iterations=8, rng=seed, tracer=tracer, work=work)
        tracer.close()
        counters = metrics.snapshot()["counters"]
        for name, value in work:
            assert counters.get(f"perf.{name}", 0) == value


class TestAggregation:
    def test_mining_shares_one_accumulator(self, matrix):
        work = WorkCounters()
        result = mine_delta_clusters(
            matrix, 2.0, k=3, n_restarts=3, min_volume=9,
            reseed_rounds=2, rng=0, work=work,
        )
        assert work.total() > 0
        # Each restart counts into its own counters; the caller's object
        # receives their sum, and the result carries an equal but fresh
        # counter set.
        assert result.work is not None
        assert result.work == work
        assert result.work is not work
        expected = WorkCounters()
        for run in result.runs:
            assert run.work is not work
            expected.merge(run.work)
        assert work == expected

    def test_mining_adds_into_a_used_accumulator(self, matrix):
        fresh = WorkCounters()
        mine_delta_clusters(
            matrix, 2.0, k=3, n_restarts=2, min_volume=9,
            reseed_rounds=2, rng=0, work=fresh,
        )
        work = WorkCounters()
        work.merge(fresh)
        mine_delta_clusters(
            matrix, 2.0, k=3, n_restarts=2, min_volume=9,
            reseed_rounds=2, rng=0, work=work,
        )
        assert work.total() == 2 * fresh.total()

    def test_pooling_sums_distinct_per_run_objects(self, matrix):
        runs = [
            run_restart(
                matrix, restart, residue_target=2.0, root_seed=11,
                k=3, reseed_rounds=2, max_iterations=8,
                work=WorkCounters(),
            )
            for restart in range(3)
        ]
        pooled = pool_mining_results(
            matrix, runs, residue_target=2.0, min_volume=9
        )
        assert pooled.work is not None
        expected = WorkCounters()
        for run in runs:
            expected.merge(run.work)
        assert pooled.work == expected

    def test_pooling_without_counting_yields_none(self, matrix):
        runs = [
            run_restart(
                matrix, restart, residue_target=2.0, root_seed=11,
                k=3, reseed_rounds=2, max_iterations=8,
            )
            for restart in range(2)
        ]
        pooled = pool_mining_results(
            matrix, runs, residue_target=2.0, min_volume=9
        )
        assert pooled.work is None


class TestCheckpointRoundTrip:
    def test_work_survives_record_round_trip(self, matrix):
        from repro.runtime.checkpoint import record_to_result, result_to_record

        work = WorkCounters()
        result = run_restart(
            matrix, 0, residue_target=2.0, root_seed=11, k=3,
            reseed_rounds=2, max_iterations=8, work=work,
        )
        record = result_to_record(0, result)
        assert record["work"] == work.as_dict()
        restored = record_to_result(record, matrix)
        assert restored.work == work
        assert restored.work is not work

    def test_uncounted_record_omits_work(self, matrix):
        from repro.runtime.checkpoint import record_to_result, result_to_record

        result = run_restart(
            matrix, 0, residue_target=2.0, root_seed=11, k=3,
            reseed_rounds=2, max_iterations=8,
        )
        record = result_to_record(0, result)
        assert "work" not in record
        assert record_to_result(record, matrix).work is None
