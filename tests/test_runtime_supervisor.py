"""Supervisor behaviour: scheduling, retries, degradation, resume.

Real process pools and real fault injection -- the same code paths a
production kill would exercise.  Matrices are kept tiny so each restart
finishes in milliseconds.
"""

import numpy as np
import pytest

from repro.core.matrix import DataMatrix
from repro.core.mining import mine_delta_clusters
from repro.data.synthetic import generate_embedded
from repro.obs import RingBufferSink, Tracer, WorkCounters
from repro.obs.metrics import MetricsRegistry
from repro.runtime import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    RunConfig,
    resume_run,
    run_supervised,
)
from repro.runtime.supervisor import _backoff_delay

pytestmark = pytest.mark.runtime


@pytest.fixture
def matrix():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(14, 7))
    values[:6, :4] += 4.0
    return DataMatrix(values)


def make_config(**overrides):
    base = dict(residue_target=1.5, n_restarts=3, root_seed=11, k=2,
                max_iterations=4, min_volume=9, workers=2, max_retries=2)
    base.update(overrides)
    return RunConfig(**base)


def cluster_shapes(result):
    return [(c.rows, c.cols) for c in result.clustering]


@pytest.fixture(autouse=True)
def _no_fault_plan(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)


class TestHappyPath:
    def test_all_restarts_complete(self, matrix, tmp_path):
        out = run_supervised(matrix, make_config(), run_dir=tmp_path / "run")
        assert out.ok
        assert out.executed == [0, 1, 2]
        assert out.skipped == []
        assert out.degradation is None
        assert len(out.result.runs) == 3

    def test_parallel_equals_serial(self, matrix, tmp_path):
        serial = run_supervised(matrix, make_config(workers=1),
                                run_dir=tmp_path / "serial")
        parallel = run_supervised(matrix, make_config(workers=3),
                                  run_dir=tmp_path / "parallel")
        assert cluster_shapes(serial.result) == cluster_shapes(parallel.result)

    def test_default_run_dir_is_created(self, matrix):
        out = run_supervised(matrix, make_config(n_restarts=1))
        assert out.ok
        assert (out.run_dir / "manifest.json").is_file()

    def test_task_events_and_metrics(self, matrix, tmp_path):
        ring = RingBufferSink(256)
        tracer = Tracer(sinks=[ring], metrics=MetricsRegistry())
        out = run_supervised(matrix, make_config(), run_dir=tmp_path / "run",
                             tracer=tracer)
        assert out.ok
        statuses = [(r["restart"], r["status"]) for r in ring.records
                    if r["type"] == "task"]
        for restart in range(3):
            assert (restart, "dispatched") in statuses
            assert (restart, "completed") in statuses
        snapshot = tracer.snapshot_metrics()
        assert snapshot["counters"]["runtime.tasks.completed"] == 3
        assert out.result.metrics is not None


class TestRetries:
    def test_injected_error_recovered(self, matrix, tmp_path, monkeypatch):
        plan = FaultPlan((FaultSpec(site="worker_start", kind="error",
                                    restart=1),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        slept = []
        ring = RingBufferSink(256)
        tracer = Tracer(sinks=[ring])
        out = run_supervised(matrix, make_config(), run_dir=tmp_path / "run",
                             tracer=tracer, sleep=slept.append)
        assert out.ok
        retries = [r for r in ring.records if r["type"] == "retry"]
        assert [r["restart"] for r in retries] == [1]
        assert slept and all(s > 0 for s in slept)
        faults = [r for r in ring.records if r["type"] == "fault"]
        assert faults and faults[0]["restart"] == 1

    def test_worker_kill_recovered(self, matrix, tmp_path, monkeypatch):
        plan = FaultPlan((FaultSpec(site="worker_start", kind="kill",
                                    restart=0),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        out = run_supervised(matrix, make_config(), run_dir=tmp_path / "run",
                             sleep=lambda _s: None)
        assert out.ok
        assert sorted(out.result.runs[i].n_iterations >= 1
                      for i in range(3))

    def test_corrupt_checkpoint_recovered(self, matrix, tmp_path,
                                          monkeypatch):
        plan = FaultPlan((FaultSpec(site="checkpoint", kind="corrupt",
                                    restart=2),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        out = run_supervised(matrix, make_config(), run_dir=tmp_path / "run",
                             sleep=lambda _s: None)
        assert out.ok
        assert len(out.result.runs) == 3

    def test_timeout_recovered(self, matrix, tmp_path, monkeypatch):
        plan = FaultPlan((FaultSpec(site="worker_start", kind="delay",
                                    restart=1, delay_s=30.0),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        out = run_supervised(matrix, make_config(workers=3, task_timeout=5.0),
                             run_dir=tmp_path / "run", sleep=lambda _s: None)
        assert out.ok

    def test_backoff_is_exponential_and_jittered(self):
        rng = np.random.default_rng(0)
        d0 = _backoff_delay(rng, 0.1, 0)
        d1 = _backoff_delay(rng, 0.1, 1)
        d3 = _backoff_delay(rng, 0.1, 3)
        assert 0.05 <= d0 < 0.1
        assert 0.1 <= d1 < 0.2
        assert 0.4 <= d3 < 0.8

    def test_backoff_stream_is_deterministic(self):
        a = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(5,)))
        b = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(5,)))
        assert [_backoff_delay(a, 0.1, i) for i in range(4)] == \
               [_backoff_delay(b, 0.1, i) for i in range(4)]


class TestDegradation:
    def test_exhausted_retries_degrade_gracefully(self, matrix, tmp_path,
                                                  monkeypatch):
        plan = FaultPlan((FaultSpec(site="worker_start", kind="error",
                                    restart=1, attempts=10),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        out = run_supervised(matrix, make_config(max_retries=1),
                             run_dir=tmp_path / "run", sleep=lambda _s: None)
        assert not out.ok
        assert out.degradation is not None
        assert out.degradation.missing == [1]
        assert out.degradation.completed == [0, 2]
        assert "restarts lost" in out.degradation.message
        # Graceful: the pooled result covers the surviving restarts.
        assert out.result is not None
        assert len(out.result.runs) == 2
        failure = out.degradation.failures[0]
        assert failure.restart == 1 and failure.kind == "exception"

    def test_total_loss_returns_no_result(self, matrix, tmp_path,
                                          monkeypatch):
        plan = FaultPlan((FaultSpec(site="worker_start", kind="error",
                                    attempts=10),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        out = run_supervised(matrix, make_config(max_retries=0),
                             run_dir=tmp_path / "run", sleep=lambda _s: None)
        assert not out.ok
        assert out.result is None
        assert out.degradation.missing == [0, 1, 2]


class TestResume:
    def test_resume_skips_completed(self, matrix, tmp_path):
        config = make_config()
        first = run_supervised(matrix, config, run_dir=tmp_path / "run")
        assert first.ok
        again = resume_run(matrix, tmp_path / "run")
        assert again.ok
        assert again.skipped == [0, 1, 2]
        assert again.executed == []
        assert cluster_shapes(again.result) == cluster_shapes(first.result)

    def test_resume_reexecutes_missing(self, matrix, tmp_path):
        config = make_config()
        first = run_supervised(matrix, config, run_dir=tmp_path / "run")
        # Lose one restart's durable record.
        (tmp_path / "run" / "restarts" / "restart-00001.json").unlink()
        again = resume_run(matrix, tmp_path / "run")
        assert again.ok
        assert again.skipped == [0, 2]
        assert again.executed == [1]
        assert cluster_shapes(again.result) == cluster_shapes(first.result)

    def test_resume_overrides_scheduling_only(self, matrix, tmp_path):
        config = make_config()
        run_supervised(matrix, config, run_dir=tmp_path / "run")
        out = resume_run(matrix, tmp_path / "run", workers=4, max_retries=0)
        assert out.ok

    def test_resume_requires_run_dir(self, matrix):
        with pytest.raises(ValueError, match="requires an explicit run_dir"):
            run_supervised(matrix, make_config(), resume=True)

    def test_skipped_restarts_traced(self, matrix, tmp_path):
        run_supervised(matrix, make_config(), run_dir=tmp_path / "run")
        ring = RingBufferSink(64)
        resume_run(matrix, tmp_path / "run", tracer=Tracer(sinks=[ring]))
        skipped = [r["restart"] for r in ring.records
                   if r["type"] == "task" and r["status"] == "skipped"]
        assert skipped == [0, 1, 2]


class TestInProcessParity:
    """``mine_delta_clusters(rng=S)`` runs the workers' restart task, so
    it mines what a supervised session with root seed ``S`` mines."""

    PARAMS = dict(residue_target=8.0, n_restarts=3, k=4, reseed_rounds=2)

    @pytest.fixture(params=[0.0, 0.2], ids=["dense", "missing20"])
    def workload(self, request):
        return generate_embedded(
            80, 16, 2, cluster_shape=(16, 8), noise=2.0,
            missing_fraction=request.param, rng=4,
        ).matrix

    def test_same_clusters_histories_and_work(self, workload, tmp_path):
        plain = mine_delta_clusters(workload, rng=13, work=WorkCounters(),
                                    **self.PARAMS)
        assert len(plain.clustering) > 0
        for workers in (1, 2):
            supervised = run_supervised(
                workload,
                RunConfig(root_seed=13, workers=workers, **self.PARAMS),
                run_dir=tmp_path / f"workers{workers}",
            ).result
            assert cluster_shapes(supervised) == cluster_shapes(plain)
            assert [run.history for run in supervised.runs] \
                == [run.history for run in plain.runs]
            assert [run.work for run in supervised.runs] \
                == [run.work for run in plain.runs]
            assert supervised.work == plain.work

    def test_default_parameters_mine_the_same_session(self, workload,
                                                       tmp_path):
        # Only the residue target and the seed given: both paths take
        # every other parameter from MiningParams, n_restarts included.
        plain = mine_delta_clusters(workload, 8.0, rng=13)
        supervised = run_supervised(
            workload, RunConfig(residue_target=8.0, root_seed=13),
            run_dir=tmp_path / "run",
        ).result
        assert len(supervised.runs) == len(plain.runs) == 3
        assert cluster_shapes(supervised) == cluster_shapes(plain)
        assert [run.history for run in supervised.runs] \
            == [run.history for run in plain.runs]

    def test_non_integer_rng_gives_one_root_seed_draw(self, workload):
        root = int(np.random.default_rng(5).integers(2**63))
        drawn = mine_delta_clusters(
            workload, rng=np.random.default_rng(5), **self.PARAMS)
        direct = mine_delta_clusters(workload, rng=root, **self.PARAMS)
        assert cluster_shapes(drawn) == cluster_shapes(direct)
        assert [run.history for run in drawn.runs] \
            == [run.history for run in direct.runs]
