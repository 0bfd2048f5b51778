"""Unit tests for the runtime's config and checkpoint layers."""

import json

import numpy as np
import pytest

from repro.core.matrix import DataMatrix
from repro.core.mining import run_restart
from repro.runtime.checkpoint import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointStore,
    record_digest,
    record_to_result,
    result_to_record,
)
from repro.runtime.config import RunConfig

pytestmark = pytest.mark.runtime


@pytest.fixture
def matrix():
    rng = np.random.default_rng(0)
    return DataMatrix(rng.normal(size=(15, 8)))


@pytest.fixture
def config():
    return RunConfig(residue_target=1.5, n_restarts=3, root_seed=7, k=2,
                     max_iterations=5, min_volume=9)


class TestRunConfig:
    def test_round_trip(self, config):
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_sequence_p_round_trips(self):
        cfg = RunConfig(residue_target=1.0, p=[0.1, 0.2, 0.3])
        loaded = RunConfig.from_dict(cfg.to_dict())
        assert loaded.p == (0.1, 0.2, 0.3)

    def test_unknown_key_rejected(self, config):
        payload = config.to_dict()
        payload["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            RunConfig.from_dict(payload)

    def test_identity_excludes_scheduling(self, config):
        from dataclasses import replace
        rescheduled = replace(config, workers=16, task_timeout=9.0,
                              max_retries=0)
        assert rescheduled.identity() == config.identity()

    @pytest.mark.parametrize("kwargs", [
        {"residue_target": 0.0},
        {"residue_target": 1.0, "n_restarts": 0},
        {"residue_target": 1.0, "root_seed": -1},
        {"residue_target": 1.0, "workers": 0},
        {"residue_target": 1.0, "max_retries": -1},
        {"residue_target": 1.0, "task_timeout": 0.0},
        {},
    ])
    def test_validation(self, kwargs):
        # ``residue_target`` has no default: a config without one is
        # refused by the constructor itself.
        with pytest.raises(ValueError if kwargs else TypeError):
            RunConfig(**kwargs)

    def test_restart_indices(self, config):
        assert config.restart_indices() == [0, 1, 2]


class TestRecordSerialization:
    def test_result_round_trips_bit_identically(self, matrix, config):
        result = run_restart(matrix, 0, config, root_seed=config.root_seed)
        record = result_to_record(0, result)
        # Through a JSON encode/decode cycle, like the on-disk path.
        reloaded = record_to_result(json.loads(json.dumps(record)), matrix)
        assert [
            (c.rows, c.cols) for c in reloaded.clustering
        ] == [(c.rows, c.cols) for c in result.clustering]
        assert reloaded.history == result.history
        assert reloaded.initial_residue == result.initial_residue
        assert reloaded.n_iterations == result.n_iterations
        assert reloaded.converged == result.converged

    def test_digest_detects_tampering(self, matrix, config):
        result = run_restart(matrix, 0, config, root_seed=config.root_seed)
        record = result_to_record(0, result)
        assert record_digest(record) == record["digest"]
        record["n_actions"] = 999
        assert record_digest(record) != record["digest"]


class TestCheckpointStore:
    def test_create_then_open(self, tmp_path, config):
        CheckpointStore.create(tmp_path / "run", config)
        store = CheckpointStore.open(tmp_path / "run")
        assert store.config == config
        assert store.completed_restarts() == set()

    def test_create_refuses_existing(self, tmp_path, config):
        CheckpointStore.create(tmp_path / "run", config)
        with pytest.raises(CheckpointError, match="already initialized"):
            CheckpointStore.create(tmp_path / "run", config)

    def test_open_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="no manifest"):
            CheckpointStore.open(tmp_path)

    def test_open_corrupt_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointCorruptionError, match="not valid JSON"):
            CheckpointStore.open(tmp_path)

    def test_record_round_trip(self, tmp_path, matrix, config):
        store = CheckpointStore.create(tmp_path / "run", config)
        result = run_restart(matrix, 1, config, root_seed=config.root_seed)
        record = result_to_record(1, result)
        from repro.data.io import write_json_atomic
        write_json_atomic(store.record_path(1), record)
        store.mark_done(1, str(record["digest"]))
        assert store.completed_restarts() == {1}
        loaded = record_to_result(store.completed_records()[1], matrix)
        assert [
            (c.rows, c.cols) for c in loaded.clustering
        ] == [(c.rows, c.cols) for c in result.clustering]

    def test_corrupt_record_is_dropped(self, tmp_path, matrix, config):
        store = CheckpointStore.create(tmp_path / "run", config)
        result = run_restart(matrix, 0, config, root_seed=config.root_seed)
        record = result_to_record(0, result)
        from repro.data.io import write_json_atomic
        write_json_atomic(store.record_path(0), record)
        store.mark_done(0, str(record["digest"]))
        # Damage the durable bytes.
        store.record_path(0).write_text("garbage")
        with pytest.raises(CheckpointCorruptionError):
            store.load_record(0)
        # completed_restarts() self-heals: drops the stale manifest entry.
        assert store.completed_restarts() == set()
        reopened = CheckpointStore.open(store.run_dir)
        assert reopened.completed_restarts() == set()

    def test_wrong_restart_index_rejected(self, tmp_path, matrix, config):
        store = CheckpointStore.create(tmp_path / "run", config)
        result = run_restart(matrix, 0, config, root_seed=config.root_seed)
        record = result_to_record(0, result)
        from repro.data.io import write_json_atomic
        write_json_atomic(store.record_path(2), record)
        with pytest.raises(CheckpointCorruptionError, match="claims restart"):
            store.load_record(2)

    def test_verify_config(self, tmp_path, config):
        from dataclasses import replace
        store = CheckpointStore.create(tmp_path / "run", config)
        store.verify_config(replace(config, workers=32))  # schedule-only: ok
        with pytest.raises(CheckpointMismatchError, match="root_seed"):
            store.verify_config(replace(config, root_seed=99))

    def test_best_digest_tracking(self, tmp_path, config):
        store = CheckpointStore.create(tmp_path / "run", config)
        assert store.best_digest() is None
        store.update_best("abc123", 0.5, 4)
        assert store.best_digest() == "abc123"
        reopened = CheckpointStore.open(store.run_dir)
        assert reopened.best_digest() == "abc123"
