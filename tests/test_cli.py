"""End-to-end tests of the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.data.io import load_clusters, load_matrix_npz, save_matrix_csv
from repro.data.synthetic import generate_embedded


@pytest.fixture
def workspace(tmp_path):
    """Generate a small workload on disk via the CLI itself."""
    matrix_path = tmp_path / "matrix.npz"
    truth_path = tmp_path / "truth.txt"
    code = main([
        "generate", "synthetic",
        "--rows", "150", "--cols", "30",
        "--clusters", "4", "--cluster-rows", "15", "--cluster-cols", "10",
        "--noise", "2", "--seed", "3",
        "--out", str(matrix_path),
        "--truth-out", str(truth_path),
    ])
    assert code == 0
    return tmp_path, matrix_path, truth_path


class TestGenerate:
    def test_creates_matrix_and_truth(self, workspace):
        __, matrix_path, truth_path = workspace
        matrix = load_matrix_npz(matrix_path)
        assert matrix.shape == (150, 30)
        truth = load_clusters(truth_path)
        assert len(truth) == 4

    def test_movielens_kind(self, tmp_path, capsys):
        out = tmp_path / "ratings.npz"
        code = main([
            "generate", "movielens",
            "--rows", "60", "--cols", "80", "--clusters", "2",
            "--missing", "0.15", "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        assert "movielens" in capsys.readouterr().out

    def test_yeast_kind(self, tmp_path, capsys):
        out = tmp_path / "yeast.npz"
        code = main([
            "generate", "yeast",
            "--rows", "80", "--cols", "12", "--clusters", "2",
            "--cluster-rows", "10", "--cluster-cols", "5",
            "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        matrix = load_matrix_npz(out)
        assert matrix.shape == (80, 12)


class TestMineAndEvaluate:
    def test_mine_writes_clusters(self, workspace, capsys):
        tmp_path, matrix_path, __ = workspace
        found_path = tmp_path / "found.txt"
        code = main([
            "mine", str(matrix_path),
            "--target", "5.0", "--k", "6", "--restarts", "1",
            "--reseed-rounds", "6", "--seed", "5",
            "--out", str(found_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "delta-clusters" in out
        found = load_clusters(found_path)
        assert found, "expected mined clusters on disk"

    def test_evaluate_with_truth(self, workspace, capsys):
        tmp_path, matrix_path, truth_path = workspace
        found_path = tmp_path / "found.txt"
        main([
            "mine", str(matrix_path),
            "--target", "5.0", "--k", "6", "--restarts", "1",
            "--reseed-rounds", "6", "--seed", "5",
            "--out", str(found_path),
        ])
        capsys.readouterr()
        code = main([
            "evaluate", str(matrix_path), str(found_path),
            "--truth", str(truth_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recall" in out
        assert "precision" in out

    def test_mine_from_csv(self, tmp_path, capsys):
        dataset = generate_embedded(
            80, 20, 2, cluster_shape=(12, 8), noise=1.5, rng=7
        )
        csv_path = tmp_path / "matrix.csv"
        save_matrix_csv(csv_path, dataset.matrix, header=False)
        code = main([
            "mine", str(csv_path),
            "--target", "4.0", "--k", "3", "--restarts", "1",
            "--reseed-rounds", "4", "--seed", "1",
        ])
        assert code == 0

    def test_unsupported_format(self, tmp_path):
        bad = tmp_path / "matrix.xlsx"
        bad.write_text("nope")
        with pytest.raises(SystemExit, match="unsupported"):
            main(["mine", str(bad), "--target", "1.0"])

    def test_missing_matrix_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.npz"
        code = main(["mine", str(missing), "--target", "1.0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "cannot read matrix" in err and "absent.npz" in err

    @pytest.mark.parametrize("supervised", [False, True])
    def test_out_in_missing_directory_exits_2_before_mining(
        self, workspace, capsys, monkeypatch, supervised
    ):
        tmp_path, matrix_path, __ = workspace
        import repro.cli as cli

        def no_mining(*args, **kwargs):
            raise AssertionError("mining ran before --out was checked")

        monkeypatch.setattr(cli, "mine_delta_clusters", no_mining)
        monkeypatch.setattr(cli, "_cmd_mine_supervised", no_mining)
        out = tmp_path / "no" / "such" / "dir" / "found.txt"
        argv = ["mine", str(matrix_path), "--target", "5.0",
                "--out", str(out)]
        if supervised:
            argv += ["--workers", "1", "--run-dir", str(tmp_path / "run")]
        code = main(argv)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "cannot write --out" in captured.err
        assert "does not exist" in captured.err
        assert not (tmp_path / "run").exists()

    def test_out_that_is_a_directory_exits_2(self, workspace, capsys):
        tmp_path, matrix_path, __ = workspace
        code = main(["mine", str(matrix_path), "--target", "5.0",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("supervised", [False, True])
    def test_trace_in_missing_directory_exits_2_before_mining(
        self, workspace, capsys, monkeypatch, supervised
    ):
        tmp_path, matrix_path, __ = workspace
        import repro.cli as cli

        def no_mining(*args, **kwargs):
            raise AssertionError("mining ran before --trace was checked")

        monkeypatch.setattr(cli, "mine_delta_clusters", no_mining)
        monkeypatch.setattr(cli, "_cmd_mine_supervised", no_mining)
        trace = tmp_path / "no" / "such" / "trace.jsonl"
        argv = ["mine", str(matrix_path), "--target", "5.0",
                "--trace", str(trace)]
        if supervised:
            argv += ["--workers", "1", "--run-dir", str(tmp_path / "run")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "cannot write --trace" in err and "does not exist" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("absent", ["matrix", "clusters", "truth"])
    def test_evaluate_missing_input_exits_2(self, workspace, capsys, absent):
        tmp_path, matrix_path, truth_path = workspace
        paths = {"matrix": matrix_path, "clusters": truth_path,
                 "truth": truth_path}
        paths[absent] = tmp_path / "absent.npz"
        code = main(["evaluate", str(paths["matrix"]), str(paths["clusters"]),
                     "--truth", str(paths["truth"])])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert f"cannot read {absent}" in captured.err
        assert "absent.npz" in captured.err
        assert captured.out == ""


class TestPredict:
    @pytest.mark.parametrize("absent", ["matrix", "clusters"])
    def test_predict_missing_input_exits_2(self, workspace, capsys, absent):
        tmp_path, matrix_path, truth_path = workspace
        paths = {"matrix": matrix_path, "clusters": truth_path}
        paths[absent] = tmp_path / "absent.npz"
        code = main(["predict", str(paths["matrix"]), str(paths["clusters"]),
                     "--row", "0", "--col", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"cannot read {absent}" in err and "absent.npz" in err

    def test_predict_covered_cell(self, workspace, capsys):
        tmp_path, matrix_path, truth_path = workspace
        truth = load_clusters(truth_path)
        row = truth[0].rows[0]
        col = truth[0].cols[0]
        code = main([
            "predict", str(matrix_path), str(truth_path),
            "--row", str(row), "--col", str(col),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted" in out
        assert "actual value" in out

    def test_predict_uncovered_cell(self, workspace, capsys):
        __, matrix_path, truth_path = workspace
        truth = load_clusters(truth_path)
        covered_rows = {r for c in truth for r in c.rows}
        uncovered = next(r for r in range(150) if r not in covered_rows)
        code = main([
            "predict", str(matrix_path), str(truth_path),
            "--row", str(uncovered), "--col", "0",
        ])
        assert code == 1
        assert "no cluster covers" in capsys.readouterr().out


class TestClosedStdout:
    @pytest.mark.parametrize("command", ["analyze-trace", "evaluate"])
    def test_closed_pipe_ends_quietly(self, tmp_path, command):
        """``repro analyze-trace ... | head -1``: the reader is gone before
        the output is written; the command ends without a traceback,
        whether the output overflows the stdout buffer or sits in it
        until exit (``evaluate``'s short table)."""
        matrix_path = tmp_path / "m.npz"
        trace_path = tmp_path / "trace.jsonl"
        clusters_path = tmp_path / "clusters.txt"
        assert main(["generate", "synthetic", "--rows", "40", "--cols", "10",
                     "--clusters", "1", "--cluster-rows", "8",
                     "--cluster-cols", "4", "--seed", "1",
                     "--out", str(matrix_path)]) == 0
        assert main(["mine", str(matrix_path), "--target", "4.0", "--k", "2",
                     "--restarts", "1", "--seed", "1",
                     "--trace", str(trace_path),
                     "--out", str(clusters_path)]) == 0
        argv = {"analyze-trace": [str(trace_path)],
                "evaluate": [str(matrix_path), str(clusters_path)]}[command]
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)  # a pipe's stdout is buffered
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", command, *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr.decode() == ""
        assert proc.returncode == 141
