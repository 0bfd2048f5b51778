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


class TestSeed:
    """One seed rule on every ``mine`` path: plain and supervised runs at
    the same ``--seed`` (default 0) write the same clusters, and a seed
    that is not a non-negative integer is a usage error."""

    @pytest.mark.parametrize("seed", [["--seed", "7"], []],
                             ids=["seed7", "default"])
    def test_plain_and_supervised_write_same_file(
        self, workspace, capsys, seed
    ):
        tmp_path, matrix_path, __ = workspace
        argv = ["mine", str(matrix_path), "--target", "5.0", "--k", "4",
                "--restarts", "2", "--reseed-rounds", "2", *seed]
        plain, supervised = tmp_path / "plain.txt", tmp_path / "sup.txt"
        assert main(argv + ["--out", str(plain)]) == 0
        assert main(argv + ["--workers", "1", "--run-dir",
                            str(tmp_path / "run"), "--out",
                            str(supervised)]) == 0
        capsys.readouterr()
        assert load_clusters(plain), "expected mined clusters on disk"
        assert plain.read_bytes() == supervised.read_bytes()

    @pytest.mark.parametrize("command", ["mine", "supervised", "generate"])
    @pytest.mark.parametrize("seed", ["-1", "abc"])
    def test_bad_seed_exits_2(self, workspace, capsys, command, seed):
        tmp_path, matrix_path, __ = workspace
        run_dir = tmp_path / "run"
        argv = {
            "mine": ["mine", str(matrix_path), "--target", "5.0"],
            "supervised": ["mine", str(matrix_path), "--target", "5.0",
                           "--workers", "1", "--run-dir", str(run_dir)],
            "generate": ["generate", "synthetic",
                         "--out", str(tmp_path / "new.npz")],
        }[command]
        assert main(argv + ["--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"--seed must be a non-negative integer, got {seed!r}\n"
        )
        assert captured.out == ""
        assert not run_dir.exists()
        assert not (tmp_path / "new.npz").exists()


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


def _write_malformed(path, kind):
    """A matrix file of the right suffix whose content cannot be loaded."""
    import numpy as np

    if kind == "non-numeric-csv":
        path.write_text("1,2,x\n3,4,5\n")
    elif kind == "garbage-npz":
        path.write_bytes(b"definitely not an archive")
    elif kind == "truncated-npz":
        np.savez(path, values=np.ones((4, 3)))
        path.write_bytes(path.read_bytes()[:60])
    elif kind == "pickled-npz":
        np.savez(path, values=np.array([{"a": 1}, None], dtype=object))
    elif kind == "no-values-npz":
        np.savez(path, other=np.ones((4, 3)))


_MALFORMED = [
    ("non-numeric-csv", "matrix.csv"),
    ("garbage-npz", "matrix.npz"),
    ("truncated-npz", "matrix.npz"),
    ("pickled-npz", "matrix.npz"),
    ("no-values-npz", "matrix.npz"),
]


class TestMalformedMatrix:
    """A matrix file that exists but cannot be parsed is a usage error:
    exit 2, one stderr line naming the file, no traceback."""

    @pytest.mark.parametrize("command", ["mine", "evaluate", "predict"])
    @pytest.mark.parametrize(
        "kind,name", _MALFORMED, ids=[kind for kind, _ in _MALFORMED]
    )
    def test_malformed_matrix_exits_2(
        self, workspace, capsys, command, kind, name
    ):
        tmp_path, __, truth_path = workspace
        bad = tmp_path / name
        _write_malformed(bad, kind)
        argv = {
            "mine": ["mine", str(bad), "--target", "1.0"],
            "evaluate": ["evaluate", str(bad), str(truth_path)],
            "predict": ["predict", str(bad), str(truth_path),
                        "--row", "0", "--col", "0"],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"malformed matrix {bad}: ")
        assert captured.out == ""

    def test_process_prints_no_traceback(self, tmp_path):
        bad = tmp_path / "matrix.npz"
        _write_malformed(bad, "pickled-npz")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "mine", str(bad), "--target", "1.0"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1


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


class TestOutThroughAFile:
    """An ``--out`` path that runs through an existing file is a usage
    error: exit 2, one stderr line, no traceback, nothing written."""

    @staticmethod
    def _run(*argv):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, check=False,
            timeout=120,
        )

    @pytest.mark.parametrize("flag", ["--out", "--truth-out"])
    def test_generate_exits_2(self, tmp_path, flag):
        blocker = tmp_path / "m.npz"
        blocker.write_text("a file, not a directory")
        paths = {"--out": tmp_path / "g.npz", "--truth-out": None}
        paths[flag] = blocker / "g.txt"
        argv = ["generate", "synthetic", "--rows", "12", "--cols", "6",
                "--out", str(paths["--out"])]
        if paths["--truth-out"] is not None:
            argv += ["--truth-out", str(paths["--truth-out"])]
        proc = self._run(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(f"cannot write {flag} ")
        assert "is not a directory" in proc.stderr
        assert sorted(tmp_path.iterdir()) == [blocker]

    def test_export_trace_exits_2(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"type": "seed", "cluster": 0}\n')
        blocker = tmp_path / "m.npz"
        blocker.write_text("a file, not a directory")
        proc = self._run("export-trace", str(trace), "--format", "otlp",
                         "--out", str(blocker / "x.json"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("cannot write --out ")
        assert "is not a directory" in proc.stderr

    def test_export_trace_still_creates_missing_directories(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"type": "seed", "cluster": 0}\n')
        out = tmp_path / "new" / "dir" / "x.json"
        assert main(["export-trace", str(trace), "--format", "otlp",
                     "--out", str(out)]) == 0
        assert out.is_file()
