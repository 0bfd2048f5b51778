"""End-to-end tests of the command-line interface."""

import json
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


def _python(*argv):
    """Run ``python *argv`` in a fresh process with ``src`` importable."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env,
        check=False, timeout=120,
    )


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

    def test_unsupported_format(self, tmp_path, capsys):
        bad = tmp_path / "matrix.xlsx"
        bad.write_text("nope")
        assert main(["mine", str(bad), "--target", "1.0"]) == 2
        err = capsys.readouterr().err
        assert err == f"unsupported matrix format: {bad} (use .npz or .csv)\n"

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

    @pytest.mark.parametrize("supervised", [False, True])
    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_unwritable_directory_exits_2_before_mining(
        self, workspace, capsys, monkeypatch, flag, supervised
    ):
        """An existing directory without write permission.  Root ignores
        permission bits, so ``os.access`` is what reports it here."""
        tmp_path, matrix_path, __ = workspace
        import repro.cli as cli

        def no_mining(*args, **kwargs):
            raise AssertionError(f"mining ran before {flag} was checked")

        locked = tmp_path / "locked"
        locked.mkdir()
        access = os.access

        def denied(path, mode, *args, **kwargs):
            if Path(path) == locked:
                return False
            return access(path, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "mine_delta_clusters", no_mining)
        monkeypatch.setattr(cli, "_cmd_mine_supervised", no_mining)
        monkeypatch.setattr(cli.os, "access", denied)
        argv = ["mine", str(matrix_path), "--target", "5.0",
                flag, str(locked / "out.txt")]
        if supervised:
            argv += ["--workers", "1", "--run-dir", str(tmp_path / "run")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"cannot write {flag}" in err and "is not writable" in err
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
    elif kind == "inf-npz":
        np.savez(path, values=np.array([[1.0, np.inf], [np.nan, 2.0]]))
    elif kind == "inf-csv":
        path.write_text("1,2,3\n4,-inf,5\n")


_MALFORMED = [
    ("non-numeric-csv", "matrix.csv"),
    ("garbage-npz", "matrix.npz"),
    ("truncated-npz", "matrix.npz"),
    ("pickled-npz", "matrix.npz"),
    ("no-values-npz", "matrix.npz"),
    ("inf-npz", "matrix.npz"),
    ("inf-csv", "matrix.csv"),
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
        return _python("-m", "repro", *argv)

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


class TestOutOfRangeParameters:
    """A mining parameter out of its range is a usage error, refused
    before any restart runs or is dispatched: exit 2, one stderr line
    naming the flag, no traceback, no restart record."""

    @pytest.mark.parametrize("mode", ["plain", "supervised"])
    @pytest.mark.parametrize("flag,value", [
        ("--k", "0"),
        ("--target", "-1"),
        ("--alpha", "2"),
        ("--p", "1.5"),
        ("--restarts", "0"),
        ("--min-rows", "200"),
        ("--reseed-rounds", "-1"),
        ("--max-clusters", "-1"),
    ])
    def test_exits_2_before_mining(self, workspace, mode, flag, value):
        tmp_path, matrix_path, __ = workspace
        run_dir = tmp_path / "run"
        out = tmp_path / "found.txt"
        argv = ["mine", str(matrix_path), "--target", "5.0", "--k", "3",
                "--restarts", "2", "--reseed-rounds", "1", flag, value,
                "--out", str(out)]
        if mode == "supervised":
            argv += ["--workers", "2", "--run-dir", str(run_dir)]
        proc = TestOutThroughAFile._run(*argv)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(f"invalid {flag}: ")
        assert proc.stdout == ""
        assert not run_dir.exists()
        assert not out.exists()


class TestAlphaOccupancy:
    """With ``--alpha`` every written cluster meets alpha occupancy, on
    the plain and the supervised path.  Input seed 5 of this shape wrote
    a violating cluster at both alphas before reseeds were trimmed and
    pooling checked occupancy."""

    @pytest.mark.parametrize("mode", ["plain", "supervised"])
    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_written_clusters_meet_alpha(self, tmp_path, mode, alpha):
        matrix_path = tmp_path / "sparse.npz"
        out = tmp_path / "found.txt"
        assert main([
            "generate", "synthetic", "--rows", "160", "--cols", "32",
            "--clusters", "4", "--cluster-rows", "30", "--cluster-cols", "12",
            "--noise", "2", "--missing", "0.2", "--seed", "5",
            "--out", str(matrix_path),
        ]) == 0
        argv = ["mine", str(matrix_path), "--target", "8", "--k", "8",
                "--restarts", "4", "--reseed-rounds", "2", "--seed", "5",
                "--alpha", str(alpha), "--out", str(out)]
        if mode == "supervised":
            argv += ["--workers", "2", "--run-dir", str(tmp_path / "run")]
        proc = TestOutThroughAFile._run(*argv)
        assert proc.returncode == 0, proc.stderr
        matrix = load_matrix_npz(matrix_path)
        clusters = load_clusters(out)
        assert clusters, "expected mined clusters on disk"
        for cluster in clusters:
            assert cluster.occupancy_ok(matrix, alpha), cluster


#: Prints, after ``repro.cli.main(sys.argv[1:])``, the exit code, the
#: ``repro`` modules loaded and those first loaded after the matrix.
_IMPORT_PROBE = """
import json, sys
import repro.cli as cli

def repro_modules():
    return {name for name in sys.modules if name.split(".")[0] == "repro"}

loaded = {}
load = cli.load_matrix_npz

def probe(path):
    loaded["modules"] = repro_modules()
    return load(path)

cli.load_matrix_npz = probe
code = cli.main(sys.argv[1:])
after = repro_modules()
print(json.dumps({
    "code": code,
    "modules": sorted(after),
    "after_load": sorted(after - loaded.get("modules", after)),
}), file=sys.stderr)
"""


class TestImportBudget:
    """A ``repro mine`` process loads the modules it runs and no others,
    and loads them all before the matrix: module loading is start-up
    cost, never mining time."""

    NOT_ON_THE_MINE_PATH = [
        "repro.baselines", "repro.subspace", "repro.runtime",
        "repro.devtools", "repro.eval.experiment", "repro.eval.significance",
        "repro.obs.analysis", "repro.obs.session", "repro.obs.export",
        "repro.obs.perf.fingerprint", "repro.data.movielens",
    ]

    @staticmethod
    def _probe(*argv):
        proc = _python("-c", _IMPORT_PROBE, *argv)
        assert "Traceback" not in proc.stderr, proc.stderr
        report = json.loads(proc.stderr.splitlines()[-1])
        assert report["code"] == 0, proc.stderr
        return report

    def test_plain_mine_loads_only_its_path(self, workspace):
        tmp_path, matrix_path, __ = workspace
        report = self._probe(
            "mine", str(matrix_path), "--target", "5.0", "--k", "3",
            "--restarts", "1", "--reseed-rounds", "1",
            "--out", str(tmp_path / "found.txt"),
        )
        loaded = set(report["modules"])
        for name in self.NOT_ON_THE_MINE_PATH:
            assert name not in loaded, f"plain mine imported {name}"
        assert len(loaded) <= 30, sorted(loaded)
        assert report["after_load"] == []

    def test_supervised_mine_loads_the_runtime_before_the_matrix(
        self, workspace
    ):
        tmp_path, matrix_path, __ = workspace
        report = self._probe(
            "mine", str(matrix_path), "--target", "5.0", "--k", "3",
            "--restarts", "2", "--reseed-rounds", "1", "--workers", "2",
            "--run-dir", str(tmp_path / "run"),
            "--out", str(tmp_path / "found.txt"),
        )
        assert "repro.runtime" in report["modules"]
        assert report["after_load"] == []

    def test_bare_import_loads_no_subpackage(self):
        proc = _python("-c", (
            "import sys, repro; print(sorted(name for name in sys.modules "
            "if name.split('.')[0] == 'repro'))"
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['repro', 'repro._lazy']"


def _assert_usage_error(proc, starts):
    """Exit 2 with one stderr line starting ``starts``, no traceback."""
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith(starts), proc.stderr


class TestRunDirectory:
    """Run-directory misuse is a usage error on the command line (the
    library keeps raising ``CheckpointError``): exit 2, one stderr line,
    no traceback, and the run directory left as it was."""

    @pytest.fixture
    def session(self, workspace):
        """A finished supervised session at k 2, and its argv."""
        tmp_path, matrix_path, __ = workspace
        run_dir = tmp_path / "run"
        argv = ["mine", str(matrix_path), "--target", "5.0", "--k", "2",
                "--restarts", "2", "--reseed-rounds", "1", "--seed", "3",
                "--workers", "1", "--run-dir", str(run_dir)]
        proc = TestOutThroughAFile._run(*argv)
        assert proc.returncode == 0, proc.stderr
        return tmp_path, run_dir, argv

    @staticmethod
    def _flag(argv, flag, value):
        argv = list(argv)
        argv[argv.index(flag) + 1] = value
        return argv

    @pytest.mark.parametrize("changes,named", [
        ([("--k", "3")], "--k"),
        ([("--k", "3"), ("--seed", "4")], "--k, --seed"),
        ([("--target", "4.0")], "--target"),
    ])
    def test_resume_with_other_mining_flags_exits_2(
        self, session, changes, named
    ):
        tmp_path, run_dir, argv = session
        for flag, value in changes:
            argv = self._flag(argv, flag, value)
        manifest = (run_dir / "manifest.json").read_bytes()
        out = tmp_path / "resumed.txt"
        proc = TestOutThroughAFile._run(*argv, "--resume", "--out", str(out))
        _assert_usage_error(proc, f"cannot resume {run_dir}: ")
        assert proc.stderr.rstrip().endswith(f"different {named}")
        assert not out.exists()
        assert (run_dir / "manifest.json").read_bytes() == manifest

    def test_resume_may_change_scheduling_flags(self, session):
        tmp_path, run_dir, argv = session
        first, resumed = tmp_path / "first.txt", tmp_path / "resumed.txt"
        fresh = self._flag(argv, "--run-dir", str(tmp_path / "fresh"))
        assert TestOutThroughAFile._run(
            *fresh, "--out", str(first)).returncode == 0
        proc = TestOutThroughAFile._run(
            *self._flag(argv, "--workers", "2"), "--max-retries", "0",
            "--resume", "--out", str(resumed),
        )
        assert proc.returncode == 0, proc.stderr
        assert resumed.read_bytes() == first.read_bytes()

    def test_fresh_run_into_initialized_directory_exits_2(self, session):
        __, run_dir, argv = session
        manifest = (run_dir / "manifest.json").read_bytes()
        proc = TestOutThroughAFile._run(*argv)
        _assert_usage_error(proc, "run directory already initialized: ")
        assert (run_dir / "manifest.json").read_bytes() == manifest

    @pytest.mark.parametrize("state", ["missing", "empty"])
    def test_resume_without_a_manifest_exits_2(self, workspace, state):
        tmp_path, matrix_path, __ = workspace
        run_dir = tmp_path / "run"
        if state == "empty":
            run_dir.mkdir()
        proc = TestOutThroughAFile._run(
            "mine", str(matrix_path), "--target", "5.0",
            "--run-dir", str(run_dir), "--resume",
        )
        _assert_usage_error(proc, "no manifest in run directory: ")

    @pytest.mark.parametrize("content", [
        b"{not json", b"\xff\xfe", b'{"schema": 1, "config": {"bogus": 1}}',
    ], ids=["not-json", "not-utf8", "bad-config"])
    def test_resume_from_garbage_manifest_exits_2(self, workspace, content):
        tmp_path, matrix_path, __ = workspace
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_bytes(content)
        proc = TestOutThroughAFile._run(
            "mine", str(matrix_path), "--target", "5.0",
            "--run-dir", str(run_dir), "--resume",
        )
        _assert_usage_error(proc, "manifest ")
        assert str(run_dir / "manifest.json") in proc.stderr


    @pytest.mark.parametrize("through", [False, True],
                             ids=["file", "path-through-file"])
    def test_run_dir_through_a_file_exits_2(self, workspace, through):
        tmp_path, matrix_path, __ = workspace
        blocker = tmp_path / "afile"
        blocker.write_text("a file, not a run directory")
        run_dir = blocker / "sub" if through else blocker
        out = tmp_path / "mined.txt"
        proc = TestOutThroughAFile._run(
            "mine", str(matrix_path), "--target", "5.0", "--k", "2",
            "--restarts", "2", "--workers", "2", "--run-dir", str(run_dir),
            "--out", str(out),
        )
        _assert_usage_error(
            proc,
            f"cannot create run directory {run_dir}: {blocker} is not a "
            "directory",
        )
        assert blocker.read_text() == "a file, not a run directory"
        assert not out.exists()


class TestBadInputExitCodes:
    """Bad input that used to exit 1 or print a traceback: exit 2, one
    stderr line."""

    def test_unsupported_matrix_format_exits_2(self, workspace):
        tmp_path, matrix_path, __ = workspace
        text = tmp_path / "x.txt"
        text.write_bytes(matrix_path.read_bytes())
        proc = TestOutThroughAFile._run("mine", str(text), "--target", "5.0")
        _assert_usage_error(proc, f"unsupported matrix format: {text} ")

    @pytest.mark.parametrize("argv", [
        ["yeast", "--rows", "0"],
        ["synthetic", "--rows", "5", "--clusters", "2",
         "--cluster-rows", "10"],
    ], ids=["yeast-no-rows", "synthetic-clusters-do-not-fit"])
    def test_impossible_generate_parameters_exit_2(self, tmp_path, argv):
        out = tmp_path / "g.npz"
        proc = TestOutThroughAFile._run(
            "generate", *argv, "--out", str(out))
        _assert_usage_error(proc, f"cannot generate {argv[0]}: ")
        assert not out.exists()


class TestClustersOutsideTheMatrix:
    """``evaluate`` and ``predict`` on clusters or a cell that do not fit
    the matrix: exit 2, one stderr line, no traceback."""

    @pytest.fixture
    def tiny(self, tmp_path):
        path = tmp_path / "tiny.npz"
        assert main(["generate", "synthetic", "--rows", "20", "--cols", "8",
                     "--clusters", "1", "--cluster-rows", "5",
                     "--cluster-cols", "3", "--seed", "1",
                     "--out", str(path)]) == 0
        return path

    @staticmethod
    def _bigger(tmp_path):
        """Clusters of the 150-row workspace matrix, reaching row 149."""
        path = tmp_path / "bigger.txt"
        path.write_text("rows: 0 1 149\ncols: 0 1 2\n")
        return path

    def test_evaluate_clusters_of_a_bigger_matrix(self, workspace, tiny):
        tmp_path = workspace[0]
        bigger = self._bigger(tmp_path)
        proc = TestOutThroughAFile._run("evaluate", str(tiny), str(bigger))
        _assert_usage_error(
            proc, f"clusters in {bigger} do not fit {tiny}: row index 149 "
                  "out of range for 20 rows")

    def test_evaluate_truth_of_a_bigger_matrix(self, workspace, tiny):
        tmp_path = workspace[0]
        fits = tmp_path / "fits.txt"
        fits.write_text("rows: 0 1 2\ncols: 0 1 2\n")
        wide = tmp_path / "wide.txt"
        wide.write_text("rows: 0 1 2\ncols: 0 1 29\n")
        proc = TestOutThroughAFile._run(
            "evaluate", str(tiny), str(fits), "--truth", str(wide))
        _assert_usage_error(
            proc, f"truth clusters in {wide} do not fit {tiny}: column index "
                  "29 out of range for 8 columns")

    def test_negative_cluster_index(self, workspace):
        tmp_path, matrix_path, __ = workspace
        negative = tmp_path / "negative.txt"
        negative.write_text("rows: -1 2\ncols: 0 1\n")
        proc = TestOutThroughAFile._run(
            "evaluate", str(matrix_path), str(negative))
        _assert_usage_error(
            proc, f"malformed clusters {negative}: negative row index: -1")

    def test_predict_clusters_of_a_bigger_matrix(self, workspace, tiny):
        tmp_path = workspace[0]
        bigger = self._bigger(tmp_path)
        proc = TestOutThroughAFile._run(
            "predict", str(tiny), str(bigger), "--row", "0", "--col", "0")
        _assert_usage_error(
            proc, f"clusters in {bigger} do not fit {tiny}: row index 149 "
                  "out of range for 20 rows")

    @pytest.mark.parametrize("flag, index, message", [
        ("--row", "500", "invalid --row: 500 is outside the matrix's 150 rows"),
        ("--row", "-1", "invalid --row: -1 is outside the matrix's 150 rows"),
        ("--col", "30", "invalid --col: 30 is outside the matrix's 30 columns"),
    ], ids=["row-past-the-end", "negative-row", "col-past-the-end"])
    def test_predict_cell_outside_the_matrix(self, workspace, flag, index,
                                             message):
        __, matrix_path, truth_path = workspace
        cell = {"--row": "1", "--col": "1", flag: index}
        proc = TestOutThroughAFile._run(
            "predict", str(matrix_path), str(truth_path),
            "--row", cell["--row"], "--col", cell["--col"])
        _assert_usage_error(proc, message)
