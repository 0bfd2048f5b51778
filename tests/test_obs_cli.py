"""CLI observability flags: --trace / --progress / --metrics smoke tests.

The acceptance contract: ``repro mine --trace out.jsonl --progress``
emits a valid JSONL trace whose per-iteration residues exactly match the
``FlocResult.history`` of the equivalent API run, and tracing does not
change what the CLI mines.
"""

import json

import pytest

from repro.cli import main
from repro.core.mining import mine_delta_clusters
from repro.data.io import load_matrix_npz
from repro.obs import read_jsonl

pytestmark = pytest.mark.obs

MINE_ARGS = [
    "--target", "2.0", "--k", "3", "--restarts", "2",
    "--reseed-rounds", "2", "--seed", "9",
]


@pytest.fixture(scope="module")
def matrix_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs_cli") / "matrix.npz"
    code = main([
        "generate", "synthetic",
        "--rows", "80", "--cols", "18", "--clusters", "2",
        "--cluster-rows", "12", "--cluster-cols", "6",
        "--noise", "1", "--seed", "4", "--out", str(path),
    ])
    assert code == 0
    return path


def test_trace_and_progress_smoke(matrix_path, tmp_path, capsys):
    trace_path = tmp_path / "out.jsonl"
    code = main([
        "mine", str(matrix_path), *MINE_ARGS,
        "--trace", str(trace_path), "--progress", "--metrics",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert f"trace written to {trace_path}" in captured.out
    assert "run metrics" in captured.out
    assert "perf.toggles" in captured.out
    assert "iter" in captured.err  # progress goes to stderr

    # Every line of the trace is a JSON object with a type.
    with trace_path.open() as stream:
        lines = [line for line in stream if line.strip()]
    assert lines
    for line in lines:
        record = json.loads(line)
        assert record["type"] in {"seed", "iteration"}


def test_trace_residues_match_history(matrix_path, tmp_path):
    trace_path = tmp_path / "out.jsonl"
    code = main([
        "mine", str(matrix_path), *MINE_ARGS, "--trace", str(trace_path),
    ])
    assert code == 0
    records = read_jsonl(trace_path)

    # The equivalent API session (same defaults as cmd_mine, same seed).
    result = mine_delta_clusters(
        load_matrix_npz(matrix_path),
        residue_target=2.0, k=3, n_restarts=2, max_clusters=None,
        min_rows=3, min_cols=3, alpha=0.0, p=0.2, reseed_rounds=2, rng=9,
    )
    for restart, run in enumerate(result.runs):
        residues = [
            r["residue"] for r in records
            if r["type"] == "iteration" and r["restart"] == restart
        ]
        assert residues == run.history
        assert len(run.iteration_times) == len(run.history)


def test_tracing_does_not_change_mined_clusters(matrix_path, tmp_path):
    plain_out = tmp_path / "plain.txt"
    traced_out = tmp_path / "traced.txt"
    assert main([
        "mine", str(matrix_path), *MINE_ARGS, "--out", str(plain_out),
    ]) == 0
    assert main([
        "mine", str(matrix_path), *MINE_ARGS, "--out", str(traced_out),
        "--trace", str(tmp_path / "t.jsonl"), "--metrics",
    ]) == 0
    assert plain_out.read_text() == traced_out.read_text()


@pytest.fixture(scope="module")
def trace_path(matrix_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("obs_cli_trace") / "trace.jsonl"
    assert main([
        "mine", str(matrix_path), *MINE_ARGS, "--trace", str(path),
    ]) == 0
    return path


class TestAnalyzeTraceCommand:
    def test_human_output(self, trace_path, capsys):
        assert main(["analyze-trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "records" in out
        assert "session [restart=0]" in out
        assert "session [restart=1]" in out
        assert "session [restart=0]: per-cluster lifetime" in out
        assert "session [restart=1]: per-cluster lifetime" in out
        assert "session [restart=0]: decisions" in out
        assert "residue before -> after" in out

    def test_json_output_is_byte_identical(self, trace_path, capsys):
        assert main(["analyze-trace", str(trace_path), "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze-trace", str(trace_path), "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["schema"] == 4
        assert payload["warnings"] == []
        # Per-sweep figures agree with the raw IterationEvent fields.
        raw = read_jsonl(trace_path)
        iterations = [
            (r["n_actions"], r["n_adopted"], len(r["clusters"]))
            for r in raw if r["type"] == "iteration"
        ]
        analyzed = [
            (sweep["n_actions"], sweep["n_adopted"], len(sweep["decisions"]))
            for session in payload["sessions"]
            for sweep in session["sweeps"]
        ]
        assert analyzed == iterations

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["analyze-trace", "/no/such/trace.jsonl"]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_malformed_trace_skipped_with_warning(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('garbage\n{"type": "seed"}\n')
        assert main(["analyze-trace", str(bad)]) == 0
        assert "corrupt line(s) skipped" in capsys.readouterr().err

    def test_malformed_trace_rejected_under_strict(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('garbage\n{"type": "seed"}\n')
        assert main(["analyze-trace", str(bad), "--strict"]) == 2
        assert "malformed trace" in capsys.readouterr().err

    def test_strict_flag_rejects_truncation(self, trace_path, tmp_path,
                                            capsys):
        cut = tmp_path / "cut.jsonl"
        text = trace_path.read_text()
        cut.write_text(text[: len(text) - 15])
        assert main(["analyze-trace", str(cut)]) == 0
        capsys.readouterr()
        assert main(["analyze-trace", str(cut), "--strict"]) == 2
        assert "malformed trace" in capsys.readouterr().err


class TestDiffTracesCommand:
    def test_self_diff_reports_no_divergence(self, trace_path, capsys):
        assert main([
            "diff-traces", str(trace_path), str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "0 only in A, 0 only in B" in out
        assert "no divergence beyond tol=0" in out

    def test_iterations_on_one_side_diverge(self, trace_path, tmp_path,
                                            capsys):
        """A trace against an empty one diverges at its first iteration,
        in the text and the JSON output."""
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["diff-traces", str(trace_path), str(empty)]) == 0
        out = capsys.readouterr().out
        assert "0 aligned iteration(s)" in out
        assert "first divergence at iteration 0 of [restart=0] (only in A)" in out
        assert "no divergence" not in out
        assert main([
            "diff-traces", str(empty), str(trace_path), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_only_b"] > 0 and payload["n_aligned"] == 0
        # The document says which session and which side part first,
        # and lists every iteration only one side holds.
        first = payload["first_divergence"]
        assert (first["index"], first["side"]) == (0, "B")
        assert first["key"] == payload["unpaired"][0]["key"]
        assert len(payload["unpaired"]) == payload["n_only_b"]
        assert {it["side"] for it in payload["unpaired"]} == {"B"}
        restarts = {it["key"]["restart"] for it in payload["unpaired"]}
        assert restarts == {0, 1}
        assert first["key"]["restart"] == 0

    def test_twinned_runs_diverge(self, matrix_path, trace_path, tmp_path,
                                  capsys):
        other = tmp_path / "other.jsonl"
        assert main([
            "mine", str(matrix_path),
            "--target", "2.0", "--k", "3", "--restarts", "2",
            "--reseed-rounds", "2", "--seed", "10",
            "--trace", str(other),
        ]) == 0
        capsys.readouterr()
        assert main(["diff-traces", str(trace_path), str(other)]) == 0
        out = capsys.readouterr().out
        assert "aligned iteration(s)" in out
        assert "first divergence at iteration" in out

    def test_json_output(self, trace_path, capsys):
        assert main([
            "diff-traces", str(trace_path), str(trace_path), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 2
        assert payload["n_only_a"] == 0
        assert payload["unpaired"] == []
        assert payload["max_abs_residue_delta"] == 0.0
        assert payload["first_divergence"] is None

    def test_missing_file_is_usage_error(self, trace_path, capsys):
        assert main([
            "diff-traces", str(trace_path), "/no/such/b.jsonl",
        ]) == 2
        assert "no such trace file" in capsys.readouterr().err


class TestExportTraceCommand:
    @pytest.fixture(scope="class")
    def session_run(self, matrix_path, tmp_path_factory):
        """A tiny supervised traced run: (run_dir, merged trace path)."""
        base = tmp_path_factory.mktemp("export_cli")
        run_dir = base / "run"
        trace = base / "trace.jsonl"
        code = main([
            "mine", str(matrix_path), *MINE_ARGS,
            "--workers", "2", "--run-dir", str(run_dir),
            "--trace", str(trace),
        ])
        assert code == 0
        return run_dir, trace

    def test_supervised_trace_is_a_merged_session(self, session_run):
        _run_dir, trace = session_run
        records = read_jsonl(trace)
        assert records[0]["type"] == "session_meta"
        processes = records[0]["processes"]
        assert "supervisor" in processes
        assert any(name.startswith("worker:") for name in processes)

    def test_chrome_export_schema_and_monotonic_ts(
        self, session_run, tmp_path, capsys
    ):
        _run_dir, trace = session_run
        out = tmp_path / "chrome.json"
        assert main(["export-trace", str(trace), "--out", str(out)]) == 0
        assert "chrome trace written to" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert sorted(doc.keys()) == [
            "displayTimeUnit", "otherData", "traceEvents",
        ]
        assert doc["traceEvents"]
        stamped = [e["ts"] for e in doc["traceEvents"] if e["ph"] != "M"]
        assert stamped == sorted(stamped)
        assert all(ts >= 0.0 for ts in stamped)

    def test_chrome_export_deterministic_across_runs(
        self, session_run, tmp_path
    ):
        _run_dir, trace = session_run
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["export-trace", str(trace), "--out", str(a)]) == 0
        assert main(["export-trace", str(trace), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_run_dir_source_matches_merged_file(
        self, session_run, tmp_path
    ):
        run_dir, trace = session_run
        from_dir = tmp_path / "dir.jsonl"
        assert main(["export-trace", str(run_dir), "--format", "jsonl",
                     "--out", str(from_dir)]) == 0
        assert from_dir.read_bytes() == trace.read_bytes()

    def test_otlp_export(self, session_run, tmp_path):
        _run_dir, trace = session_run
        out = tmp_path / "logs.json"
        assert main(["export-trace", str(trace), "--format", "otlp",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        log_records = (
            payload["resourceLogs"][0]["scopeLogs"][0]["logRecords"]
        )
        assert log_records
        bodies = {r["body"]["stringValue"] for r in log_records}
        assert "iteration" in bodies

    def test_missing_source_is_usage_error(self, tmp_path, capsys):
        code = main(["export-trace", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "no such trace" in capsys.readouterr().err

    def test_stdout_default(self, session_run, capsys):
        _run_dir, trace = session_run
        assert main(["export-trace", str(trace)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "traceEvents" in doc
