"""Tracing overhead guard: the disabled tracer must cost < 5% of a run.

FLOC's hot loops are permanently instrumented with spans (around each
sweep scan of the gain engine and each performed action); typed events
are emitted only under an ``if tracer.enabled`` guard, and FLOC writes
no metric.  With no tracer attached every span degenerates to a shared
no-op span, but "negligible" must be *measured*, not assumed -- this
bench reconstructs the disabled-path cost from first principles:

1. time the standard run (no tracer) -- min of several repeats;
2. run once traced to count every span the run actually opens;
3. micro-time one disabled span cycle on the null tracer;
4. assert  (spans x unit cost)  <  5% of the run time.

The reconstruction is deliberately pessimistic: it charges every call
site at its micro-benchmarked cost with no allowance for what the
un-instrumented code would have paid anyway.
"""

import io
import json
import time

from repro.core.floc import floc
from repro.data.synthetic import generate_embedded
from repro.obs import NULL_TRACER, JsonlSink, RingBufferSink, Tracer, \
    WorkCounters


def _standard_run(matrix, tracer=None, work=None):
    """The 'standard FLOC run' the 5% budget is measured against."""
    return floc(
        matrix, k=8, p=0.2, residue_target=2.0, gain_mode="fast",
        ordering="weighted", reseed_rounds=1, rng=0, tracer=tracer,
        work=work,
    )


def _best_of(func, repeats=3):
    best = float("inf")
    for __ in range(repeats):
        started = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - started)
    return best


def _unit_cost(operation, reps=200_000, repeats=3):
    """Best-of-N per-operation cost: a single timing loop is at the
    mercy of one scheduler hiccup, which used to fail the 5% budget
    spuriously; the min over repeats is the honest disabled-path cost."""
    best = float("inf")
    for __ in range(repeats):
        started = time.perf_counter()
        for __ in range(reps):
            operation()
        best = min(best, (time.perf_counter() - started) / reps)
    return best


def test_disabled_tracer_overhead_under_5_percent(report):
    dataset = generate_embedded(
        200, 40, 5, cluster_shape=(25, 12), noise=1.0, rng=0
    )
    matrix = dataset.matrix

    run_time = _best_of(lambda: _standard_run(matrix))

    # Count the spans the run actually opens (the per-scan ``gain_eval``
    # span included), and the deterministic work totals
    # (machine-independent context the wall-clock numbers can be
    # normalized against).
    work = WorkCounters()
    traced = _standard_run(
        matrix,
        tracer=Tracer(sinks=[RingBufferSink(capacity=2_000_000)]),
        work=work,
    )
    spans = traced.trace_summary["spans"]
    n_spans = sum(entry["count"] for entry in spans.values())

    # Disabled-path unit cost.
    def span_cycle():
        with NULL_TRACER.span("gain_eval"):
            pass

    span_cost = _unit_cost(span_cycle)
    overhead = n_spans * span_cost
    fraction = overhead / run_time

    report("overhead_tracing", "\n".join([
        "disabled-tracer overhead reconstruction",
        f"standard run            : {run_time * 1e3:9.2f} ms",
        f"spans executed          : {n_spans:9d} x {span_cost * 1e9:6.1f} ns",
        f"reconstructed overhead  : {overhead * 1e3:9.3f} ms "
        f"({100 * fraction:.2f}% of the run)",
        f"work (deterministic)    : {work.total()} units "
        f"(toggle_evals={work.toggle_evals}, "
        f"cells_scanned={work.cells_scanned}, sweeps={work.sweeps})",
    ]))

    assert fraction < 0.05, (
        f"disabled tracer costs {100 * fraction:.2f}% of a standard run "
        f"(budget: 5%)"
    )


def _largest(records):
    """The record whose JSON encoding is longest: charging every record
    at its write cost keeps the reconstruction pessimistic."""
    return max(records, key=lambda r: len(json.dumps(r, sort_keys=True)))


def test_exporter_sink_write_cost_within_budget(report):
    """Attaching an exporter sink must also fit the 5% budget.

    Same reconstruction style as the disabled-path test: count the
    records a standard traced run emits, micro-time one ``write()`` per
    exporter of the largest of them, and charge every record at that
    unit cost.  The JSONL sink writes to an in-memory stream: the budget
    governs the encoding work FLOC pays inline, not the disk.
    """
    dataset = generate_embedded(
        200, 40, 5, cluster_shape=(25, 12), noise=1.0, rng=0
    )
    matrix = dataset.matrix

    run_time = _best_of(lambda: _standard_run(matrix))
    ring = RingBufferSink(capacity=2_000_000)
    traced = _standard_run(
        matrix, tracer=Tracer(sinks=[ring]),
    )
    n_records = sum(traced.trace_summary["events"].values())
    assert n_records == len(ring)
    record = _largest(ring.records)
    size = len(json.dumps(record, sort_keys=True))

    sinks = {
        "jsonl": JsonlSink(io.StringIO()),
    }
    lines = [
        f"exporter-sink per-record write cost ({n_records} records/run, "
        f"each charged as the largest: a {size}-byte "
        f"{record['type']!r} record)",
    ]
    worst_fraction = 0.0
    for name, sink in sinks.items():
        cost = _unit_cost(lambda s=sink: s.write(record), reps=20_000)
        fraction = n_records * cost / run_time
        worst_fraction = max(worst_fraction, fraction)
        lines.append(
            f"{name:<10}: {cost * 1e6:7.2f} us/record "
            f"-> {100 * fraction:5.2f}% of the run"
        )
        sink.close()
    report("overhead_exporters", "\n".join(lines))

    assert worst_fraction < 0.05, (
        f"worst exporter sink costs {100 * worst_fraction:.2f}% of a "
        f"standard run (budget: 5%)"
    )


def _serialized(result):
    """Canonical bytes for a pooled mining result (parity contract)."""
    payload = {
        "clustering": [[list(c.rows), list(c.cols)]
                       for c in result.clustering],
        "histories": [run.history for run in result.runs],
        "initial_residues": [run.initial_residue for run in result.runs],
    }
    return json.dumps(payload, sort_keys=True)


def test_supervised_session_tracing_overhead_and_parity(report):
    """Session tracing on the supervised runtime: < 5% and bit-identical.

    Same reconstruction style as the single-process tests, applied to
    the cross-process path: an untraced supervised run sets the budget
    baseline, and a traced run (``session_trace=True``) provides the
    real records.  Each record is charged at the measured cost of how it
    is written:

    * a supervisor-shard record at one ``flush_every=1`` shard write of
      the largest of them;
    * a worker record inside its restart's checkpoint record: encoding
      the restart's records into its in-memory JSONL shard, plus what
      the traced checkpoint record costs over its untraced twin to
      write (digest and atomic write) and to verify on the supervisor
      (two digest-checked reads: after the ack, and when pooling).

    The charge must stay under 5% of the untraced run.  The traced
    run's pooled result must also serialize bit-identically to the
    untraced run's -- telemetry and trace sections are observation,
    never input.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.data.io import write_json_atomic
    from repro.data.synthetic import generate_embedded
    from repro.obs.sinks import read_jsonl
    from repro.obs.session import TRACES_DIRNAME
    from repro.runtime import RunConfig, run_supervised
    from repro.runtime.checkpoint import read_record, record_digest

    dataset = generate_embedded(
        120, 24, 3, cluster_shape=(18, 8), noise=1.0, rng=0
    )
    matrix = dataset.matrix
    config = RunConfig(
        residue_target=2.0, n_restarts=4, root_seed=9, k=4,
        max_iterations=12, min_volume=16, workers=2, max_retries=0,
    )
    scratch = Path(tempfile.mkdtemp(prefix="bench-session-trace-"))
    try:
        def untraced_run():
            run_dir = scratch / "untraced"
            shutil.rmtree(run_dir, ignore_errors=True)
            return run_supervised(matrix, config, run_dir=run_dir)

        untraced, run_time = None, float("inf")
        for __ in range(3):
            started = time.perf_counter()
            out = untraced_run()
            elapsed = time.perf_counter() - started
            if elapsed < run_time:
                untraced, run_time = out, elapsed
        assert untraced.ok

        traced = run_supervised(
            matrix, config, run_dir=scratch / "traced", session_trace=True
        )
        assert traced.ok

        # Parity: tracing workers compute the identical result.
        assert _serialized(traced.result) == _serialized(untraced.result)

        # Supervisor records: one flushed shard write each, at the cost
        # of the largest.
        traces = traced.run_dir / TRACES_DIRNAME
        supervisor = [
            record
            for shard in sorted(traces.glob("trace_supervisor*.jsonl"))
            for record in read_jsonl(shard)
        ]
        largest = _largest(supervisor)
        sink = JsonlSink(scratch / "unit.jsonl", flush_every=1)
        flushed_cost = _unit_cost(lambda: sink.write(largest), reps=20_000)
        sink.close()
        supervisor_charge = len(supervisor) * flushed_cost

        # Worker records: each restart's shard encoding plus its traced
        # checkpoint record's write and two verifications, over the
        # same for the record without its trace section.
        def checkpoint(record, path):
            record_digest(record)
            write_json_atomic(path, record)
            read_record(path, record["restart"])
            read_record(path, record["restart"])

        worker_records = 0
        worker_charge = 0.0
        for path in sorted((traced.run_dir / "restarts").glob("*.json")):
            record = json.loads(path.read_text(encoding="utf-8"))
            section = [json.loads(line)
                       for line in record["trace"].splitlines()]
            worker_records += len(section)
            twin = {k: v for k, v in record.items() if k != "trace"}
            twin["digest"] = record_digest(twin)

            def encode(section=section):
                sink = JsonlSink(io.StringIO())
                for line in section:
                    sink.write(line)

            worker_charge += _unit_cost(encode, reps=50)
            worker_charge += max(0.0, _unit_cost(
                lambda: checkpoint(record, scratch / "traced.json"), reps=50,
            ) - _unit_cost(
                lambda: checkpoint(twin, scratch / "twin.json"), reps=50,
            ))

        overhead = supervisor_charge + worker_charge
        fraction = overhead / run_time
        report("overhead_session_tracing", "\n".join([
            "supervised session-tracing overhead reconstruction",
            f"untraced supervised run : {run_time * 1e3:9.2f} ms",
            f"supervisor records      : {len(supervisor):9d} x "
            f"{flushed_cost * 1e6:6.2f} us flushed (the largest: "
            f"{len(json.dumps(largest, sort_keys=True))} bytes, "
            f"{largest['type']!r}) = {supervisor_charge * 1e3:.3f} ms",
            f"worker records          : {worker_records:9d} in "
            f"checkpoint records = {worker_charge * 1e3:.3f} ms",
            f"reconstructed overhead  : {overhead * 1e3:9.3f} ms "
            f"({100 * fraction:.2f}% of the run)",
            "traced == untraced      : bit-identical pooled results",
        ]))
        assert fraction < 0.05, (
            f"session tracing costs {100 * fraction:.2f}% of an untraced "
            f"supervised run (budget: 5%)"
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
