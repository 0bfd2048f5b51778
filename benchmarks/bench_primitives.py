"""Micro-benchmarks of the core primitives.

Not paper artifacts -- these pin the per-operation costs that the
complexity analysis of Section 4.2 is built from: the O(n*m) residue
scan, the exact toggle evaluation, and the gain engine's exact and
frozen-bases estimate lanes.  Useful for spotting performance regressions; these DO use
pytest-benchmark's repeated rounds since each call is microseconds.
"""

import numpy as np
import pytest

from repro.core.actions import evaluate_toggle
from repro.core.gain_engine import _BLOCK, estimate_lane, exact_context, exact_lane
from repro.core.residue import mean_abs_residue
from repro.obs.perf.workloads import make_primitives_payload


@pytest.fixture(scope="module")
def payload():
    # One code path: the same payload backs the `primitives` suite of
    # `repro bench run`, so these timings and the harness counters
    # always describe identical work.
    return make_primitives_payload()


def test_mean_abs_residue_120x16(benchmark, payload):
    values, row_member, col_member, __ = payload
    sub = values[np.ix_(np.flatnonzero(row_member), np.flatnonzero(col_member))]
    result = benchmark(mean_abs_residue, sub)
    assert result >= 0.0


def test_exact_toggle_evaluation(benchmark, payload):
    values, row_member, col_member, __ = payload
    residue, volume = benchmark(
        evaluate_toggle, values, row_member, col_member, "row", 400
    )
    assert volume > 0


def test_refresh_cluster(benchmark, payload):
    __, __, __, state = payload
    benchmark(state.refresh_cluster, 0)
    assert state.volumes[0] >= 0


def test_exact_lane_full(benchmark, payload):
    __, __, __, state = payload
    lane = benchmark(exact_lane, state, "row", 0)
    assert lane.new_residues.shape == (600,)
    assert np.isfinite(lane.new_residues).all()


def test_exact_lane_block(benchmark, payload):
    __, __, __, state = payload
    ctx = exact_context(state, "row", 0)
    sel = np.arange(_BLOCK, dtype=np.intp)
    lane = benchmark(exact_lane, state, "row", 0, sel=sel, ctx=ctx)
    assert lane.new_residues.shape == (_BLOCK,)
    assert np.isfinite(lane.new_residues).all()


def test_exact_context_build(benchmark, payload):
    __, __, __, state = payload
    ctx = benchmark(exact_context, state, "row", 0)
    assert ctx.m > 0


def test_estimate_lane(benchmark, payload):
    __, __, __, state = payload
    lane = benchmark(estimate_lane, state, 0)
    assert lane.new_residues.shape == (680,)  # 600 rows, then 80 columns
