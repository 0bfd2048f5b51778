"""Tests of the benchmark's summary arithmetic.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from dataclasses import dataclass, field

import pytest

import speed
import summary


@dataclass
class FakeRun:
    failures: list = field(default_factory=list)


@pytest.mark.parametrize("n, expected", [
    (19, None),  # the median would have only 9 samples beyond it
    (20, 50),
    (40, 75),
    (100, 90),
    (144, 93),
    (1000, 99),
])
def test_tail_percentile_from_sample_count(n, expected):
    assert summary.tail_percentile(n) == expected


@pytest.mark.parametrize("n", range(20, 400))
def test_tail_percentile_leaves_ten_samples_beyond(n):
    percentile = summary.tail_percentile(n)
    values = list(range(n))
    value = summary.nearest_rank(values, percentile)
    assert sum(1 for v in values if v > value) >= summary.TAIL_MARGIN
    # One percentile higher would leave fewer than ten.
    if percentile < 99:
        higher = summary.nearest_rank(values, percentile + 1)
        assert sum(1 for v in values if v > higher) < summary.TAIL_MARGIN


def test_tail_falls_back_to_median_when_samples_are_few():
    assert summary.tail([3.0, 1.0, 2.0]) == (2.0, 50, 3)


def test_tail_reports_value_percentile_and_count():
    values = [float(v) for v in range(40)]
    assert summary.tail(values) == (29.0, 75, 40)


def test_failures_count_runs_not_reasons():
    runs = [FakeRun(), FakeRun(["exit code 3", "cluster 1: residue"]), FakeRun(),
            FakeRun(["traced run's clusters differ"])]
    assert summary.count_failures(runs) == (4, 2)
    assert summary.ok_fraction(4, 2) == 0.5


def test_ok_fraction_needs_an_attempt():
    with pytest.raises(ValueError):
        summary.ok_fraction(0, 0)


def test_coverage_sums_layers_over_total():
    layers = {"spans": 2.5, "pool": 0.25, "save": 0.25}
    assert summary.coverage_frac(layers, 4.0) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        summary.coverage_frac(layers, 0.0)


def test_speed_scale_is_reference_over_median_kernel_time():
    host = speed.Speed()
    host.samples = [2 * speed.REFERENCE_S, 4 * speed.REFERENCE_S, 100.0]
    assert host.scale() == pytest.approx(0.25)
    host.sample()
    assert len(host.samples) == 3 + speed.SAMPLES_PER_RUN
    assert all(t > 0 for t in host.samples)


@pytest.mark.parametrize("name", [
    "setup_s", "restart_s.p50", "core.gain_engine.lane_builds", "9lives", "a-b_c.d",
    "x" * 64,
])
def test_metric_names_accepted(name):
    assert summary.check_metric_name(name) == name


@pytest.mark.parametrize("name", [
    "", "_private", ".dot", "with space", "slash/name", "colon:name", "tail%", "x" * 65,
    "naïve", None,
])
def test_metric_names_rejected(name):
    with pytest.raises(ValueError):
        summary.check_metric_name(name)
