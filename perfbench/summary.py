"""Summary arithmetic of the benchmark: medians, tails, failures, coverage.

Pure Python on purpose -- ``test_summary.py`` checks it without running
any mining.
"""

import math
import re
import statistics

#: Metric names the benchmark document accepts.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: Samples that must lie beyond a reported tail percentile.
TAIL_MARGIN = 10


def check_metric_name(name):
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not isinstance(name, str) or not _NAME.match(name):
        raise ValueError(
            f"metric name {name!r} must start with a letter or digit and use "
            "at most 64 of [A-Za-z0-9_.-]"
        )
    return name


def tail_percentile(n_samples):
    """Highest whole percentile with at least ``TAIL_MARGIN`` samples beyond it.

    "Beyond" counts the samples ranked after the percentile's
    nearest-rank sample.  Returns ``None`` when even the median would
    have fewer than ``TAIL_MARGIN`` samples beyond it.
    """
    if n_samples < 2 * TAIL_MARGIN:
        return None
    return 100 * (n_samples - TAIL_MARGIN) // n_samples


def nearest_rank(values, percentile):
    """The nearest-rank ``percentile`` of ``values`` (no interpolation)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile * len(ordered) / 100))
    return ordered[rank - 1]


def tail(values):
    """``(value, percentile, n)`` of the tail of ``values``.

    With too few samples for a tail the median stands in and the
    percentile reads 50.
    """
    percentile = tail_percentile(len(values))
    if percentile is None:
        return statistics.median(values), 50, len(values)
    return nearest_rank(values, percentile), percentile, len(values)


def count_failures(runs):
    """``(attempted, failed)`` over runs; a run fails if it has any failure."""
    attempted = len(runs)
    failed = sum(1 for run in runs if run.failures)
    return attempted, failed


def ok_fraction(attempted, failed):
    """Runs that passed every check, over runs attempted."""
    if attempted < 1:
        raise ValueError("no runs attempted")
    return (attempted - failed) / attempted


def coverage_frac(layer_seconds, total_seconds):
    """Share of ``total_seconds`` explained by the timed layers."""
    if total_seconds <= 0:
        raise ValueError(f"total time must be positive, got {total_seconds}")
    return sum(layer_seconds.values()) / total_seconds


def ratio(numerator, denominator):
    """``numerator / denominator``, 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0
