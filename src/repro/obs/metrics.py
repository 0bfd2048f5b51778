"""Metrics registry: counters and histograms with dict snapshots.

A :class:`MetricsRegistry` is a flat namespace of named instruments.
Instruments are get-or-create (``registry.counter("runtime.waves")``
returns the same object every call) so hot paths can cache them, and the
whole registry renders to a plain nested dict via :meth:`snapshot` --
the only export format; no external metrics stack is required.  The
supervised runtime writes its ``runtime.*`` metrics here; FLOC writes
none.

Histograms keep exact running aggregates (count / total / min / max)
plus a bounded value sample for percentile estimates.  The sample is
decimated *deterministically* (every other element, doubling the stride)
rather than reservoir-sampled, so recording metrics never touches any
random number generator -- FLOC's RNG stream must be bit-identical with
and without instrumentation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["Counter", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Histogram:
    """Running distribution of observed values.

    Aggregates (count, total, min, max) are exact; percentiles are
    estimated from a bounded sample kept by stride-doubling decimation
    (keep every element until ``sample_cap``, then every 2nd, 4th, ...).
    """

    __slots__ = ("name", "count", "total", "min", "max", "_sample",
                 "_stride", "_skip", "sample_cap")

    def __init__(self, name: str, sample_cap: int = 4096) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.sample_cap = sample_cap
        self._sample: List[float] = []
        self._stride = 1
        self._skip = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._skip += 1
        if self._skip >= self._stride:
            self._skip = 0
            self._sample.append(value)
            if len(self._sample) >= self.sample_cap:
                self._sample = self._sample[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (``q`` in [0, 100])."""
        if not self._sample:
            return 0.0
        ordered = sorted(self._sample)
        rank = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named instruments with a plain-dict snapshot."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create -------------------------------------------------
    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def histogram(self, name: str, sample_cap: int = 4096) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name, sample_cap)
        return inst

    # -- convenience write paths ---------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- export --------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Two-section plain dict: counters, histograms."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        self._counters.clear()
        self._histograms.clear()
