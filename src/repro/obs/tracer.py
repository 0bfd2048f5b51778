"""Tracer: span timing and typed-event dispatch with zero disabled cost.

The tracer is the single instrumentation handle threaded through FLOC.
It owns three optional facilities:

* **spans** -- ``with tracer.span("phase1", k=k) as sp:`` times a region
  (``sp.elapsed`` afterwards).  Span timings are always folded into the
  per-name aggregates returned by :meth:`Tracer.summary`; the individual
  records are forwarded to sinks only when ``emit_spans=True`` (the
  per-scan ``gain_eval`` spans would otherwise flood a JSONL trace).
* **typed events** -- :meth:`Tracer.emit` takes an
  :class:`~repro.obs.events.TraceEvent`, merges the current context
  (e.g. ``restart=2``) and hands the flat dict to every sink.
* **metrics** -- :meth:`inc` / :meth:`set_gauge` / :meth:`observe`
  delegate to an attached :class:`~repro.obs.metrics.MetricsRegistry`.

A disabled tracer (``NULL_TRACER``, the default everywhere) costs one
attribute check per call site: ``span()`` returns a shared no-op span,
``emit``/``inc``/``observe`` return immediately, and no event objects
are ever constructed by callers that guard on :attr:`Tracer.enabled`.
The tracer never draws random numbers, so instrumentation cannot
perturb FLOC's RNG stream.

All timing goes through :attr:`Tracer.clock` (``time.perf_counter``),
which is also the clock core code should use instead of importing
``time`` directly -- tests substitute a fake clock through it.

Cross-process session traces (:mod:`repro.obs.session`) need a total
order over records from many processes, so a tracer can additionally
*stamp* every record it dispatches (``stamp=True``): a monotonic
``ts`` (the :attr:`clock` reading at emit time) and a per-process
``seq`` counter.  Stamping never touches the RNG or the mined result;
it only annotates the records sinks receive.
"""

from __future__ import annotations

import time
from types import TracebackType
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

if TYPE_CHECKING:
    # Annotations only: an untraced process loads no event vocabulary,
    # metrics registry or sink code (see DESIGN.md, "Start-up").
    from .events import TraceEvent
    from .metrics import MetricsRegistry
    from .sinks import Sink

__all__ = ["Span", "Tracer", "NULL_TRACER"]


class _NullSpan:
    """Shared do-nothing span handed out by disabled tracers."""

    __slots__ = ()
    name = ""
    elapsed = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False

    def set(self, **attrs: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Span:
    """A timed region; created via :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "name", "attrs", "started", "elapsed")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.started = 0.0
        self.elapsed = 0.0

    def set(self, **attrs: object) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self.started = self._tracer.clock()
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        self.elapsed = self._tracer.clock() - self.started
        self._tracer._finish_span(self)
        return False


class Tracer:
    """Dispatch hub for spans, typed events and metrics.

    Parameters
    ----------
    sinks:
        Objects with ``write(record: dict)`` (see :mod:`repro.obs.sinks`);
        every emitted event is forwarded to each in order.
    metrics:
        Optional :class:`MetricsRegistry`; ``None`` makes the metric
        write paths no-ops.
    enabled:
        Master switch.  A disabled tracer ignores everything (this is
        what ``NULL_TRACER`` is).
    emit_spans:
        Also forward individual span records (``{"type": "span", ...}``)
        to the sinks.  Off by default; span aggregates are always
        available from :meth:`summary`.
    stamp:
        Annotate every dispatched record with a monotonic ``ts``
        (:attr:`clock` at emit time) and a per-process ``seq`` counter,
        the ordering keys the cross-process session merge
        (:mod:`repro.obs.session`) aligns and sorts on.
    """

    clock = staticmethod(time.perf_counter)

    def __init__(
        self,
        sinks: Sequence[Sink] = (),
        metrics: Optional[MetricsRegistry] = None,
        enabled: bool = True,
        emit_spans: bool = False,
        stamp: bool = False,
    ) -> None:
        self.sinks: List[Sink] = list(sinks)
        self.metrics = metrics
        self.enabled = enabled
        self.emit_spans = emit_spans
        self.stamp = stamp
        self._seq = 0
        self._context: List[Dict[str, object]] = []
        self._merged_context: Dict[str, object] = {}
        self._event_counts: Dict[str, int] = {}
        self._span_agg: Dict[str, List[float]] = {}  # name -> [count, total_s]

    # -- context -------------------------------------------------------
    def push_context(self, **attrs: object) -> None:
        """Attach key/values merged into every subsequent record."""
        self._context.append(attrs)
        self._merged_context = {k: v for d in self._context for k, v in d.items()}

    def pop_context(self) -> None:
        if self._context:
            self._context.pop()
            self._merged_context = {
                k: v for d in self._context for k, v in d.items()
            }

    # -- spans ---------------------------------------------------------
    def span(self, name: str, **attrs: object) -> Union[Span, "_NullSpan"]:
        """Timed region context manager; no-op singleton when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, attrs)

    def _finish_span(self, span: Span) -> None:
        agg = self._span_agg.get(span.name)
        if agg is None:
            self._span_agg[span.name] = [1, span.elapsed]
        else:
            agg[0] += 1
            agg[1] += span.elapsed
        if self.emit_spans and self.sinks:
            record = {"type": "span", "name": span.name,
                      "elapsed_s": span.elapsed}
            record.update(self._merged_context)
            record.update(span.attrs)
            if self.stamp:
                self._stamp(record)
            for sink in self.sinks:
                sink.write(record)

    def _stamp(self, record: Dict[str, object]) -> None:
        """Attach the (ts, seq) ordering keys session merges sort on."""
        record["ts"] = self.clock()
        record["seq"] = self._seq
        self._seq += 1

    # -- typed events ----------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        """Forward one typed event (merged with the context) to the sinks."""
        if not self.enabled:
            return
        record = event.to_dict()
        record.update(self._merged_context)
        if self.stamp:
            self._stamp(record)
        kind = record.get("type", "event")
        self._event_counts[kind] = self._event_counts.get(kind, 0) + 1
        for sink in self.sinks:
            sink.write(record)

    # -- metrics write paths ---------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        if self.enabled and self.metrics is not None:
            self.metrics.inc(name, n)

    def set_gauge(self, name: str, value: float) -> None:
        if self.enabled and self.metrics is not None:
            self.metrics.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        if self.enabled and self.metrics is not None:
            self.metrics.observe(name, value)

    # -- lifecycle -------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Aggregate view: event counts plus per-span count/total time."""
        return {
            "events": dict(self._event_counts),
            "spans": {
                name: {"count": int(agg[0]), "total_s": float(agg[1])}
                for name, agg in sorted(self._span_agg.items())
            },
        }

    def snapshot_metrics(self) -> Optional[Dict[str, object]]:
        """The metrics snapshot, or ``None`` when no registry is attached."""
        if self.metrics is None:
            return None
        return self.metrics.snapshot()

    def close(self) -> None:
        """Close every sink that supports it (flushes JSONL writers)."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


#: The default tracer: permanently disabled, shared, allocation-free.
NULL_TRACER = Tracer(enabled=False)
