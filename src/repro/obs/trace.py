"""Hierarchical span tracer with a provably-cheap disabled path.

The span model mirrors the BSP execution it instruments::

    run
    └── superstep s                 (one per superstep)
        ├── compute                 (the vertex loop + post_superstep)
        │     └── query-eval        (the online superstep program)
        ├── message-barrier         (send-log group-by + aggregators)
        └── spill                   (slab seal/load round-trips)
    provenance-capture              (capture flush + layer hand-off, at
                                     each barrier's halt check and run end)
    spill: store-open, slab-decode  (offline reads: a read session's footer
                                     reads, a segment's first decode)
    serve: serve-eval run=<run id>  (one served evaluation, on its worker
    └── query-eval                   thread, and that evaluation's layers)
    serve: serve-request            (one HTTP request, on the event loop)

Phase names are fixed (:data:`PHASES`) so traces from different runs
aggregate cleanly; free-form context travels in span attributes.
``combine`` never gets spans — message combining is interleaved inside
``compute`` at per-message granularity — it is accounted by the
``messages_combined`` counter instead.

Disabled tracing costs one attribute read: the module default is
:data:`NULL_TRACER`, whose ``enabled`` flag lets hot paths skip
instrumentation entirely (the engine checks it once per superstep, never
per vertex), and whose ``span()`` returns a shared no-op span so even
un-gated call sites allocate nothing.

Any thread may trace into the process-wide tracer. Each thread keeps its
own stack of open spans, so a span's default parent is the innermost span
open *on its own thread*; span ids come from one counter, and each
finished event is mirrored into the metrics and written to the sink under
one lock. The query server's evaluation threads trace this way: each
served evaluation is a ``serve`` span on its worker thread, with that
evaluation's ``query-eval`` spans nested under it.

Timestamps come from ``time.perf_counter_ns`` — monotonic, unaffected by
wall-clock adjustments — and are recorded in microseconds.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs.sinks import InMemorySink

# Phase taxonomy (span categories).
PHASE_RUN = "run"
PHASE_SUPERSTEP = "superstep"
PHASE_COMPUTE = "compute"
PHASE_BARRIER = "message-barrier"
PHASE_COMBINE = "combine"  # counter-only; see module docstring
PHASE_CAPTURE = "provenance-capture"
PHASE_QUERY = "query-eval"
PHASE_SPILL = "spill"
PHASE_SERVE = "serve"  # HTTP request handling in the query server
PHASE_PLAN = "plan"  # query compilation and program build, before a run

PHASES = (
    PHASE_RUN, PHASE_SUPERSTEP, PHASE_COMPUTE, PHASE_BARRIER, PHASE_COMBINE,
    PHASE_CAPTURE, PHASE_QUERY, PHASE_SPILL, PHASE_SERVE,
    PHASE_PLAN,
)


class Span:
    """One timed, attributed interval; ended explicitly or via ``with``."""

    __slots__ = ("_tracer", "name", "category", "span_id", "parent_id",
                 "start_ns", "end_ns", "attrs")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 span_id: int, parent_id: Optional[int], start_ns: int,
                 attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attrs = attrs

    @property
    def duration_seconds(self) -> float:
        if self.end_ns is None:
            return 0.0
        return (self.end_ns - self.start_ns) / 1e9

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def end(self, **attrs: Any) -> None:
        if attrs:
            self.attrs.update(attrs)
        self._tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.end()


class _NullSpan:
    """Shared do-nothing span returned by the disabled tracer."""

    __slots__ = ()
    name = category = None
    span_id = parent_id = None
    duration_seconds = 0.0
    attrs: Dict[str, Any] = {}

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def end(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a constant-time no-op."""

    enabled = False
    registry = None

    def span(self, name: str, category: Optional[str] = None,
             **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def record(self, name: str, category: str, duration_seconds: float,
               **attrs: Any) -> None:
        pass

    def event(self, name: str, category: Optional[str] = None,
              **attrs: Any) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Emits finished spans and instants to a sink; optionally mirrors
    span durations into a :class:`~repro.obs.metrics.MetricsRegistry`.

    Open spans form one stack per thread: a new span's parent defaults to
    the top of the calling thread's stack, so nested ``with
    tracer.span(...)`` blocks — and manual ``begin``/``end`` pairs that
    close in LIFO order, as the engine's superstep loop does — yield the
    run → superstep → phase hierarchy without explicit parent plumbing,
    and spans opened on other threads never become a parent by accident.
    Span ids come from one counter shared by every thread; the metric
    observation and sink write of each finished event happen under one
    lock, so any thread traces straight into this tracer. After
    :meth:`close`, emitted events are dropped.
    """

    enabled = True

    def __init__(self, sink: Optional[Any] = None,
                 registry: Optional[Any] = None) -> None:
        self.sink = sink if sink is not None else InMemorySink()
        self.registry = registry
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._closed = False
        self._span_seconds = None
        self._span_total = None
        if registry is not None:
            from repro.obs.metrics import SECONDS_BUCKETS

            self._span_seconds = registry.histogram(
                "repro_span_seconds", "span duration by phase",
                labels=("phase",), boundaries=SECONDS_BUCKETS,
            )
            self._span_total = registry.counter(
                "repro_span_total", "finished spans by phase",
                labels=("phase",),
            )

    def _stack(self) -> List[Span]:
        """The calling thread's open spans, innermost last."""
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    # ------------------------------------------------------------------
    def span(self, name: str, category: Optional[str] = None,
             parent: Optional[Span] = None, **attrs: Any) -> Span:
        """Start a span (the clock is already running on return)."""
        stack = self._stack()
        if parent is not None:
            parent_id: Optional[int] = parent.span_id
        else:
            parent_id = stack[-1].span_id if stack else None
        span = Span(self, name, category or name, next(self._ids),
                    parent_id, time.perf_counter_ns(), attrs)
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        if span.end_ns is not None:
            return  # idempotent: double end is a no-op
        span.end_ns = time.perf_counter_ns()
        # pop the span (and anything this thread left open above it)
        stack = self._stack()
        for depth in range(len(stack) - 1, -1, -1):
            if stack[depth] is span:
                del stack[depth:]
                break
        self._emit_span(span)

    def record(self, name: str, category: str, duration_seconds: float,
               **attrs: Any) -> None:
        """Emit a synthetic span for an externally-accumulated duration.

        Used for durations measured outside the tracer (a served
        request, timed on the event loop across its awaits) — the span
        ends "now" and is backdated by its duration.
        """
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        end_ns = time.perf_counter_ns()
        span = Span(self, name, category, next(self._ids), parent_id,
                    end_ns - int(duration_seconds * 1e9), attrs)
        span.end_ns = end_ns
        self._emit_span(span)

    def event(self, name: str, category: Optional[str] = None,
              **attrs: Any) -> None:
        """Emit an instant event (a point in time, no duration)."""
        event = {
            "type": "instant",
            "name": name,
            "cat": category or name,
            "ts": time.perf_counter_ns() // 1000,
            "attrs": attrs,
        }
        with self._lock:
            if not self._closed:
                self.sink.emit(event)

    def _emit_span(self, span: Span) -> None:
        event = {
            "type": "span",
            "name": span.name,
            "cat": span.category,
            "id": span.span_id,
            "parent": span.parent_id,
            "ts": span.start_ns // 1000,
            "dur": (span.end_ns - span.start_ns) // 1000,
            "attrs": span.attrs,
        }
        with self._lock:
            if self._closed:
                return
            if self._span_seconds is not None:
                self._span_seconds.labels(span.category).observe(
                    span.duration_seconds)
                self._span_total.labels(span.category).inc()
            self.sink.emit(event)

    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self.sink.flush()

    def close(self) -> None:
        """End the calling thread's open spans, outermost last, then close
        the sink; later events from any thread are dropped."""
        stack = self._stack()
        while stack:
            stack[-1].end()
        with self._lock:
            if not self._closed:
                self._closed = True
                self.sink.close()


_ACTIVE: Any = NULL_TRACER


def get_tracer() -> Any:
    """The process-wide tracer (:data:`NULL_TRACER` by default)."""
    return _ACTIVE


def set_tracer(tracer: Any) -> Any:
    """Install ``tracer`` process-wide; returns the previous tracer."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer if tracer is not None else NULL_TRACER
    return previous


class tracing:
    """Context manager installing a tracer for the duration of a block::

        with tracing(Tracer(sink)) as tracer:
            engine.run(program)
    """

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self._previous: Any = None

    def __enter__(self) -> Any:
        self._previous = set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *exc: Any) -> None:
        set_tracer(self._previous)
