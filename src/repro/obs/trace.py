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

Timestamps come from ``time.perf_counter_ns`` — monotonic, unaffected by
wall-clock adjustments — and are recorded in microseconds.
"""

from __future__ import annotations

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

    def ingest(self, events: List[Dict[str, Any]],
               parent_id: Optional[int] = None,
               **extra_attrs: Any) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Emits finished spans and instants to a sink; optionally mirrors
    span durations into a :class:`~repro.obs.metrics.MetricsRegistry`.

    Open spans form a stack: a new span's parent defaults to the top of
    the stack, so nested ``with tracer.span(...)`` blocks — and manual
    ``begin``/``end`` pairs that close in LIFO order, as the engine's
    superstep loop does — yield the run → superstep → phase hierarchy
    without explicit parent plumbing.
    """

    enabled = True

    def __init__(self, sink: Optional[Any] = None,
                 registry: Optional[Any] = None) -> None:
        self.sink = sink if sink is not None else InMemorySink()
        self.registry = registry
        self._next_id = 1
        self._stack: List[Span] = []
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

    # ------------------------------------------------------------------
    def span(self, name: str, category: Optional[str] = None,
             parent: Optional[Span] = None, **attrs: Any) -> Span:
        """Start a span (the clock is already running on return)."""
        span_id = self._next_id
        self._next_id += 1
        if parent is None and self._stack:
            parent_id: Optional[int] = self._stack[-1].span_id
        else:
            parent_id = parent.span_id if parent is not None else None
        span = Span(self, name, category or name, span_id, parent_id,
                    time.perf_counter_ns(), attrs)
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        if span.end_ns is not None:
            return  # idempotent: double end is a no-op
        span.end_ns = time.perf_counter_ns()
        # pop the span (and anything left open above it, defensively)
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self._emit_span(span)

    def record(self, name: str, category: str, duration_seconds: float,
               **attrs: Any) -> None:
        """Emit a synthetic span for an externally-accumulated duration.

        Used for durations measured outside the tracer (a served
        request, whose evaluation runs on a worker thread) — the span
        ends "now" and is backdated by its duration.
        """
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1].span_id if self._stack else None
        end_ns = time.perf_counter_ns()
        span = Span(self, name, category, span_id, parent_id,
                    end_ns - int(duration_seconds * 1e9), attrs)
        span.end_ns = end_ns
        self._emit_span(span)

    def event(self, name: str, category: Optional[str] = None,
              **attrs: Any) -> None:
        """Emit an instant event (a point in time, no duration)."""
        self.sink.emit({
            "type": "instant",
            "name": name,
            "cat": category or name,
            "ts": time.perf_counter_ns() // 1000,
            "attrs": attrs,
        })

    def _emit_span(self, span: Span) -> None:
        duration = span.duration_seconds
        if self._span_seconds is not None:
            self._span_seconds.labels(span.category).observe(duration)
            self._span_total.labels(span.category).inc()
        self.sink.emit({
            "type": "span",
            "name": span.name,
            "cat": span.category,
            "id": span.span_id,
            "parent": span.parent_id,
            "ts": span.start_ns // 1000,
            "dur": (span.end_ns - span.start_ns) // 1000,
            "attrs": span.attrs,
        })

    def ingest(self, events: List[Dict[str, Any]],
               parent_id: Optional[int] = None,
               **extra_attrs: Any) -> None:
        """Merge events recorded by another tracer into this trace.

        The query server evaluates on executor threads, each under a
        private tracer over an in-memory sink (:class:`thread_tracing`),
        and grafts the drained events into the main trace with this. Span
        ids are remapped to fresh ids from this tracer's sequence (private
        tracers all start at 1, and the validator rejects duplicates);
        parent links are rewritten consistently, and spans that were roots
        in the private trace are reparented under ``parent_id``.
        ``extra_attrs`` (the server's ``run=<run id>``) are stamped onto
        every ingested event.
        """
        id_map: Dict[int, int] = {}
        for event in events:
            old_id = event.get("id")
            if old_id is not None:
                id_map[old_id] = self._next_id
                self._next_id += 1
        for event in events:
            event = dict(event)
            if extra_attrs:
                attrs = dict(event.get("attrs") or {})
                attrs.update(extra_attrs)
                event["attrs"] = attrs
            old_id = event.get("id")
            if old_id is not None:
                event["id"] = id_map[old_id]
            old_parent = event.get("parent")
            if old_parent is not None and old_parent in id_map:
                event["parent"] = id_map[old_parent]
            elif "parent" in event or event.get("type") == "span":
                event["parent"] = parent_id
            if event.get("type") == "span" and self._span_seconds is not None:
                self._span_seconds.labels(event["cat"]).observe(
                    event.get("dur", 0) / 1e6
                )
                self._span_total.labels(event["cat"]).inc()
            self.sink.emit(event)

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        while self._stack:  # end anything left open, outermost last
            self._stack[-1].end()
        self.sink.close()


_ACTIVE: Any = NULL_TRACER

# Per-thread override. A Tracer's span stack is single-threaded by design,
# so code that evaluates on worker threads while a process-wide tracer is
# installed (the query server's executor offload) scopes a private tracer
# to its thread and ingests the drained events into the main trace
# afterwards (:meth:`Tracer.ingest`).
_THREAD_ACTIVE = __import__("threading").local()


def get_tracer() -> Any:
    """The active tracer: this thread's override if one is installed
    (see :class:`thread_tracing`), else the process-wide tracer
    (:data:`NULL_TRACER` by default)."""
    override = getattr(_THREAD_ACTIVE, "tracer", None)
    if override is not None:
        return override
    return _ACTIVE


def set_tracer(tracer: Any) -> Any:
    """Install ``tracer`` process-wide; returns the previous tracer."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer if tracer is not None else NULL_TRACER
    return previous


def set_thread_tracer(tracer: Any) -> Any:
    """Install ``tracer`` for the *calling thread only*; returns the
    thread's previous override (``None`` when there was none). Pass
    ``None`` to remove the override and fall back to the process-wide
    tracer."""
    previous = getattr(_THREAD_ACTIVE, "tracer", None)
    _THREAD_ACTIVE.tracer = tracer
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


class thread_tracing:
    """Context manager installing a tracer for the calling thread only.

    Used where evaluation runs on a worker thread while another thread
    owns the process-wide tracer: each worker traces into its own sink,
    then the owner ingests the drained events (``Tracer.ingest``) so span
    ids stay unique and the shared span stack is never touched from two
    threads."""

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self._previous: Any = None

    def __enter__(self) -> Any:
        self._previous = set_thread_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *exc: Any) -> None:
        set_thread_tracer(self._previous)
