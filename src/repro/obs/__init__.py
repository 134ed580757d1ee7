"""repro.obs — tracing, metrics and logging for the whole system.

Three cooperating pieces:

* :mod:`repro.obs.trace` — hierarchical span tracer (run → superstep →
  phase) over the monotonic clock, with a null tracer whose disabled
  overhead is a single flag check per superstep;
* :mod:`repro.obs.metrics` — process-wide registry of counters, gauges
  and fixed-bucket histograms, rendered in Prometheus text format;
* :mod:`repro.obs.sinks` — the in-memory and JSONL sinks, plus the JSONL
  event-schema validator;
* :mod:`repro.obs.stats` — per-phase aggregation behind ``repro stats``;
* :mod:`repro.obs.log` — the ``repro`` stdlib-logging hierarchy;
* :mod:`repro.obs.ledger` — append-only run ledger + audit verification
  behind ``repro audit``;
* :mod:`repro.obs.otel` — OTLP-JSON span export of a JSONL trace
  (``repro stats TRACE --format otel``).

Typical use::

    from repro import obs

    with obs.tracing(obs.Tracer(obs.JsonlSink("run.jsonl"),
                                registry=obs.get_registry())) as tracer:
        engine.run(program)
        tracer.close()
"""

from repro.obs.ledger import (
    RunLedger,
    environment_fingerprint,
    make_record,
    new_run_id,
    verify_record,
    verify_store,
)
from repro.obs.log import configure as configure_logging
from repro.obs.log import get_logger
from repro.obs.otel import to_otlp_json, validate_otlp
from repro.obs.metrics import (
    BYTES_BUCKETS,
    SECONDS_BUCKETS,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.sinks import (
    InMemorySink,
    JsonlSink,
    read_trace,
    validate_events,
)
from repro.obs.stats import render_summary, summarize
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    PHASE_BARRIER,
    PHASE_CAPTURE,
    PHASE_COMBINE,
    PHASE_COMPUTE,
    PHASE_QUERY,
    PHASE_RUN,
    PHASE_SERVE,
    PHASE_PLAN,
    PHASE_SPILL,
    PHASE_SUPERSTEP,
    PHASES,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "RunLedger",
    "environment_fingerprint",
    "make_record",
    "new_run_id",
    "verify_record",
    "verify_store",
    "to_otlp_json",
    "validate_otlp",
    "configure_logging",
    "get_logger",
    "BYTES_BUCKETS",
    "SECONDS_BUCKETS",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "InMemorySink",
    "JsonlSink",
    "read_trace",
    "validate_events",
    "render_summary",
    "summarize",
    "NULL_SPAN",
    "NULL_TRACER",
    "PHASE_BARRIER",
    "PHASE_CAPTURE",
    "PHASE_COMBINE",
    "PHASE_COMPUTE",
    "PHASE_QUERY",
    "PHASE_RUN",
    "PHASE_SERVE",
    "PHASE_PLAN",
    "PHASE_SPILL",
    "PHASE_SUPERSTEP",
    "PHASES",
    "NullTracer",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "tracing",
]
