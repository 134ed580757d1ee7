"""Trace sinks and the JSONL event schema.

A sink receives finished span/instant events as plain dicts from a
:class:`~repro.obs.trace.Tracer`. Two shapes are supported:

* :class:`InMemorySink` — collects events in a list (tests, the server's
  per-request spans);
* :class:`JsonlSink` — appends one JSON object per line, preceded by a
  ``meta`` header line carrying the schema version and clock info. JSONL
  is the one trace format; ``repro stats TRACE --format otel`` derives
  OTLP JSON from it (:mod:`repro.obs.otel`).

Event schema (version 2)::

    {"type": "meta",    "schema": 2, "clock": "perf_counter_ns",
     "unit": "us", "program": "repro", "run_id": str|null}
    {"type": "span",    "name": str, "cat": str, "id": int,
     "parent": int|null, "ts": int (us), "dur": int (us), "attrs": {...}}
    {"type": "instant", "name": str, "cat": str, "ts": int (us),
     "attrs": {...}}

Version 2 only adds the optional ``run_id`` meta field linking a trace
to its run-ledger record (``repro.obs.ledger``); span/instant events are
unchanged, so :func:`validate_events` accepts both versions in
:data:`SUPPORTED_SCHEMAS` and rejects anything else.

``ts`` is microseconds on the monotonic clock (``time.perf_counter_ns``);
it is meaningful only relative to other events of the same trace.
:func:`validate_events` checks a decoded event stream against this schema
and is what CI runs (``repro stats --validate``) on the smoke trace.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Iterable, List, Optional, Union

from repro.errors import ReproError

SCHEMA_VERSION = 2

#: Versions :func:`validate_events` accepts: v1 traces (no run id) are
#: still readable by every consumer in this package.
SUPPORTED_SCHEMAS = (1, 2)

#: Keys required per event type (value: required keys -> type check).
_REQUIRED: Dict[str, Dict[str, tuple]] = {
    "meta": {"schema": (int,), "clock": (str,), "unit": (str,)},
    "span": {
        "name": (str,), "cat": (str,), "id": (int,),
        "ts": (int, float), "dur": (int, float), "attrs": (dict,),
    },
    "instant": {
        "name": (str,), "cat": (str,), "ts": (int, float), "attrs": (dict,),
    },
}


def meta_event(run_id: Optional[str] = None) -> Dict[str, Any]:
    return {
        "type": "meta",
        "schema": SCHEMA_VERSION,
        "clock": "perf_counter_ns",
        "unit": "us",
        "program": "repro",
        "run_id": run_id,
    }


class InMemorySink:
    """Collects events in a list."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class JsonlSink:
    """Appends one JSON object per line to a file (or file-like object)."""

    def __init__(self, path_or_file: Union[str, IO[str]],
                 run_id: Optional[str] = None) -> None:
        if isinstance(path_or_file, str):
            self._fh: IO[str] = open(path_or_file, "w", encoding="utf-8")
            self._own = True
            self.path: Optional[str] = path_or_file
        else:
            self._fh = path_or_file
            self._own = False
            self.path = getattr(path_or_file, "name", None)
        self.run_id = run_id
        self.emit(meta_event(run_id))

    def emit(self, event: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(event, sort_keys=True, default=repr))
        self._fh.write("\n")

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        if self._own:
            self._fh.close()
        else:
            self._fh.flush()


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Decode a JSONL trace file back into a list of event dicts."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from None
            events.append(event)
    return events


def validate_events(events: Iterable[Dict[str, Any]]) -> List[str]:
    """Check events against the schema; returns a list of problems."""
    problems: List[str] = []
    seen_meta = False
    span_ids = set()
    for i, event in enumerate(events):
        where = f"event {i}"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        etype = event.get("type")
        if etype not in _REQUIRED:
            problems.append(f"{where}: unknown type {etype!r}")
            continue
        for key, types in _REQUIRED[etype].items():
            if key not in event:
                problems.append(f"{where} ({etype}): missing key {key!r}")
            elif not isinstance(event[key], types):
                problems.append(
                    f"{where} ({etype}): {key!r} has type "
                    f"{type(event[key]).__name__}"
                )
        if etype == "meta":
            if seen_meta:
                problems.append(f"{where}: duplicate meta event")
            seen_meta = True
            if event.get("schema") not in SUPPORTED_SCHEMAS:
                problems.append(
                    f"{where}: unsupported schema version "
                    f"{event.get('schema')!r} (this build reads "
                    f"{', '.join(map(str, SUPPORTED_SCHEMAS))}; the trace "
                    "was written by a newer or unknown producer)"
                )
        elif etype == "span":
            if event.get("dur", 0) < 0:
                problems.append(f"{where}: negative duration")
            span_id = event.get("id")
            if span_id in span_ids:
                problems.append(f"{where}: duplicate span id {span_id}")
            span_ids.add(span_id)
    if not seen_meta:
        problems.append("trace has no meta event")
    return problems
