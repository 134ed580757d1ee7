"""OTLP-JSON export of ``repro.obs`` traces.

:func:`to_otlp_json` maps a recorded span tree to the OpenTelemetry
protocol's JSON encoding (``resourceSpans`` → ``scopeSpans`` → spans with
hex trace/span ids, parent links, status and typed attributes), so the
traces the engine already records can be ingested by any OTLP-compatible
backend (Jaeger, Tempo, vendor collectors) without an OTel SDK
dependency. Exposed on the CLI as ``repro stats <trace> --format otel``,
which converts the JSONL trace ``--trace OUT`` streams.

Mapping (see DESIGN.md §11 for the full table):

* every span and instant shares one 32-hex ``traceId``, derived from the
  producing run id when the meta line carries one (schema v2) and from
  the event content otherwise;
* a span's ``spanId`` is its tracer-assigned integer id as 16 hex chars;
  instants become zero-duration spans with synthetic ids above the real
  range, marked ``repro.instant = true``;
* ``ts``/``dur`` (µs on the monotonic clock) become
  ``startTimeUnixNano``/``endTimeUnixNano`` decimal strings (×1000);
  OTLP wants wall-clock nanos, but monotonic origins are preserved so
  ``repro`` traces stay internally consistent — the resource attribute
  ``repro.clock`` says so explicitly;
* the phase category rides in ``repro.phase``; original integer ids ride
  in ``repro.span_id``/``repro.parent_id`` — which makes the conversion
  lossless: :func:`from_otlp_json` inverts it exactly (the round-trip is
  pinned by tests).

:func:`validate_otlp` structurally checks an OTLP-JSON document (hex id
shapes, unique ids, resolvable parents, time ordering) and is what CI
runs on the benchmark smoke trace's OTel export.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

SCOPE_NAME = "repro.obs"

#: OTLP enum values used below (the JSON encoding carries bare ints).
SPAN_KIND_INTERNAL = 1
STATUS_CODE_OK = 1

_TRACE_ID_HEX = 32
_SPAN_ID_HEX = 16


# ---------------------------------------------------------------------------
# attribute codec (OTLP KeyValue lists <-> plain dicts)
# ---------------------------------------------------------------------------
def _encode_value(value: Any) -> Dict[str, Any]:
    # bool before int: bool is an int subclass.
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}  # OTLP-JSON: int64 as string
    if isinstance(value, float):
        return {"doubleValue": value}
    if isinstance(value, str):
        return {"stringValue": value}
    return {"stringValue": repr(value)}


def _decode_value(value: Dict[str, Any]) -> Any:
    if "boolValue" in value:
        return bool(value["boolValue"])
    if "intValue" in value:
        return int(value["intValue"])
    if "doubleValue" in value:
        return float(value["doubleValue"])
    return value.get("stringValue")


def encode_attributes(attrs: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [{"key": key, "value": _encode_value(value)}
            for key, value in attrs.items()]


def decode_attributes(attributes: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    return {kv["key"]: _decode_value(kv.get("value", {}))
            for kv in attributes}


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------
def _derive_trace_id(run_id: Optional[str],
                     events: Iterable[Dict[str, Any]]) -> str:
    """A stable 32-hex trace id: from the run id when one exists, from the
    event content otherwise (same trace -> same id, and never all-zero
    because sha256 of any input isn't)."""
    if run_id:
        seed = "run:" + run_id
    else:
        import json

        seed = "events:" + json.dumps(
            sorted(
                (e.get("id", -1), e.get("name", ""), e.get("ts", 0))
                for e in events if e.get("type") in ("span", "instant")
            ),
            default=repr,
        )
    return hashlib.sha256(seed.encode("utf-8")).hexdigest()[:_TRACE_ID_HEX]


def to_otlp_json(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert a decoded JSONL trace (meta/span/instant events) to one
    OTLP-JSON document, named after the meta line's run id."""
    from repro import __version__

    events = list(events)
    meta = next((e for e in events if e.get("type") == "meta"), {})
    run_id = meta.get("run_id")
    trace_id = _derive_trace_id(run_id, events)

    spans = [e for e in events if e.get("type") == "span"]
    instants = [e for e in events if e.get("type") == "instant"]
    # Synthetic ids for instants start above every real span id so the two
    # ranges cannot collide (the tracer assigns ids from 1).
    next_synthetic = max((e.get("id", 0) for e in spans), default=0) + 1

    otlp_spans: List[Dict[str, Any]] = []
    for event in spans:
        attrs = dict(event.get("attrs", {}))
        attrs["repro.phase"] = event["cat"]
        attrs["repro.span_id"] = event["id"]
        parent = event.get("parent")
        if parent is not None:
            attrs["repro.parent_id"] = parent
        start_ns = int(event["ts"]) * 1000
        end_ns = start_ns + int(event["dur"]) * 1000
        otlp: Dict[str, Any] = {
            "traceId": trace_id,
            "spanId": format(event["id"], f"0{_SPAN_ID_HEX}x"),
            "name": event["name"],
            "kind": SPAN_KIND_INTERNAL,
            "startTimeUnixNano": str(start_ns),
            "endTimeUnixNano": str(end_ns),
            "attributes": encode_attributes(attrs),
            "status": {"code": STATUS_CODE_OK},
        }
        if parent is not None:
            otlp["parentSpanId"] = format(parent, f"0{_SPAN_ID_HEX}x")
        otlp_spans.append(otlp)
    for event in instants:
        attrs = dict(event.get("attrs", {}))
        attrs["repro.phase"] = event["cat"]
        attrs["repro.instant"] = True
        ts_ns = int(event["ts"]) * 1000
        otlp_spans.append({
            "traceId": trace_id,
            "spanId": format(next_synthetic, f"0{_SPAN_ID_HEX}x"),
            "name": event["name"],
            "kind": SPAN_KIND_INTERNAL,
            "startTimeUnixNano": str(ts_ns),
            "endTimeUnixNano": str(ts_ns),
            "attributes": encode_attributes(attrs),
            "status": {"code": STATUS_CODE_OK},
        })
        next_synthetic += 1

    resource_attrs: Dict[str, Any] = {
        "service.name": meta.get("program", "repro"),
        "service.version": __version__,
        "repro.clock": meta.get("clock", "perf_counter_ns"),
        "repro.schema": meta.get("schema", 0),
    }
    if run_id:
        resource_attrs["repro.run_id"] = run_id
    return {
        "resourceSpans": [{
            "resource": {"attributes": encode_attributes(resource_attrs)},
            "scopeSpans": [{
                "scope": {"name": SCOPE_NAME, "version": __version__},
                "spans": otlp_spans,
            }],
        }],
    }


# ---------------------------------------------------------------------------
# import (round-trip inverse)
# ---------------------------------------------------------------------------
def _iter_otlp_spans(otlp: Dict[str, Any]
                     ) -> Iterable[Tuple[Dict[str, Any], Dict[str, Any]]]:
    for rs in otlp.get("resourceSpans", []):
        resource = decode_attributes(
            rs.get("resource", {}).get("attributes", [])
        )
        for ss in rs.get("scopeSpans", []):
            for span in ss.get("spans", []):
                yield resource, span


def from_otlp_json(otlp: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Invert :func:`to_otlp_json` back to meta/span/instant events."""
    from repro.obs.sinks import meta_event

    events: List[Dict[str, Any]] = []
    meta: Optional[Dict[str, Any]] = None
    for resource, span in _iter_otlp_spans(otlp):
        if meta is None:
            meta = meta_event(resource.get("repro.run_id"))
            events.append(meta)
        attrs = decode_attributes(span.get("attributes", []))
        phase = attrs.pop("repro.phase", "unknown")
        start_us = int(span["startTimeUnixNano"]) // 1000
        end_us = int(span["endTimeUnixNano"]) // 1000
        if attrs.pop("repro.instant", False):
            events.append({
                "type": "instant",
                "name": span["name"],
                "cat": phase,
                "ts": start_us,
                "attrs": attrs,
            })
            continue
        span_id = attrs.pop("repro.span_id", None)
        if span_id is None:
            span_id = int(span["spanId"], 16)
        parent = attrs.pop("repro.parent_id", None)
        if parent is None and span.get("parentSpanId"):
            parent = int(span["parentSpanId"], 16)
        events.append({
            "type": "span",
            "name": span["name"],
            "cat": phase,
            "id": span_id,
            "parent": parent,
            "ts": start_us,
            "dur": end_us - start_us,
            "attrs": attrs,
        })
    if meta is None:
        events.append(meta_event())
    return events


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
def _check_hex_id(value: Any, width: int) -> Optional[str]:
    if not isinstance(value, str):
        return f"not a string: {value!r}"
    if len(value) != width:
        return f"{len(value)} hex chars, expected {width}"
    try:
        as_int = int(value, 16)
    except ValueError:
        return f"not hexadecimal: {value!r}"
    if as_int == 0:
        return "all-zero id is invalid in OTLP"
    return None


def validate_otlp(otlp: Dict[str, Any]) -> List[str]:
    """Structurally check an OTLP-JSON document; returns problems (empty
    list = valid). Mirrors :func:`repro.obs.sinks.validate_events`."""
    problems: List[str] = []
    if not isinstance(otlp, dict) or "resourceSpans" not in otlp:
        return ["document has no resourceSpans"]
    span_ids: Dict[str, str] = {}
    parents: List[Tuple[str, str]] = []
    trace_ids = set()
    count = 0
    for _resource, span in _iter_otlp_spans(otlp):
        where = f"span {count}"
        count += 1
        name = span.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing name")
        issue = _check_hex_id(span.get("traceId"), _TRACE_ID_HEX)
        if issue:
            problems.append(f"{where}: bad traceId: {issue}")
        else:
            trace_ids.add(span["traceId"])
        issue = _check_hex_id(span.get("spanId"), _SPAN_ID_HEX)
        if issue:
            problems.append(f"{where}: bad spanId: {issue}")
        else:
            span_id = span["spanId"]
            if span_id in span_ids:
                problems.append(f"{where}: duplicate spanId {span_id}")
            span_ids[span_id] = where
        if "parentSpanId" in span:
            issue = _check_hex_id(span["parentSpanId"], _SPAN_ID_HEX)
            if issue:
                problems.append(f"{where}: bad parentSpanId: {issue}")
            else:
                parents.append((where, span["parentSpanId"]))
        try:
            start = int(span.get("startTimeUnixNano"))
            end = int(span.get("endTimeUnixNano"))
        except (TypeError, ValueError):
            problems.append(f"{where}: timestamps are not integer strings")
        else:
            if end < start:
                problems.append(f"{where}: endTimeUnixNano < startTimeUnixNano")
        for kv in span.get("attributes", []):
            if not isinstance(kv, dict) or "key" not in kv \
                    or not isinstance(kv.get("value"), dict):
                problems.append(f"{where}: malformed attribute {kv!r}")
        status = span.get("status")
        if not isinstance(status, dict) or "code" not in status:
            problems.append(f"{where}: missing status.code")
    for where, parent in parents:
        if parent not in span_ids:
            problems.append(
                f"{where}: parentSpanId {parent} does not match any span"
            )
    if count == 0:
        problems.append("document has no spans")
    if len(trace_ids) > 1:
        problems.append(
            f"spans carry {len(trace_ids)} distinct traceIds, expected 1"
        )
    return problems
