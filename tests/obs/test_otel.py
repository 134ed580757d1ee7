"""Tests for OTLP-JSON trace export (repro.obs.otel)."""

import json

from repro.obs.otel import (
    SCOPE_NAME,
    decode_attributes,
    encode_attributes,
    to_otlp_json,
    validate_otlp,
)
from repro.obs.sinks import InMemorySink, meta_event, validate_events
from repro.obs.trace import Tracer

RUN_ID = "rdeadbeef0123cafe"


def _events():
    """A small hand-built trace: two nested spans, a root span, an instant."""
    return [
        meta_event(RUN_ID),
        {"type": "span", "name": "run", "cat": "run", "id": 1,
         "parent": None, "ts": 1000, "dur": 900,
         "attrs": {"backend": "serial", "num_workers": 4}},
        {"type": "span", "name": "superstep", "cat": "superstep", "id": 2,
         "parent": 1, "ts": 1100, "dur": 300,
         "attrs": {"superstep": 0, "active": True, "frontier_fraction": 0.5}},
        {"type": "span", "name": "seal", "cat": "spill", "id": 3,
         "parent": None, "ts": 1500, "dur": 50, "attrs": {}},
        {"type": "instant", "name": "halt", "cat": "run", "ts": 1900,
         "attrs": {"reason": "converged"}},
    ]


def _spans(otlp):
    return otlp["resourceSpans"][0]["scopeSpans"][0]["spans"]


class TestExport:
    def test_document_structure(self):
        otlp = to_otlp_json(_events())
        (rs,) = otlp["resourceSpans"]
        (ss,) = rs["scopeSpans"]
        assert ss["scope"]["name"] == SCOPE_NAME
        assert len(ss["spans"]) == 4  # 3 spans + 1 instant

    def test_ids_are_hex_and_linked(self):
        spans = _spans(to_otlp_json(_events()))
        by_name = {s["name"]: s for s in spans}
        assert by_name["run"]["spanId"] == format(1, "016x")
        assert by_name["superstep"]["parentSpanId"] == by_name["run"]["spanId"]
        assert "parentSpanId" not in by_name["run"]
        assert all(len(s["traceId"]) == 32 for s in spans)
        assert len({s["traceId"] for s in spans}) == 1

    def test_instant_becomes_zero_duration_span(self):
        spans = _spans(to_otlp_json(_events()))
        halt = next(s for s in spans if s["name"] == "halt")
        assert halt["startTimeUnixNano"] == halt["endTimeUnixNano"]
        attrs = decode_attributes(halt["attributes"])
        assert attrs["repro.instant"] is True
        # synthetic id lives above the real span-id range
        assert int(halt["spanId"], 16) == 4

    def test_timestamps_are_nano_strings(self):
        spans = _spans(to_otlp_json(_events()))
        run = next(s for s in spans if s["name"] == "run")
        assert run["startTimeUnixNano"] == str(1000 * 1000)
        assert run["endTimeUnixNano"] == str((1000 + 900) * 1000)

    def test_resource_carries_run_id_and_schema(self):
        otlp = to_otlp_json(_events())
        resource = decode_attributes(
            otlp["resourceSpans"][0]["resource"]["attributes"]
        )
        assert resource["repro.run_id"] == RUN_ID
        assert resource["service.name"] == "repro"
        assert resource["repro.schema"] == meta_event()["schema"]

    def test_attribute_types_survive_encoding(self):
        attrs = {"b": True, "i": 7, "f": 0.25, "s": "x", "o": (1, 2)}
        back = decode_attributes(encode_attributes(attrs))
        assert back["b"] is True
        assert back["i"] == 7 and isinstance(back["i"], int)
        assert back["f"] == 0.25
        assert back["s"] == "x"
        assert back["o"] == repr((1, 2))  # documented lossy fallback

    def test_document_is_json_serializable(self):
        json.dumps(to_otlp_json(_events()))


class TestTraceId:
    def test_stable_for_same_run_id(self):
        a = _spans(to_otlp_json(_events()))[0]["traceId"]
        b = _spans(to_otlp_json(_events()))[0]["traceId"]
        assert a == b

    def test_differs_across_run_ids(self):
        a = _spans(to_otlp_json([meta_event("r1111aaaa2222bbbb")]
                                + _events()[1:]))
        b = _spans(to_otlp_json([meta_event("r3333cccc4444dddd")]
                                + _events()[1:]))
        assert a[0]["traceId"] != b[0]["traceId"]

    def test_content_derived_without_run_id(self):
        events = [e for e in _events() if e["type"] != "meta"]
        a = _spans(to_otlp_json(events))[0]["traceId"]
        b = _spans(to_otlp_json(events))[0]["traceId"]
        assert a == b and int(a, 16) != 0


def _assert_spans_match(otlp, events):
    """Every OTLP span carries its source event: name, ids, parent, times
    and attributes (the original ids and phase ride in ``repro.*``
    attributes). Spans come first, then instants, each in source order."""
    spans = [e for e in events if e["type"] == "span"]
    instants = [e for e in events if e["type"] == "instant"]
    exported = _spans(otlp)
    assert len(exported) == len(spans) + len(instants)
    for event, span in zip(spans, exported):
        assert span["name"] == event["name"]
        assert span["spanId"] == format(event["id"], "016x")
        parent = event.get("parent")
        attrs = dict(event.get("attrs", {}), **{
            "repro.phase": event["cat"], "repro.span_id": event["id"]})
        if parent is None:
            assert "parentSpanId" not in span
        else:
            assert span["parentSpanId"] == format(parent, "016x")
            attrs["repro.parent_id"] = parent
        start = int(event["ts"]) * 1000
        assert span["startTimeUnixNano"] == str(start)
        assert span["endTimeUnixNano"] == str(start + int(event["dur"]) * 1000)
        assert decode_attributes(span["attributes"]) == attrs
    for event, span in zip(instants, exported[len(spans):]):
        assert span["name"] == event["name"]
        assert "parentSpanId" not in span
        ts = str(int(event["ts"]) * 1000)
        assert span["startTimeUnixNano"] == span["endTimeUnixNano"] == ts
        assert decode_attributes(span["attributes"]) == dict(
            event.get("attrs", {}),
            **{"repro.phase": event["cat"], "repro.instant": True})


class TestRoundTrip:
    def test_hand_built_events_round_trip(self):
        events = _events()
        otlp = to_otlp_json(events)
        resource = decode_attributes(
            otlp["resourceSpans"][0]["resource"]["attributes"])
        assert resource["repro.run_id"] == RUN_ID
        _assert_spans_match(otlp, events)

    def test_tracer_events_round_trip(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        sink.emit(meta_event(RUN_ID))
        with tracer.span("run", "run", backend="serial"):
            with tracer.span("superstep", "superstep", superstep=0):
                tracer.event("frontier", "superstep", size=12)
            tracer.record("seal", "spill", 0.001, layer=0)
        events = sink.events
        assert validate_events(events) == []
        otlp = to_otlp_json(events)
        assert validate_otlp(otlp) == []
        _assert_spans_match(otlp, events)


class TestValidate:
    def test_valid_document_passes(self):
        assert validate_otlp(to_otlp_json(_events())) == []

    def test_empty_document_fails(self):
        assert validate_otlp({}) == ["document has no resourceSpans"]
        problems = validate_otlp({"resourceSpans": []})
        assert any("no spans" in p for p in problems)

    def test_bad_hex_ids_are_reported(self):
        otlp = to_otlp_json(_events())
        spans = _spans(otlp)
        spans[0]["spanId"] = "xyz"
        spans[1]["traceId"] = "00"
        problems = validate_otlp(otlp)
        assert any("bad spanId" in p for p in problems)
        assert any("bad traceId" in p for p in problems)

    def test_zero_id_is_invalid(self):
        otlp = to_otlp_json(_events())
        _spans(otlp)[0]["spanId"] = "0" * 16
        assert any("all-zero" in p for p in validate_otlp(otlp))

    def test_duplicate_span_ids_are_reported(self):
        otlp = to_otlp_json(_events())
        spans = _spans(otlp)
        spans[1]["spanId"] = spans[0]["spanId"]
        assert any("duplicate spanId" in p for p in validate_otlp(otlp))

    def test_orphan_parent_is_reported(self):
        otlp = to_otlp_json(_events())
        _spans(otlp)[1]["parentSpanId"] = "f" * 16
        assert any("does not match any span" in p
                   for p in validate_otlp(otlp))

    def test_time_travel_is_reported(self):
        otlp = to_otlp_json(_events())
        span = _spans(otlp)[0]
        span["endTimeUnixNano"] = str(int(span["startTimeUnixNano"]) - 1)
        assert any("endTimeUnixNano < start" in p
                   for p in validate_otlp(otlp))

    def test_mixed_trace_ids_are_reported(self):
        otlp = to_otlp_json(_events())
        _spans(otlp)[0]["traceId"] = "ab" * 16
        assert any("distinct traceIds" in p for p in validate_otlp(otlp))

    def test_missing_status_is_reported(self):
        otlp = to_otlp_json(_events())
        del _spans(otlp)[0]["status"]
        assert any("status.code" in p for p in validate_otlp(otlp))
