"""Unit tests for trace sinks and the schema validator."""

import json

import pytest

from repro.errors import ReproError
from repro.obs.sinks import (
    SCHEMA_VERSION,
    InMemorySink,
    JsonlSink,
    meta_event,
    read_trace,
    validate_events,
)
from repro.obs.trace import PHASE_RUN, PHASE_SUPERSTEP, Tracer


def _sample_events():
    sink = InMemorySink()
    tracer = Tracer(sink)
    with tracer.span("run", PHASE_RUN, analytic="sssp"):
        with tracer.span("superstep", PHASE_SUPERSTEP, superstep=0):
            pass
        tracer.event("halt", PHASE_RUN, reason="converged")
    return [meta_event()] + sink.events


class TestJsonlRoundTrip:
    def test_write_and_read_back(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        tracer = Tracer(sink)
        with tracer.span("run", PHASE_RUN):
            pass
        tracer.close()

        events = read_trace(path)
        assert events[0]["type"] == "meta"
        assert events[0]["schema"] == SCHEMA_VERSION
        assert events[1]["type"] == "span"
        assert validate_events(events) == []

    def test_file_like_sink_is_not_closed(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            sink = JsonlSink(fh)
            sink.emit({"type": "instant", "name": "x", "cat": "x",
                       "ts": 1, "attrs": {}})
            sink.close()
            assert not fh.closed
        assert len(read_trace(str(path))) == 2  # meta + instant

    def test_non_json_values_fall_back_to_repr(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        sink.emit({"type": "instant", "name": "x", "cat": "x", "ts": 1,
                   "attrs": {"vertex": object()}})
        sink.close()
        events = read_trace(path)
        assert "object" in events[1]["attrs"]["vertex"]

    def test_read_trace_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"type": "meta"\nnot json\n')
        with pytest.raises(ReproError):
            read_trace(str(path))


class TestValidate:
    def test_valid_stream(self):
        assert validate_events(_sample_events()) == []

    def test_missing_meta(self):
        events = [e for e in _sample_events() if e["type"] != "meta"]
        assert any("no meta" in p for p in validate_events(events))

    def test_duplicate_meta_and_span_id(self):
        events = _sample_events()
        events.append(meta_event())
        span = next(e for e in events if e["type"] == "span")
        events.append(dict(span))
        problems = validate_events(events)
        assert any("duplicate meta" in p for p in problems)
        assert any("duplicate span id" in p for p in problems)

    def test_missing_key_and_bad_type(self):
        events = [meta_event(),
                  {"type": "span", "name": 3, "cat": "run", "id": 1,
                   "ts": 0, "dur": 1}]
        problems = validate_events(events)
        assert any("missing key 'attrs'" in p for p in problems)
        assert any("'name' has type" in p for p in problems)

    def test_unknown_type_and_schema_mismatch(self):
        events = [dict(meta_event(), schema=99), {"type": "mystery"}]
        problems = validate_events(events)
        assert any("schema" in p for p in problems)
        assert any("unknown type" in p for p in problems)

    def test_negative_duration(self):
        events = _sample_events()
        next(e for e in events if e["type"] == "span")["dur"] = -5
        assert any("negative duration" in p for p in validate_events(events))
