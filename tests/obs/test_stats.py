"""Unit tests for trace summarization and the ``repro stats`` command."""

import pytest

from repro.cli import main
from repro.obs.sinks import JsonlSink, meta_event
from repro.obs.stats import render_summary, summarize
from repro.obs.trace import (
    PHASE_COMPUTE,
    PHASE_RUN,
    PHASE_SUPERSTEP,
    Tracer,
)


def _span(cat, dur_us, span_id, name=None):
    return {"type": "span", "name": name or cat, "cat": cat, "id": span_id,
            "parent": None, "ts": 0, "dur": dur_us, "attrs": {}}


class TestSummarize:
    def test_phase_aggregates(self):
        events = [
            meta_event(),
            _span(PHASE_RUN, 1_000_000, 1),
            _span(PHASE_SUPERSTEP, 600_000, 2),
            _span(PHASE_SUPERSTEP, 300_000, 3),
            _span(PHASE_COMPUTE, 450_000, 4),
            {"type": "instant", "name": "halt", "cat": PHASE_RUN,
             "ts": 0, "attrs": {}},
        ]
        summary = summarize(events)
        assert summary["runs"] == 1
        assert summary["run_seconds"] == 1.0
        assert summary["supersteps"] == 2
        assert summary["superstep_seconds"] == pytest.approx(0.9)
        assert summary["coverage"] == pytest.approx(0.9)
        assert summary["instants"] == 1

        steps = summary["phases"][PHASE_SUPERSTEP]
        assert steps["count"] == 2
        assert steps["total_seconds"] == pytest.approx(0.9)
        assert steps["mean_seconds"] == pytest.approx(0.45)
        assert steps["min_seconds"] == 0.3
        assert steps["max_seconds"] == 0.6
        assert steps["share_of_run"] == pytest.approx(0.9)

    def test_empty_trace(self):
        summary = summarize([meta_event()])
        assert summary["runs"] == 0
        assert summary["coverage"] is None
        assert summary["phases"] == {}

    def test_render(self):
        events = [_span(PHASE_RUN, 1_000_000, 1),
                  _span(PHASE_SUPERSTEP, 900_000, 2)]
        text = render_summary(summarize(events))
        assert "1 run(s), 1 superstep span(s)" in text
        assert "90.0% of run wall time" in text
        assert "superstep" in text

    def test_render_without_runs(self):
        assert "no run spans" in render_summary(summarize([]))


class TestStatsCommand:
    def _write_trace(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(JsonlSink(path))
        with tracer.span("run", PHASE_RUN):
            with tracer.span("superstep", PHASE_SUPERSTEP):
                pass
        tracer.close()
        return path

    def test_text_summary(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "1 run(s)" in out and "superstep" in out

    def test_validate_ok(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert main(["stats", path, "--validate"]) == 0
        assert "trace OK" in capsys.readouterr().out

    def test_validate_broken_trace(self, tmp_path, capsys):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"type": "span", "name": "x"}\n')
        assert main(["stats", path, "--validate"]) == 1
        assert "invalid:" in capsys.readouterr().err
