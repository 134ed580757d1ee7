"""End-to-end tracing acceptance: a traced capture+query session yields a
valid JSONL trace whose per-phase durations account for the run wall time,
and the live metrics registry mirrors the same spans."""

import pytest

from repro.analytics.sssp import SSSP
from repro.core.ariadne import Ariadne
from repro.graph.generators import web_graph, with_random_weights
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.sinks import (
    JsonlSink,
    read_trace,
    validate_events,
)
from repro.obs.stats import summarize
from repro.obs.trace import (
    PHASE_BARRIER,
    PHASE_CAPTURE,
    PHASE_COMPUTE,
    PHASE_QUERY,
    PHASE_RUN,
    PHASE_SPILL,
    PHASE_SUPERSTEP,
    Tracer,
    tracing,
)
from repro.provenance.spill import SpillManager, rebuild_store
from repro.runtime.offline import run_layered


@pytest.fixture
def traced_session(tmp_path):
    """Capture provenance online and query it offline, all traced."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    trace_path = str(tmp_path / "session.jsonl")
    graph = with_random_weights(
        web_graph(70, avg_degree=4, target_diameter=6, seed=23), seed=23
    )
    try:
        tracer = Tracer(JsonlSink(trace_path), registry=registry)
        with tracing(tracer):
            ariadne = Ariadne(graph, SSSP(source=0))
            captured = ariadne.capture()
            spill = SpillManager(
                captured.store, directory=str(tmp_path / "prov")
            )
            spill.seal_all()
            store = rebuild_store(SpillManager.open(str(tmp_path / "prov")))
            result = run_layered(
                store, "trace(X, I) :- value(X, D, I).", graph
            )
        tracer.close()
        yield read_trace(trace_path), captured, result, registry
    finally:
        set_registry(previous)


class TestTracedSession:
    def test_trace_validates(self, traced_session):
        events, _, _, _ = traced_session
        assert validate_events(events) == []

    def test_all_phases_present(self, traced_session):
        events, captured, result, _ = traced_session
        cats = {e["cat"] for e in events if e["type"] == "span"}
        assert {PHASE_RUN, PHASE_SUPERSTEP, PHASE_COMPUTE, PHASE_BARRIER,
                PHASE_CAPTURE, PHASE_QUERY, PHASE_SPILL} <= cats
        assert result.derivations > 0
        assert captured.store.num_rows > 0

    def test_phase_durations_sum_to_wall_time(self, traced_session):
        events, _, _, _ = traced_session
        spans = [e for e in events if e["type"] == "span"]
        run = next(s for s in spans if s["cat"] == PHASE_RUN)
        steps = [s for s in spans if s["cat"] == PHASE_SUPERSTEP]
        # superstep spans tile the run span: ordered, disjoint
        # subintervals of it, so they sum to at most the run wall. (How
        # much of the wall they cover is not asserted: between them sit
        # the master's barrier work and, on a 15 ms run, whatever stall
        # the machine adds — a >= 0.5 bound failed under load in PR 13.)
        steps.sort(key=lambda s: s["ts"])
        assert run["ts"] <= steps[0]["ts"]
        for before, after in zip(steps, steps[1:]):
            assert before["ts"] + before["dur"] <= after["ts"] + 1
        assert (steps[-1]["ts"] + steps[-1]["dur"]
                <= run["ts"] + run["dur"] + 1)  # us floor rounding
        step_total = sum(s["dur"] for s in steps)
        assert 0 < step_total <= run["dur"]
        # compute + barrier tile each superstep the same way
        by_id = {s["id"]: s for s in spans}
        for step in steps:
            inner = sum(
                s["dur"] for s in spans
                if s["cat"] in (PHASE_COMPUTE, PHASE_BARRIER)
                and by_id.get(s["parent"]) is step
            )
            assert inner <= step["dur"] + 2  # us floor rounding
        # the online query runs once per superstep inside compute (the
        # post_superstep hook), so its spans cannot exceed the compute
        # total; the capture flush runs at the master's halt check between
        # supersteps, and once more after the run
        compute_total = sum(
            s["dur"] for s in spans if s["cat"] == PHASE_COMPUTE
        )
        online = [
            s for s in spans if s["cat"] == PHASE_QUERY
            and "layer" not in s["attrs"] and "mode" not in s["attrs"]
        ]
        assert 0 < len(online) <= len(steps)  # one per superstep at most
        assert all(by_id[s["parent"]]["cat"] == PHASE_COMPUTE for s in online)
        assert sum(s["dur"] for s in online) <= compute_total + 2 * len(spans)
        capture = [s for s in spans if s["cat"] == PHASE_CAPTURE]
        assert capture
        assert all(by_id.get(s["parent"]) in (run, None) for s in capture)

    def test_summary_coverage(self, traced_session):
        events, _, _, _ = traced_session
        summary = summarize(events)
        assert summary["runs"] == 1
        # coverage is the spans' own accounting — superstep time over run
        # time — so it is checked against the spans, not against a
        # wall-clock share that one scheduler stall can halve
        spans = [e for e in events if e["type"] == "span"]
        run = next(s for s in spans if s["cat"] == PHASE_RUN)
        steps = [s for s in spans if s["cat"] == PHASE_SUPERSTEP]
        assert summary["supersteps"] == len(steps) > 0
        assert summary["run_seconds"] == pytest.approx(run["dur"] / 1e6)
        assert summary["coverage"] == pytest.approx(
            sum(s["dur"] for s in steps) / run["dur"])
        assert 0.0 < summary["coverage"] <= 1.0

    def test_live_registry_mirrors_the_session(self, traced_session):
        _, _, _, registry = traced_session
        # the registry the served /metrics route renders counted the same
        # spans while they happened
        assert 'repro_span_total{phase="run"} 1' in registry.to_prometheus()
        snap = registry.snapshot()
        assert snap['repro_span_total{phase="run"}'] == 1
        assert snap["repro_capture_derivations_total"] >= 0
        assert snap["repro_engine_runs_total"] == 1

    def test_prune_counters_in_stats(self, traced_session):
        _, captured, _, _ = traced_session
        stats = captured.query.stats
        assert stats["pruned_rows"] > 0 and stats["transient_rows"] == 0

    def test_offline_query_spans_carry_mode(self, traced_session):
        events, _, _, _ = traced_session
        offline = [
            e for e in events
            if e["type"] == "span" and e["attrs"].get("mode") == "layered"
        ]
        assert offline
        assert all(e["cat"] == PHASE_QUERY for e in offline)
