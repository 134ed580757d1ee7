"""Disabled-tracing fast path and engine tracing integration.

The instrumentation contract: with the NULL_TRACER installed (the
default), an instrumented run emits nothing and produces results
identical to a traced run — the only observable difference tracing makes
is the trace itself.
"""

import pytest

from repro.analytics.sssp import SSSP
from repro.engine.config import EngineConfig
from repro.engine.engine import run_program
from repro.engine.vertex import FunctionProgram
from repro.graph.generators import chain_graph, with_random_weights, web_graph
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.sinks import InMemorySink
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    PHASE_COMPUTE,
    PHASE_RUN,
    PHASE_SUPERSTEP,
    Tracer,
    get_tracer,
    tracing,
)


@pytest.fixture
def fresh_registry():
    registry = MetricsRegistry()
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


def _sssp_run():
    graph = with_random_weights(
        web_graph(60, avg_degree=4, target_diameter=6, seed=11), seed=11
    )
    return run_program(graph, SSSP(source=0).make_program())


class TestNoopFastPath:
    def test_disabled_run_matches_traced_run(self, fresh_registry):
        assert get_tracer() is NULL_TRACER  # instrumented but disabled
        untraced = _sssp_run()

        sink = InMemorySink()
        with tracing(Tracer(sink)):
            traced = _sssp_run()

        assert untraced.values == traced.values
        assert untraced.halt_reason == traced.halt_reason
        assert (untraced.metrics.summary()["messages"]
                == traced.metrics.summary()["messages"])
        assert (untraced.metrics.total_active_vertices
                == traced.metrics.total_active_vertices)

    def test_disabled_run_emits_nothing(self, fresh_registry):
        sink = InMemorySink()
        # a sink exists but the installed tracer is the null one
        _sssp_run()
        assert sink.events == []
        assert get_tracer().span("anything") is NULL_SPAN

    def test_disabled_run_still_publishes_run_metrics(self, fresh_registry):
        _sssp_run()
        snap = fresh_registry.snapshot()
        assert snap["repro_engine_runs_total"] == 1
        assert snap["repro_engine_messages_total"] > 0
        assert snap["repro_engine_superstep_seconds"]["count"] > 0


class TestEngineTracing:
    def test_span_hierarchy(self, fresh_registry):
        sink = InMemorySink()
        with tracing(Tracer(sink)):
            result = _sssp_run()

        spans = [e for e in sink.events if e["type"] == "span"]
        runs = [s for s in spans if s["cat"] == PHASE_RUN]
        steps = [s for s in spans if s["cat"] == PHASE_SUPERSTEP]
        computes = [s for s in spans if s["cat"] == PHASE_COMPUTE]

        assert len(runs) == 1
        assert len(steps) == result.num_supersteps == len(computes)
        run = runs[0]
        assert run["attrs"]["halt_reason"] == result.halt_reason
        assert all(s["parent"] == run["id"] for s in steps)
        step_ids = {s["id"] for s in steps}
        assert all(c["parent"] in step_ids for c in computes)
        # compute spans carry the per-superstep counters
        assert sum(c["attrs"]["messages_sent"] for c in computes) == (
            result.metrics.total_messages
        )

    def test_phase_durations_nest_within_parents(self, fresh_registry):
        sink = InMemorySink()
        with tracing(Tracer(sink)):
            pass_result = _sssp_run()
        assert pass_result.num_supersteps > 1

        spans = [e for e in sink.events if e["type"] == "span"]
        by_id = {s["id"]: s for s in spans}
        for span in spans:
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert span["ts"] >= parent["ts"]
                # +2us: ts and dur are independently floored to microseconds
                assert span["ts"] + span["dur"] <= (
                    parent["ts"] + parent["dur"] + 2
                )

    def test_superstep_spans_cover_run_wall(self, fresh_registry):
        sink = InMemorySink()
        with tracing(Tracer(sink)):
            _sssp_run()
        spans = [e for e in sink.events if e["type"] == "span"]
        run = next(s for s in spans if s["cat"] == PHASE_RUN)
        step_total = sum(
            s["dur"] for s in spans if s["cat"] == PHASE_SUPERSTEP
        )
        assert step_total <= run["dur"]
        # the loop body outside the superstep spans is a few statements;
        # the spans must account for the bulk of the run wall time
        assert step_total >= 0.5 * run["dur"]

    def test_traced_run_mirrors_into_registry(self, fresh_registry):
        with tracing(Tracer(InMemorySink(), registry=fresh_registry)):
            result = _sssp_run()
        snap = fresh_registry.snapshot()
        assert snap['repro_span_total{phase="run"}'] == 1
        assert (snap['repro_span_total{phase="superstep"}']
                == result.num_supersteps)

    def test_halt_emits_no_leaked_spans(self, fresh_registry):
        # max_supersteps halt exits the loop via break: every span opened
        # must still have been closed (close() would end leftovers and
        # change the count)
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracing(tracer):
            run_program(
                chain_graph(6),
                FunctionProgram(lambda ctx, m: ctx.send_to_all(1)),
                config=EngineConfig(max_supersteps=3),
            )
        before = len(sink.events)
        tracer.close()
        assert len(sink.events) == before
