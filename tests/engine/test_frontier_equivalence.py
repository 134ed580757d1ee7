"""Frontier-scheduled runs must execute exactly what a full scan would.

The engine visits only awake-or-messaged vertices in canonical vertex
order. The oracle lives here, not in the engine: :class:`ScheduleRecorder`
wraps a program, logs every ``compute`` as ``(superstep, vertex)`` plus
each vertex's halt vote and every message target, and then replays a
literal whole-graph scan over ``graph.vertices()`` — run a vertex iff it
is awake or was messaged — to check that every superstep ran exactly those
vertices, in that order. Property-style: seeded-random graphs, all the
paper's analytics, and both capture queries.
"""

import random
from collections import defaultdict

import pytest

from repro.analytics.kcore import KCore
from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.analytics.wcc import WCC
from repro.core import queries as Q
from repro.engine.config import EngineConfig
from repro.engine.engine import PregelEngine, run_program
from repro.engine.vertex import FunctionProgram, VertexProgram
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    random_graph,
    web_graph,
    with_random_weights,
)
from repro.runtime.online import run_online


def random_weighted_graph(seed: int) -> DiGraph:
    """Seeded random graph with isolated vertices and random weights."""
    rng = random.Random(seed)
    n = rng.randint(8, 60)
    g = random_graph(n, num_edges=rng.randint(n, 4 * n), seed=seed)
    # a few extra isolated vertices exercise the never-messaged path
    for v in range(n, n + rng.randint(0, 4)):
        g.add_vertex(v)
    return with_random_weights(g, seed=seed)


class ScheduleRecorder(VertexProgram):
    """Wrapper program that logs every compute as ``(superstep, vertex)``.

    It also notes each vertex's halt vote and every message target (read
    from the engine's public send log after each superstep's last
    compute), which is all a whole-graph scan needs to decide who runs
    next.
    """

    def __init__(self, inner: VertexProgram, engine: PregelEngine) -> None:
        self.inner = inner
        self.graph = engine.graph
        self.name = getattr(inner, "name", type(inner).__name__)
        self.computes = []  # (superstep, vertex), in call order
        self.halted = {}  # (superstep, vertex) -> voted to halt
        self.sent = defaultdict(set)  # superstep -> message targets
        self._engine = engine

    def initial_value(self, vertex_id, graph):
        return self.inner.initial_value(vertex_id, graph)

    def combiner(self):
        return self.inner.combiner()

    def aggregators(self):
        return self.inner.aggregators()

    def master_halt(self, aggregators, superstep):
        return self.inner.master_halt(aggregators, superstep)

    def post_superstep(self, superstep):
        self.sent[superstep] = set(self._engine.send_log.targets)
        self.inner.post_superstep(superstep)

    def compute(self, ctx, messages):
        self.computes.append((ctx.superstep, ctx.vertex_id))
        self.inner.compute(ctx, messages)
        self.halted[ctx.superstep, ctx.vertex_id] = ctx._halted

    def assert_scan_schedule(self, result) -> None:
        """Every superstep ran exactly the vertices a whole-graph scan
        runs (awake or messaged), in ``graph.vertices()`` order."""
        awake = set(self.graph.vertices())
        expected = []
        for superstep, step in enumerate(result.metrics.supersteps):
            messaged = self.sent[superstep - 1]
            scan = [v for v in self.graph.vertices()
                    if v in awake or v in messaged]
            assert step.active_vertices == len(scan), superstep
            assert step.frontier_size == len(scan), superstep
            expected.extend((superstep, v) for v in scan)
            for v in scan:
                if self.halted[superstep, v]:
                    awake.discard(v)
                else:
                    awake.add(v)
        assert self.computes == expected


def assert_scan_equivalent(graph: DiGraph, make_program, num_workers: int = 4):
    """The recorded run schedules like a scan and is otherwise untouched:
    values, counters and halting match an unrecorded run."""
    config = EngineConfig(num_workers=num_workers)
    engine = PregelEngine(graph, config=config)
    recorder = ScheduleRecorder(make_program(), engine)
    recorded = engine.run(recorder)
    recorder.assert_scan_schedule(recorded)
    plain = PregelEngine(graph, config=config).run(make_program())
    assert recorded.values == plain.values
    assert recorded.aggregators == plain.aggregators
    assert recorded.halt_reason == plain.halt_reason
    assert recorded.edge_values == plain.edge_values
    assert recorded.metrics.summary() == {
        **plain.metrics.summary(),
        "wall_seconds": recorded.metrics.wall_seconds,
    }


ANALYTICS = {
    "pagerank": lambda: PageRank(num_supersteps=12).make_program(),
    "sssp": lambda: SSSP(source=0).make_program(),
    "wcc": lambda: WCC().make_program(),
    "kcore": lambda: KCore().make_program(),
}


@pytest.mark.parametrize("analytic", sorted(ANALYTICS))
@pytest.mark.parametrize("seed", [1, 7, 42])
class TestAnalyticEquivalence:
    def test_random_graphs(self, analytic, seed):
        assert_scan_equivalent(
            random_weighted_graph(seed), ANALYTICS[analytic]
        )

    def test_web_graphs(self, analytic, seed):
        g = with_random_weights(
            web_graph(120, avg_degree=5, target_diameter=8, seed=seed),
            seed=seed,
        )
        assert_scan_equivalent(g, ANALYTICS[analytic])


class TestSchedulerSemantics:
    def test_frontier_shrinks_on_sssp_tail(self):
        """SSSP's long tail must actually skip vertices (the perf claim)."""
        g = with_random_weights(
            web_graph(300, avg_degree=4, target_diameter=12, seed=3), seed=3
        )
        result = run_program(g, SSSP(source=0).make_program())
        assert result.metrics.total_skipped_vertices > 0
        assert any(
            s.frontier_size < g.num_vertices
            for s in result.metrics.supersteps
        )

    def test_wakeup_across_many_idle_supersteps(self):
        """A halted vertex skipped for many supersteps wakes correctly."""
        computes = []

        def fn(ctx, msgs):
            computes.append((ctx.vertex_id, ctx.superstep))
            if ctx.vertex_id == 0 and ctx.superstep < 5:
                ctx.send(0, "again")
                if ctx.superstep == 4:
                    ctx.send(1, "wake")
            ctx.vote_to_halt()

        g = DiGraph()
        g.add_edge(0, 1)
        run_program(g, FunctionProgram(fn))
        assert (1, 5) in computes
        assert not any(v == 1 and 0 < s < 5 for v, s in computes)

    def test_mutating_messages_does_not_corrupt_siblings(self):
        """The shared no-messages sentinel must be immune to mutation."""

        class Mutator(VertexProgram):
            def compute(self, ctx, messages):
                if isinstance(messages, list):
                    messages.append("junk")  # hostile program
                ctx.set_value(list(messages))
                ctx.vote_to_halt()

        g = DiGraph()
        for v in range(4):
            g.add_vertex(v)
        result = run_program(g, Mutator())
        # a mutable shared sentinel would leak "junk" into later vertices
        assert all(value == [] for value in result.values.values())

    def test_empty_graph(self):
        result = run_program(DiGraph(), FunctionProgram(lambda c, m: None))
        assert result.halt_reason == "no_active_vertices"
        assert result.values == {}


@pytest.fixture
def recorders(monkeypatch):
    """Route ``run_online``'s engine through a :class:`ScheduleRecorder`
    around the whole provenance wrapper and check its schedule."""
    made = []

    def recorded_engine(graph, config=None):
        engine = PregelEngine(graph, config=config)
        run = engine.run

        def recorded_run(program):
            recorder = ScheduleRecorder(program, engine)
            made.append(recorder)
            result = run(recorder)
            recorder.assert_scan_schedule(result)
            return result

        engine.run = recorded_run
        return engine

    monkeypatch.setattr("repro.runtime.online.PregelEngine", recorded_engine)
    return made


def stored_rows(store, relation):
    return {
        row
        for vertex in store.vertices(relation)
        for row in store.partition(relation, vertex)
    }


class TestCaptureEquivalence:
    """Provenance capture runs are scheduled like a scan, and the captured
    store records exactly the computes the recorder saw."""

    @pytest.mark.parametrize(
        "make_analytic",
        [
            lambda: PageRank(num_supersteps=8),
            lambda: SSSP(source=0),
            lambda: WCC(),
        ],
        ids=["pagerank", "sssp", "wcc"],
    )
    def test_full_capture_stores_match(self, make_analytic, recorders):
        g = with_random_weights(
            web_graph(80, avg_degree=4, target_diameter=6, seed=11), seed=11
        )
        run = run_online(
            g, make_analytic(), Q.CAPTURE_FULL_QUERY, capture=True,
        )
        (recorder,) = recorders
        computes = {(v, s) for s, v in recorder.computes}
        assert stored_rows(run.store, "superstep") == computes
        assert run.store.max_superstep == run.analytic.num_supersteps - 1

    def test_custom_capture_stores_match(self, recorders):
        g = with_random_weights(
            web_graph(80, avg_degree=4, target_diameter=6, seed=13), seed=13
        )
        run = run_online(
            g,
            SSSP(source=0),
            Q.CAPTURE_FWD_LINEAGE_QUERY,
            params={"source": 0},
            capture=True,
        )
        (recorder,) = recorders
        computes = {(v, s) for s, v in recorder.computes}
        lineage = {(x, i) for x, _value, i in stored_rows(run.store,
                                                          "fwd_lineage")}
        assert lineage and lineage <= computes
