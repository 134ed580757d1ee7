"""``VertexProgram.post_superstep``: the program-level hook the engine
runs once per superstep, after the last ``compute`` and before the
barrier delivers the superstep's messages, at any simulated worker
count."""

import pytest

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.engine.config import EngineConfig
from repro.engine.engine import PregelEngine
from repro.engine.vertex import VertexProgram
from repro.graph.generators import web_graph, with_random_weights

ROUNDS = 4  # supersteps in which every vertex messages its out-neighbors


class Stamper(VertexProgram):
    """Sends a mutable box along every out-edge for ``ROUNDS`` supersteps
    and stamps, in the hook, every box it sent this superstep; receivers
    record what the boxes they got carry."""

    name = "stamper"

    def __init__(self):
        self.log = []  # ("compute" | "post" | "halt", superstep), in order
        self.sent = []  # this superstep's boxes, until the hook stamps them
        self.seen = []  # (superstep, stamp) of every box received

    def initial_value(self, vertex_id, graph):
        return 0

    def compute(self, ctx, messages):
        self.log.append(("compute", ctx.superstep))
        self.seen.extend((ctx.superstep, box["stamp"]) for box in messages)
        ctx.set_value(ctx.value + len(messages))
        if ctx.superstep < ROUNDS:
            for target in ctx.out_neighbors():
                box = {"stamp": None}
                self.sent.append(box)
                ctx.send(target, box)
        else:
            ctx.vote_to_halt()

    def post_superstep(self, superstep):
        self.log.append(("post", superstep))
        for box in self.sent:
            box["stamp"] = superstep
        self.sent = []

    def master_halt(self, aggregators, superstep):
        self.log.append(("halt", superstep))
        return False


@pytest.fixture(scope="module")
def graph():
    return web_graph(40, avg_degree=3, target_diameter=4, seed=9)


def posts_follow_computes(log):
    """Per superstep: computes, then exactly one hook, then the master's
    halt check after the barrier."""
    posts = [s for kind, s in log if kind == "post"]
    assert posts == sorted(set(posts))
    for superstep in posts:
        events = [kind for kind, s in log if s == superstep]
        hook = events.index("post")
        assert set(events[:hook]) == {"compute"}
        assert set(events[hook + 1:]) <= {"halt"}
    return posts


def all_boxes_stamped(seen):
    assert seen
    assert all(stamp == superstep - 1 for superstep, stamp in seen)


def test_serial_engine_runs_the_hook_before_the_barrier(graph):
    program = Stamper()
    result = PregelEngine(graph).run(program)
    posts = posts_follow_computes(program.log)
    assert posts == list(range(result.num_supersteps))
    assert [s for kind, s in program.log if kind == "halt"] == posts
    all_boxes_stamped(program.seen)


@pytest.mark.parametrize("workers", [1, 3, 7])
def test_simulated_workers_run_the_hook_before_the_barrier(graph, workers):
    """The hook runs once per superstep whatever the worker count, and a
    box that crossed simulated workers arrives stamped like any other."""
    program = Stamper()
    config = EngineConfig(num_workers=workers)
    result = PregelEngine(graph, config=config).run(program)
    assert (result.metrics.total_cross_worker_messages > 0) == (workers > 1)
    assert posts_follow_computes(program.log) == list(
        range(result.num_supersteps))
    all_boxes_stamped(program.seen)
    serial = PregelEngine(graph, config=EngineConfig(num_workers=1)).run(
        Stamper())
    assert result.values == serial.values


class Hooked(VertexProgram):
    """An analytic's program with a (no-op) hook that counts its calls."""

    def __init__(self, inner):
        self.inner, self.name, self.calls = inner, inner.name, 0

    def initial_value(self, vertex_id, graph):
        return self.inner.initial_value(vertex_id, graph)

    def combiner(self):
        return self.inner.combiner()

    def compute(self, ctx, messages):
        self.inner.compute(ctx, messages)

    def post_superstep(self, superstep):
        self.calls += 1


COUNTS = ("supersteps", "vertex_executions", "messages", "messages_combined",
          "cross_worker_messages", "frontier_vertices", "skipped_vertices")


@pytest.mark.parametrize("make_analytic", [
    lambda: PageRank(num_supersteps=6), lambda: SSSP(source=0),
], ids=["pagerank", "sssp"])
@pytest.mark.parametrize("engine", ["serial", "7-workers"])
def test_bare_analytic_is_unchanged(engine, make_analytic):
    weighted = with_random_weights(
        web_graph(60, avg_degree=4, target_diameter=5, seed=4), seed=4)

    def run(program):
        if engine == "serial":
            return PregelEngine(weighted).run(program)
        return PregelEngine(weighted, config=EngineConfig(num_workers=7)).run(
            program)

    analytic = make_analytic()
    bare = run(analytic.make_program())
    hooked = Hooked(analytic.make_program())
    with_hook = run(hooked)
    assert with_hook.values == bare.values
    assert with_hook.num_supersteps == bare.num_supersteps
    assert with_hook.halt_reason == bare.halt_reason
    summary, bare_summary = with_hook.metrics.summary(), bare.metrics.summary()
    assert {k: summary[k] for k in COUNTS} == {k: bare_summary[k] for k in COUNTS}
    assert hooked.calls == bare.num_supersteps
