"""Superstep frames: facts only the current superstep reads stay out of the
stored layers, and the paths around them (delta shipping, the inbox)
keep their results."""

import pytest

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.core import queries as Q
from repro.engine.config import EngineConfig
from repro.engine.engine import PregelEngine, SendLog
from repro.engine.vertex import VertexProgram
from repro.graph.digraph import from_edge_list
from repro.graph.generators import web_graph, with_random_weights
from repro.pql.analysis import compile_query
from repro.pql.parser import parse
from repro.pql.udf import FunctionRegistry
from repro.provenance.store import Layer
from repro.runtime.db import OnlineDatabase
from repro.runtime.online import OnlineQueryProgram, run_online


@pytest.fixture(scope="module")
def wgraph():
    return with_random_weights(
        web_graph(120, avg_degree=5, target_diameter=8, seed=5), seed=5
    )


def run_wrapper(graph, analytic, src, params=None, udfs=None, **switches):
    """One online run; returns the wrapper (its databases and counters)."""
    functions = FunctionRegistry(udfs)
    program = parse(src)
    if params:
        program = program.bind(**params)
    compiled = compile_query(program, functions=functions)
    engine = PregelEngine(graph, config=EngineConfig(use_combiner=False))
    wrapper = OnlineQueryProgram(
        analytic.make_program(), compiled, functions, engine,
        value_projector=analytic.provenance_value, **switches,
    )
    wrapper.run_setup()
    engine.run(wrapper)
    return wrapper


def derived(wrapper):
    store = wrapper.db.derived
    return {rel: sorted(store.rows(rel), key=repr)
            for rel in sorted(store.relations())}


def held(wrapper):
    """Transient rows the wrapper's local layers hold."""
    return sum(wrapper.db.local.counts().values())


class TestFramedRelations:
    SRC = "got(X, Y, M, I) :- receive_message(X, Y, M, I), superstep(X, I)."

    def test_window_zero_relations_never_reach_the_local_store(self, wgraph):
        framed = run_wrapper(wgraph, SSSP(source=0), self.SRC)
        assert framed.db.frame_relations == {"receive_message", "superstep"}
        assert framed.db.local.relations() == []
        assert held(framed) == 0
        assert framed.pruned_rows > 0 and framed._windows == {}
        stored = run_wrapper(wgraph, SSSP(source=0), self.SRC,
                             prune_history=False)
        assert stored.db.frame_relations == set()
        assert sorted(stored.db.local.relations()) == [
            "receive_message", "superstep"]
        # every row the frames dropped is a row the stored run still holds
        assert held(stored) == framed.pruned_rows
        assert stored.pruned_rows == 0
        assert derived(framed) == derived(stored) and derived(framed)["got"]

    def test_shipped_relations_stay_stored(self, wgraph):
        """A window-0 relation that neighbors read is shipped by
        watermark over each vertex's rows, so it cannot be framed."""
        src = ("heard(X, Y, I) :- receive_message(X, Y, M, I), "
               "superstep(Y, J), J = I - 1.")
        wrapper = run_wrapper(wgraph, SSSP(source=0), src)
        assert wrapper.db.frame_relations == {"receive_message"}
        assert wrapper.db.local.relations() == ["superstep"]
        assert wrapper.shipped_tuples > 0 and derived(wrapper)["heard"]

    def test_duplicate_messages_yield_one_receive_row(self):
        class Twice(VertexProgram):
            name = "twice"

            def initial_value(self, vertex_id, graph):
                return 0

            def compute(self, ctx, messages):
                if ctx.superstep == 0:
                    for target, _ in ctx.out_edges():
                        ctx.send(target, 1.0)
                        ctx.send(target, 1.0)
                ctx.set_value(len(messages))
                ctx.vote_to_halt()

        graph = from_edge_list([(0, 1), (2, 1)])
        result = run_online(
            graph, Twice(),
            "got(X, Y, M, I) :- receive_message(X, Y, M, I)."
            "n(X, I, count(Y)) :- receive_message(X, Y, M, I).",
        )
        assert result.values[1] == 4  # the analytic sees every copy
        assert result.query.rows("got") == [(1, 0, 1.0, 1), (1, 2, 1.0, 1)]
        assert result.query.rows("n") == [(1, 1, 2)]
        # the frame of vertex 1 at superstep 1 held two rows, not four
        assert result.query.stats["pruned_rows"] == 2
        assert result.query.stats["transient_rows"] == 0

    def test_send_rows_freeze_each_payload_as_sent(self):
        """A broadcast's payload is frozen once for all its out-edges, and
        interleaved sends of other objects — equal ones of another type
        too — each keep their own frozen payload."""
        shared = [1, 2]

        class Sender(VertexProgram):
            name = "sender"

            def initial_value(self, vertex_id, graph):
                return 0

            def compute(self, ctx, messages):
                if ctx.superstep == 0 and ctx.vertex_id == 0:
                    ctx.send_to_all(shared)
                    ctx.send(1, 1)
                    ctx.send(2, 1.0)
                    ctx.send(1, shared)
                ctx.vote_to_halt()

        result = run_online(
            from_edge_list([(0, 1), (0, 2)]), Sender(),
            "got(X, Y, M, I) :- send(X, Y, M), superstep(X, I)."
            "sent(X, Y, M, I) :- send_message(X, Y, M, I).",
        )
        expected = [(0, 1, (1, 2), 0), (0, 2, (1, 2), 0), (0, 1, 1, 0),
                    (0, 2, 1.0, 0)]
        for relation in ("got", "sent"):
            assert sorted(map(repr, result.query.rows(relation))) == sorted(
                map(repr, expected))

    def test_stream_queries_answer_as_before(self, wgraph):
        """vertex_value / send / receive (frame-only since they lost their
        own store) derive what the auto-captured relations derive."""
        analytic = SSSP(source=0)
        streamed = run_online(wgraph, analytic, Q.CAPTURE_FULL_QUERY)
        recorded = run_online(
            wgraph, analytic,
            "value(X, D, I) :- value(X, D, I)."
            "send_message(X, Y, M, I) :- send_message(X, Y, M, I)."
            "receive_message(X, Y, M, I) :- receive_message(X, Y, M, I).",
        )
        for rel in ("value", "send_message", "receive_message"):
            assert streamed.query.rows(rel) == recorded.query.rows(rel), rel
            assert streamed.query.rows(rel)
        assert streamed.query.stats["transient_rows"] == 0


class TestWindowedRelations:
    SRC = "prev(X, D, I) :- superstep(X, I), value(X, D, J), J = I - 1."

    def test_window_one_still_prunes(self, wgraph):
        analytic = PageRank(num_supersteps=6)
        pruned = run_wrapper(wgraph, analytic, self.SRC)
        assert pruned._windows == {"value": 1}
        assert pruned.db.frame_relations == {"superstep"}
        assert pruned.db.local.relations() == ["value"]
        assert pruned.pruned_rows > 0
        # two supersteps of `value` survive, whole layers
        assert len(pruned.db.local.column_batches("value")) == 2
        assert held(pruned) <= 2 * wgraph.num_vertices
        kept = run_wrapper(wgraph, analytic, self.SRC, prune_history=False)
        assert held(kept) == held(pruned) + pruned.pruned_rows
        assert derived(pruned) == derived(kept) and derived(pruned)["prev"]

    def test_pruned_partition_time_bound_scan_is_its_bucket(self):
        """A window-pruned relation keeps serving time-bound scans from
        its layers: the scan reads exactly the layer of the bound
        superstep, and a pruned superstep reads nothing."""
        db = OnlineDatabase(None, head_predicates=set(),
                            frame_relations=set())
        for i in range(64):
            frame = Layer(3)
            frame.push("v", ("v", i % 4, i))
            db.keep("r", i, frame)
        assert db.local.drop_before("r", 32) == 32
        db.store.begin(35, {}, None)
        (bucket,) = db.store.column_batches("r", [35])
        assert list(zip(*bucket.columns)) == [("v", 3, 35)]
        assert db.store.column_batches("r", [3]) == []
        assert sum(layer.count for layer in db.store.column_batches("r")) == 32


class TestShipping:
    def test_each_target_is_shipped_its_own_delta(self):
        """A message moves its target's watermark: the first message to a
        target carries every row the sender holds, the next only what is
        new to that target, and a target sees nothing past its watermark."""
        db = OnlineDatabase(None, head_predicates={"r"},
                            frame_relations=set(), shipped=["r"])

        def seen(receiver):
            (through,) = db.shipped_through([receiver], [0])
            return [row for layer in db.shipped_layers("r", None, through)
                    for row in layer.rows_of(0)]

        db.add_rows("r", [(0, i) for i in range(3)], 0)
        targets = [1, 2, 3]
        log = SendLog.of([(0, targets, ["m"] * len(targets))])
        assert db.ship(log, 0) == 9
        assert seen(2) == [(0, 0), (0, 1), (0, 2)]
        db.add_rows("r", [(0, 3)], 1)
        assert db.ship(SendLog.of([(0, [1], ["m"])]), 1) == 1
        assert seen(2) == [(0, 0), (0, 1), (0, 2)]
        assert seen(1) == [(0, 0), (0, 1), (0, 2), (0, 3)]
