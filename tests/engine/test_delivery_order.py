"""Delivery order is send order, whatever runs around the analytic.

A vertex receives its messages with the senders in canonical compute
order and each sender's sends in the order it made them. Nothing sorts an
inbox, so the order must not move with the simulated worker count or an
online query wrapped around the analytic — which sends the analytic's
payloads on bare.
"""

import pytest

from repro.core import queries as Q
from repro.engine.config import EngineConfig
from repro.engine.engine import PregelEngine
from repro.engine.vertex import VertexProgram
from repro.graph.digraph import from_edge_list
from repro.graph.generators import web_graph
from repro.runtime.online import run_online

ROUNDS = 4


class Recorder(VertexProgram):
    """Logs, as its value, the message list every compute saw: a vertex's
    value is ``((superstep, messages), ...)``. Each compute broadcasts one
    payload and sends a second, distinct one to its first out-neighbor,
    so an inbox mixes senders and repeats one."""

    name = "recorder"

    def initial_value(self, vertex_id, graph):
        return ()

    def compute(self, ctx, messages):
        s = ctx.superstep
        ctx.set_value(ctx.value + ((s, tuple(messages)),))
        if s < ROUNDS:
            ctx.send_to_all((ctx.vertex_id, s))
            edges = ctx.out_edges()
            if edges:
                ctx.send(edges[0][0], (ctx.vertex_id, s, "again"))
        else:
            ctx.vote_to_halt()


@pytest.fixture(scope="module")
def graph():
    return web_graph(80, avg_degree=4, target_diameter=6, seed=23)


@pytest.fixture(scope="module")
def bare(graph):
    return PregelEngine(graph).run(Recorder())


def online_run(graph, query, **kwargs):
    return run_online(graph, Recorder(), query, **kwargs)


QUERIES = {
    "query1": dict(query=Q.APT_QUERY, params={"eps": 0.5},
                   udfs={"udf_diff": lambda d1, d2, eps: len(d1) == len(d2)}),
    "query4": dict(query=Q.PAGERANK_CHECK_QUERY),
    "query2-capture": dict(query=Q.CAPTURE_FULL_QUERY, capture=True),
}


class TestDeliveryOrder:
    def test_every_compute_saw_messages(self, bare):
        seen = [messages for log in bare.values.values()
                for _s, messages in log]
        assert any(len(messages) > 1 for messages in seen)

    def test_bare_run_delivers_in_send_order(self, graph, bare):
        """Every vertex ran at every superstep before ``ROUNDS``, so an
        inbox is: each sender in canonical order, its broadcast along its
        out-edges, then its second send."""
        for v, log in bare.values.items():
            for s, messages in log[1:]:
                expected = []
                for u in graph.vertices():
                    edges = graph.out_edges(u)
                    expected += [(u, s - 1) for t, _ in edges if t == v]
                    if edges and edges[0][0] == v:
                        expected.append((u, s - 1, "again"))
                assert messages == tuple(expected), (v, s)

    @pytest.mark.parametrize("workers", [1, 3, 7])
    def test_serial_worker_counts(self, graph, bare, workers):
        run = PregelEngine(graph, config=EngineConfig(
            num_workers=workers)).run(Recorder())
        assert (run.metrics.total_cross_worker_messages > 0) == (workers > 1)
        assert run.values == bare.values

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_online_queries(self, graph, bare, name):
        run = online_run(graph, **QUERIES[name])
        assert run.analytic.values == bare.values

    @pytest.mark.parametrize("workers", [1, 3, 7])
    def test_online_worker_counts(self, graph, bare, workers):
        run = online_run(graph, config=EngineConfig(num_workers=workers),
                         **QUERIES["query1"])
        assert run.analytic.values == bare.values

    def test_send_log_keeps_payloads_bare(self):
        """The engine's send log holds the analytic's own payloads, as two
        columns in send order, and delivers those very objects."""
        near, far = ["near"], ["far"]
        logs, got = [], {}

        class Sender(VertexProgram):
            def compute(self, ctx, messages):
                got[ctx.vertex_id, ctx.superstep] = list(messages)
                if ctx.superstep == 0 and ctx.vertex_id == 0:
                    ctx.send(1, near)
                    ctx.send(2, far)
                ctx.vote_to_halt()

            def post_superstep(self, superstep):
                log = engine.send_log
                logs.append((list(log.targets), list(log.payloads)))

        engine = PregelEngine(from_edge_list([(0, 1), (0, 2)]))
        engine.run(Sender())
        (targets, payloads), _empty = logs
        assert targets == [1, 2]
        assert payloads == [["near"], ["far"]]
        assert payloads[0] is near and payloads[1] is far
        assert got[1, 1][0] is near and got[2, 1][0] is far
