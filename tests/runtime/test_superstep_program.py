"""The superstep program: the online query runs once per superstep over
every vertex the superstep executed, reads another vertex's rows only as
far as that vertex shipped them, and runs every rule — aggregate heads
included — as one layer program."""

import pytest

from repro.analytics.pagerank import PageRank
from repro.core import queries as Q
from repro.engine.config import EngineConfig
from repro.engine.vertex import VertexProgram
from repro.graph.digraph import from_edge_list
from repro.graph.generators import web_graph
from repro.graph.partition import HashPartitioner
from repro.pql import eval as pql_eval
from repro.runtime.online import run_online

WORKERS = [1, 3, 7]  # simulated; locality must not move with the split

Y, X = 0, 1  # Y messages X once


class MessageOnce(VertexProgram):
    """Every vertex runs supersteps 0-2; Y messages X at superstep 0 only."""

    name = "message-once"

    def initial_value(self, vertex_id, graph):
        return 0

    def compute(self, ctx, messages):
        if ctx.vertex_id == Y and ctx.superstep == 0:
            ctx.send(X, 1.0)
        if ctx.superstep == 2:
            ctx.vote_to_halt()


@pytest.mark.parametrize("workers", WORKERS)
def test_remote_reads_stop_at_the_senders_last_message(workers):
    """Y derives r(Y, I) at every superstep but messages X after the first
    only, so X — reading r(Y, J) with J unbounded at supersteps 1 and 2,
    when Y's partition already holds r(Y, 1) — sees r(Y, 0) alone: what
    Y's message shipped, never Y's partition past that watermark."""
    partitioner = HashPartitioner(workers)
    assert (partitioner.worker_of(X) != partitioner.worker_of(Y)) == (
        workers > 1)
    result = run_online(
        from_edge_list([(Y, X), (X, 2)]), MessageOnce(),
        "r(X, I) :- superstep(X, I), X = 0."
        "heard(X, Y) :- receive_message(X, Y, M, I)."
        "seen(X, J, I) :- heard(X, Y), r(Y, J), superstep(X, I).",
        config=EngineConfig(num_workers=workers),
    )
    assert result.analytic.metrics.total_cross_worker_messages == (
        workers > 1)
    assert result.query.rows("r") == [(Y, 0), (Y, 1), (Y, 2)]
    assert result.query.rows("seen") == [(X, 0, 1), (X, 0, 2)]
    assert result.query.stats["shipped_tuples"] == 1
    assert result.query.derivations == 6


class FanIn(VertexProgram):
    """Every vertex messages its out-neighbors at supersteps 0 and 1."""

    name = "fan-in"

    def initial_value(self, vertex_id, graph):
        return 0

    def compute(self, ctx, messages):
        if ctx.superstep < 2:
            for target in ctx.out_neighbors():
                ctx.send(target, ctx.vertex_id + 0.5)
        else:
            ctx.vote_to_halt()


@pytest.mark.parametrize("workers", WORKERS)
def test_aggregate_heads_run_their_row_functions(workers):
    result = run_online(
        from_edge_list([(0, 2), (1, 2), (2, 3), (1, 3)]), FanIn(),
        "deg(X, I, count(Y)) :- receive_message(X, Y, M, I)."
        "tot(X, I, sum(M)) :- receive_message(X, Y, M, I)."
        "busy(X, I) :- deg(X, I, D), D > 1.",
        config=EngineConfig(num_workers=workers),
    )
    query = result.query
    assert query.rows("deg") == [(2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 2)]
    assert query.rows("tot") == [(2, 1, 2.0), (2, 2, 2.0), (3, 1, 4.0),
                                 (3, 2, 4.0)]
    assert query.rows("busy") == [(2, 1), (2, 2), (3, 1), (3, 2)]
    assert query.derivations == 12
    # three supersteps, three rules each: the aggregates are layer
    # programs too (a grouped reduce over their solutions)
    assert query.stats["rules_vectorized"] == 9
    assert "aggregate" in query.stats["kernel_seconds"]


def test_query1_runs_rules_times_supersteps(monkeypatch):
    calls = []
    original = pql_eval.evaluate_rule

    def counting(*args, **kwargs):
        calls.append(args[0].index)
        return original(*args, **kwargs)

    monkeypatch.setattr(pql_eval, "evaluate_rule", counting)
    analytic = PageRank(num_supersteps=8)
    result = run_online(web_graph(60, avg_degree=4, target_diameter=5,
                                  seed=3),
                        analytic, Q.APT_QUERY, params={"eps": 0.01},
                        udfs=Q.apt_udfs(analytic))
    supersteps = result.analytic.num_supersteps
    assert len(calls) == 5 * supersteps
    assert result.query.stats["rules_vectorized"] == 5 * supersteps
    assert result.query.stats["evaluator"] == "vectorized"
    assert result.query.rows("safe") or result.query.rows("unsafe")
