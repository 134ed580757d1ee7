"""Proven-complete far reads (Theorem 5.4): a remote scan located at the
sender of a message the anchor received, at a time at most the anchor − 1,
reads the sender's layers with no watermark. Every such query derives
online what layered evaluation derives over a capture of the same run, and
what the same run derives with every far read watermarked — rows and
``shipped_tuples`` alike, at 1, 3 and 7 simulated workers. A far read of
any other shape keeps its watermark."""

from dataclasses import replace

import pytest

from repro.analytics.als import ALS
from repro.analytics.pagerank import PageRank
from repro.core import queries as Q
from repro.engine.config import EngineConfig
from repro.graph.generators import movielens_like, web_graph
from repro.obs.ledger import digest_query_result
from repro.pql.analysis import compile_query
from repro.pql.parser import parse
from repro.pql.plan import ScanStep
from repro.pql.udf import FunctionRegistry
from repro.runtime.offline import run_layered
from repro.runtime.online import run_online

WORKERS = [1, 3, 7]

#: Query 3's recursive rule, with ``J <= I - 1`` for its ``J < I``
AT_MOST = Q.CAPTURE_FWD_LINEAGE_QUERY.replace("J < I", "J <= I - 1")
#: ``r`` holds rows at superstep 0 only, read at an unbounded time: the
#: scan keeps its watermark, which covers superstep 0 at every message
KEPT = ("r(X, J) :- superstep(X, J), J = 0."
        "seen(X, I) :- receive_message(X, Y, M, I), r(Y, J).")

#: name -> (query, params, whether its far read is proven complete)
QUERIES = {
    "query1": (Q.APT_QUERY, {"eps": 0.01}, True),
    "query3": (Q.CAPTURE_FWD_LINEAGE_QUERY, {"source": 3}, True),
    "at_most": (AT_MOST, {"source": 3}, True),
    "kept": (KEPT, None, False),
}


def compiled(src, params=None, functions=None):
    program = parse(src)
    return compile_query(program.bind(**params) if params else program,
                         functions=functions)


def far_reads(query):
    """``complete`` of every remote scan in the anchored plans."""
    return [step.complete for crule in query.rules
            if crule.anchored_plan is not None
            for step in crule.anchored_plan.steps
            if isinstance(step, ScanStep) and step.remote]


def watermarked(query):
    """``query`` with every far read's proof dropped."""
    for crule in query.rules:
        if crule.anchored_plan is not None:
            crule.anchored_plan = replace(crule.anchored_plan, steps=tuple(
                replace(step, complete=False) if isinstance(step, ScanStep)
                else step for step in crule.anchored_plan.steps))
            crule.layer_programs.clear()
    return query


@pytest.mark.parametrize("src, marks", [
    (Q.APT_QUERY.replace("$eps", "0.1"), [True]),
    (Q.CAPTURE_FWD_LINEAGE_QUERY.replace("$source", "3"), [True]),
    (AT_MOST.replace("$source", "3"), [True]),
    (KEPT, [False]),
    # a time the anchor may reach: the sender's layer I is not shipped
    ("c(X, I) :- superstep(X, I)."
     "p(X, I) :- receive_message(X, Y, M, I), c(Y, J), J <= I.", [False]),
    ("c(X, I) :- superstep(X, I)."
     "p(X, I) :- receive_message(X, Y, M, I), !c(Y, I).", [False]),
    # the sender of an earlier message, not of one the anchor received
    ("c(X, I) :- superstep(X, I)."
     "p(X, I) :- superstep(X, I), receive_message(X, Y, M, K), K < I,"
     " c(Y, J), J = K - 1.", [False]),
    # receive is the Inbox too, but only receive_message carries the proof
    ("c(X, I) :- superstep(X, I)."
     "p(X, I) :- receive(X, Y, M), superstep(X, I), !c(Y, J), J = I - 1.",
     [False]),
], ids=["query1", "query3", "at_most", "kept", "at_anchor", "anchor_negated",
        "earlier_sender", "receive"])
def test_which_far_reads_are_proven(src, marks):
    assert far_reads(compiled(src, functions=FunctionRegistry(
        Q.apt_udfs(PageRank())))) == marks


@pytest.fixture(scope="module")
def graph():
    return web_graph(60, avg_degree=4, target_diameter=5, seed=12)


@pytest.fixture(scope="module")
def capture(graph):
    return run_online(graph, PageRank(num_supersteps=6),
                      Q.CAPTURE_FULL_QUERY, capture=True).store


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_online_equals_layered_and_the_watermarked_run(graph, capture, name,
                                                       workers):
    src, params, proven = QUERIES[name]
    analytic = PageRank(num_supersteps=6)
    udfs = Q.apt_udfs(analytic)
    config = EngineConfig(num_workers=workers)
    query = compiled(src, params, FunctionRegistry(udfs))
    assert any(far_reads(query)) == proven
    online = run_online(graph, analytic, query, udfs=udfs, config=config)
    layered = run_layered(capture, src, graph, params, udfs)
    assert digest_query_result(online.query) == digest_query_result(layered)
    assert any(online.query.count(rel) for rel in online.query.relations())
    reference = run_online(graph, analytic, watermarked(
        compiled(src, params, FunctionRegistry(udfs))), udfs=udfs,
        config=config)
    assert online.query.as_dict() == reference.query.as_dict()
    assert online.query.stats["shipped_tuples"] == \
        reference.query.stats["shipped_tuples"] > 0


def test_a_watermark_hides_the_senders_current_layer(graph):
    """``J <= I`` admits the anchor, whose layer the sender had not shipped
    when it messaged at ``I − 1``: the read keeps its watermark and sees
    ``c(Y, J)`` for ``J < I`` only, though every sender also derives
    ``c(Y, I)`` in the superstep that reads it."""
    src = ("c(X, I) :- superstep(X, I)."
           "p(X, J, I) :- receive_message(X, Y, M, I), c(Y, J), J <= I.")
    result = run_online(graph, PageRank(num_supersteps=6), src)
    assert far_reads(compiled(src)) == [False]
    rows = result.query.rows("p")
    assert rows and all(j < i for _x, j, i in rows)
    assert {j for _x, j, _i in rows} == set(range(5))


#: Queries binding the payload ``M`` over ALS, whose ``(sender, vector)``
#: messages must be frozen: with a ``send`` frame (its frozen payloads are
#: regrouped) and without (the Inbox freezes the log's), framed and
#: stored. The digests were recorded at the commit before the payload
#: column was regrouped from the send log.
PAYLOADS = {
    "framed": (
        "got(X, Y, M, I) :- receive_message(X, Y, M, I)."
        "heard(X, Y, M, I) :- receive(X, Y, M), superstep(X, I)."
        "sent(X, Y, M, I) :- send_message(X, Y, M, I).",
        "7847653a81ffe60bf17f4674a220702aee802f13782e86cc0ca39a28873d191b"),
    "stored": (
        "got(X, Y, M, I) :- receive_message(X, Y, M, I)."
        "prev(X, M, I) :- superstep(X, I), receive_message(X, Y, M, J),"
        " J = I - 2.",
        "6dba18591ce247be24dec24fa01ba45891df872b808c9451f997f70423632181"),
}


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_payload_column_digests(name, workers):
    src, digest = PAYLOADS[name]
    ratings = movielens_like(20, 10, 120, num_features=3, seed=12)
    result = run_online(ratings.to_digraph(),
                        ALS(ratings, num_features=3, max_rounds=3), src,
                        config=EngineConfig(num_workers=workers))
    assert result.query.count("got") == 720
    assert digest_query_result(result.query) == digest
