"""One copy per captured row: a persisted head that no other rule reads is
held by the capture store alone — not also in the run's derived facts
— and the capture's result answers it from the store, with the rows,
counts and digest it had when it was held twice."""

import json
import os

import pytest

from repro.analytics.pagerank import PageRank
from repro.core import queries as Q
from repro.core.ariadne import Ariadne
from repro.engine.config import EngineConfig
from repro.graph.generators import web_graph
from repro.obs.ledger import digest_query_result
from repro.pql.analysis import compile_query
from repro.pql.parser import parse
from repro.runtime.online import _store_only_heads

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(__file__)), "pql",
                      "golden_query_digests.json")

QUERIES = {"query2": Q.CAPTURE_FULL_QUERY,
           "query11": Q.CAPTURE_BACKWARD_CUSTOM_QUERY}

STORE_ONLY = {
    "query2": {"value", "send_message", "receive_message", "evolution"},
    "query11": {"prov_value", "prov_send", "prov_edges"},
}

#: Counters of these captures before heads were held once (the same at
#: every simulated worker count).
PINS = {
    "query2": {
        "counts": {"evolution": 300, "receive_message": 1200,
                   "send_message": 1200, "superstep": 360, "value": 360},
        "derivations": 3420, "pruned_rows": 3420, "shipped_tuples": 0,
        "transient_rows": 0,
    },
    "query11": {
        "counts": {"prov_edges": 240, "prov_send": 295, "prov_value": 360},
        "derivations": 895, "pruned_rows": 1920, "shipped_tuples": 0,
        "transient_rows": 0,
    },
}


@pytest.fixture(scope="module")
def graph():
    return web_graph(60, avg_degree=4, target_diameter=5, seed=12)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workers", [1, 3, 7])
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_capture_answers_store_only_heads_from_the_store(graph, golden, query,
                                                        workers):
    config = EngineConfig(num_workers=workers)
    result = Ariadne(graph, PageRank(num_supersteps=6), config).capture(
        QUERIES[query])
    answer = result.query
    # the digest the query's online run was pinned to, held once or not
    # (the golden file's `/parallel` keys pin seven simulated workers)
    suffix = "parallel" if workers == 7 else "serial"
    assert (digest_query_result(answer)
            == golden[f"{query}/online/index=False/{suffix}"])
    pin = PINS[query]
    assert {rel: answer.count(rel) for rel in answer.relations()} == (
        pin["counts"])
    assert answer.derivations == pin["derivations"]
    for key in ("transient_rows", "pruned_rows", "shipped_tuples"):
        assert answer.stats[key] == pin[key], key

    assert answer.store is result.store
    assert answer.store_only == STORE_ONLY[query]
    assert not answer.store_only & set(answer.derived.relations())
    # an online run of the same query holds every head in its derived facts
    online = Ariadne(graph, PageRank(num_supersteps=6), config).query_online(
        QUERIES[query])
    assert online.query.store is None and not online.query.store_only
    assert answer.as_dict() == online.query.as_dict()
    for rel in STORE_ONLY[query]:
        vertices = answer.vertices(rel)
        assert vertices == online.query.vertices(rel)
        vertex = min(vertices)
        assert answer.rows_at(rel, vertex) == online.query.rows_at(rel, vertex)


@pytest.mark.parametrize("text,expected", [
    (Q.CAPTURE_FULL_QUERY, STORE_ONLY["query2"]),  # superstep is read
    (Q.CAPTURE_BACKWARD_CUSTOM_QUERY, STORE_ONLY["query11"]),
    # shipped and recursive
    (Q.CAPTURE_FWD_LINEAGE_QUERY.replace("$source", "0"), set()),
    # aggregated
    ("n(X, I, count(Y)) :- receive_message(X, Y, M, I).", set()),
    # no superstep in the head: a row can recur at a later superstep
    ("seen(X) :- superstep(X, I).", set()),
    # a static head another rule reads
    (Q.PAGERANK_CHECK_QUERY, {"check_failed"}),
])
def test_store_only_heads(text, expected):
    assert _store_only_heads(compile_query(parse(text))) == expected


def test_store_only_rows_count_once(graph):
    """Two rules derive the same rows of a store-only head: the second
    derivation is no new row, as it was when ``derived`` deduplicated."""
    text = "h(X, I) :- superstep(X, I). h(X, I) :- value(X, D, I)."
    captured = Ariadne(graph, PageRank(num_supersteps=3)).capture(text)
    online = Ariadne(graph, PageRank(num_supersteps=3)).query_online(text)
    assert captured.query.store_only == {"h"}
    assert captured.query.derivations == online.query.derivations
    assert captured.query.derivations == captured.store.num_rows > 0


def test_online_runs_hold_every_head(graph):
    result = Ariadne(graph, PageRank(num_supersteps=3)).query_online(
        Q.CAPTURE_FULL_QUERY)
    assert not result.query.store_only
    assert set(result.query.derived.relations()) == {
        "value", "send_message", "receive_message", "superstep", "evolution"}


@pytest.mark.parametrize("query, permuted, dedup", [
    (Q.CAPTURE_FULL_QUERY, 0, 0),
    # the second prov_edges rule's rows of every vertex the first gave rows
    (Q.CAPTURE_BACKWARD_CUSTOM_UNDIRECTED_QUERY, 1, 234),
], ids=["query2", "query11-undirected"])
def test_capture_reports_its_ingest_path(graph, tmp_path, query, permuted,
                                         dedup):
    """A capture's stats, its ``provenance-capture`` spans and the
    ``repro_capture_*`` counters say how many layers had one vertex's rows
    arrive in more than one append, and how many rows took the store's
    row-by-row check."""
    from repro.analytics.wcc import WCC
    from repro.obs.metrics import MetricsRegistry, set_registry
    from repro.obs.sinks import InMemorySink
    from repro.obs.trace import Tracer, tracing

    registry, sink = MetricsRegistry(), InMemorySink()
    previous = set_registry(registry)
    try:
        with tracing(Tracer(sink, registry=registry)):
            result = Ariadne(graph, WCC()).capture(
                query, spill_directory=str(tmp_path))
    finally:
        set_registry(previous)
    stats = result.query.stats
    assert (stats["permuted_layers"], stats["dedup_rows"]) == (permuted, dedup)
    spans = [e for e in sink.events if e.get("type") == "span"
             and e["name"] == "provenance-capture"]
    assert spans and spans[-1]["attrs"]["permuted_layers"] == permuted
    assert spans[-1]["attrs"]["dedup_rows"] == dedup
    text = registry.to_prometheus()
    assert f"repro_capture_permuted_layers_total {permuted}" in text
    assert f"repro_capture_dedup_rows_total {dedup}" in text
