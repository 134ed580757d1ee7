"""Copy programs: a rule that only projects one relation at the location and
the anchor superstep (Query 2's capture rules) appends that relation's
batch rows instead of running a layer program.

Two contracts: which rules have the shape (decided by the rule alone), and
that the rows a copy program inserts — which rows, and in which order —
are the ones a plain :class:`~repro.pql.vectorized.LayerProgram` over the
same batches inserts, online (serial and at two workers) and offline
(layered and naive, over the in-memory and the sealed store).
"""

import contextlib

import pytest

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.core import queries as Q
from repro.engine.config import EngineConfig
from repro.graph.generators import web_graph, with_random_weights
from repro.obs.ledger import digest_query_result
from repro.pql import vectorized as vec
from repro.pql.analysis import compile_query
from repro.pql.eval import MODE_ANCHORED, MODE_LOCATED, _select_plan
from repro.pql.explain import explain
from repro.pql.parser import parse
from repro.provenance.spill import SpillManager
from repro.provenance.store import ProvenanceStore
from repro.runtime.offline import (
    run_layered,
    run_layered_from_spill,
    run_naive,
    run_naive_from_spill,
)
from repro.runtime.online import run_online


def _rule(text, index=0):
    return compile_query(parse(text)).rules[index]


def _is_copy(text, index=0, mode=MODE_ANCHORED):
    return isinstance(vec.layer_program(_rule(text, index), mode),
                      vec.CopyProgram)


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------
_Q2 = Q.CAPTURE_FULL_QUERY
_Q11 = Q.CAPTURE_BACKWARD_CUSTOM_QUERY


@pytest.mark.parametrize("text,index,expected", [
    # Query 2: three stamps and two exact self-copies
    (_Q2, 0, True),
    (_Q2, 1, True),
    (_Q2, 2, True),
    (_Q2, 3, True),
    (_Q2, 4, True),
    # Query 11's stamps (prov_edges is a static setup rule)
    (_Q11, 0, True),
    (_Q11, 1, True),
    # Queries 5 / 6: a projection of the message log at the anchor
    (Q.SSSP_WCC_UPDATE_CHECK_QUERY, 0, True),
    (Q.SSSP_WCC_STABILITY_QUERY, 0, True),
    # the anchor stamp may come first in the body
    ("v(X, I, D) :- superstep(X, I), value(X, D, I).", 0, True),
    # a constant or a filter: Query 3's first fwd_lineage rule, Query 10's
    # first back_trace rule
    (Q.CAPTURE_FWD_LINEAGE_QUERY.replace("$source", "3"), 0, False),
    (Q.BACKWARD_LINEAGE_FULL_QUERY.replace("$sigma", "4")
     .replace("$alpha", "3"), 0, False),
    ("r(X, I) :- send_message(X, 3, M, I).", 0, False),
    # negation
    ("r(X, I) :- superstep(X, I), !q(X, I). q(X, I) :- value(X, D, I).",
     0, False),
    # a repeated variable
    ("r(X, Y, I) :- send_message(X, Y, Y, I).", 0, False),
    # a second atom that is not superstep(X, I) at the anchor
    ("r(X, D, I) :- value(X, D, I), evolution(X, J, I).", 0, False),
    ("r(X, D, I) :- value(X, D, J), superstep(X, J), I = J.", 0, False),
    # an aggregate head
    ("n(X, I, count(Y)) :- receive_message(X, Y, M, I).", 0, False),
    # a computed head term
    ("r(X, J) :- superstep(X, I), J = I + 1.", 0, False),
    # the static graph relations are answered from the graph
    ("r(X, Y, I) :- edge(X, Y), superstep(X, I).", 0, False),
])
def test_recognition(text, index, expected):
    assert _is_copy(text, index) is expected


def test_no_copy_without_an_anchor():
    """Naive evaluation binds no anchor: a relation with a superstep
    attribute is read in every layer, which is no copy."""
    assert not _is_copy(_Q2, 3, MODE_LOCATED)  # superstep :- superstep
    assert not _is_copy(Q.SSSP_WCC_STABILITY_QUERY, 0, MODE_LOCATED)
    assert not _is_copy("v(X, D, I) :- value(X, D, I), superstep(X, I).",
                        0, MODE_LOCATED)


def test_explain_names_the_copy_program():
    report = explain(compile_query(parse(_Q2)))
    assert report.count("[copy program]") == 5
    assert "[layer program]" not in report
    report = explain(compile_query(parse(Q.PAGERANK_CHECK_QUERY)))
    assert "[copy program]" not in report and "[layer program]" in report


# ---------------------------------------------------------------------------
# differential: copy programs == plain layer programs
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def plain_layer_programs():
    """Every rule that has a program runs a plain ``LayerProgram`` — the
    copy programs' oracle."""
    def plain(crule, mode):
        return vec.LayerProgram(crule, _select_plan(crule, mode))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vec, "layer_program", plain)
        yield


def _store_content(store):
    """Every (layer, relation, vertex)'s rows in store order — what a seal
    writes, slab by slab."""
    layers = [None, *range(store.num_layers)]
    return {t: {rel: {v: list(rows) for v, rows in by_vertex.items()}
                for rel, by_vertex in store.layer(t).items()}
            for t in layers}


def _derived_content(derived):
    """Every derived (relation, vertex) partition in arrival order."""
    return {rel: {v: list(derived.partition(rel, v))
                  for v in derived.vertices(rel)}
            for rel in derived.relations()}


@pytest.fixture(scope="module")
def graphs():
    web = web_graph(60, avg_degree=4, target_diameter=5, seed=12)
    return {"pagerank": web, "sssp": with_random_weights(web, seed=12)}


_ANALYTICS = {"pagerank": lambda: PageRank(num_supersteps=6),
              "sssp": lambda: SSSP(source=0)}

_STATS = ("transient_rows", "pruned_rows", "shipped_tuples",
          "rules_vectorized")


def _online(graphs, workload, text, capture, workers=1):
    config = EngineConfig(num_workers=workers)
    return run_online(graphs[workload], _ANALYTICS[workload](), text,
                      capture=capture, config=config)


@pytest.mark.parametrize("workload,text,capture", [
    ("pagerank", _Q2, True),
    ("sssp", _Q2, True),
    ("pagerank", _Q11, True),
    ("sssp", Q.SSSP_WCC_UPDATE_CHECK_QUERY, False),
    ("sssp", Q.SSSP_WCC_STABILITY_QUERY, False),
    # a copy of another rule's head joins its derived rows
    ("sssp", "a(X, I) :- superstep(X, I). b(X, I) :- a(X, I).", False),
])
def test_online_rows_equal_layer_programs(graphs, workload, text, capture):
    with plain_layer_programs():
        plain = _online(graphs, workload, text, capture)
    assert "copy" not in plain.query.stats["kernel_seconds"]
    copied = _online(graphs, workload, text, capture)
    assert "copy" in copied.query.stats["kernel_seconds"]
    assert copied.query.as_dict() == plain.query.as_dict()
    assert any(copied.query.as_dict().values())
    assert copied.query.derivations == plain.query.derivations
    for key in _STATS:
        assert copied.query.stats[key] == plain.query.stats[key], key
    if capture:
        assert _store_content(copied.store) == _store_content(plain.store)
    else:
        assert (_derived_content(copied.query.derived)
                == _derived_content(plain.query.derived))
    # seven simulated workers: the same rows, in the same order
    seven = _online(graphs, workload, text, capture, workers=7)
    assert "copy" in seven.query.stats["kernel_seconds"]
    assert (digest_query_result(seven.query)
            == digest_query_result(plain.query))
    assert seven.query.derivations == plain.query.derivations
    if capture:
        assert _store_content(seven.store) == _store_content(plain.store)


#: Offline copy shapes: exact copies, stamps, projections, a copy of a
#: derived head, and a stamp whose superstep rows are partly derived.
_OFFLINE = {
    "copies": """
        ss(X, I)        :- superstep(X, I).
        superstep(X, I) :- superstep(X, I).
        v(X, D, I)      :- value(X, D, I), superstep(X, I).
        e(X, J, I)      :- evolution(X, J, I).
        sent(X, I)      :- send_message(X, Y, M, I), superstep(X, I).
        got(X, Y, M, I) :- receive_message(X, Y, M, I).
        again(X, I)     :- ss(X, I).
    """,
    "query5": Q.SSSP_WCC_UPDATE_CHECK_QUERY,
    "query6": Q.SSSP_WCC_STABILITY_QUERY,
    "derived-stamp": """
        superstep(X, I) :- value(X, D, I).
        v(X, D, I)      :- value(X, D, I), superstep(X, I).
    """,
}


@pytest.fixture(scope="module")
def stores(graphs, tmp_path_factory):
    """A full SSSP capture, and a hand-made store in which some vertices
    have values but no ``superstep`` row, each in memory and sealed."""
    capture = run_online(graphs["sssp"], SSSP(source=0), _Q2,
                         capture=True).store
    partial = ProvenanceStore()
    for t in range(3):
        partial.add_batch("value", [(v, float(v * t), t) for v in range(6)])
        partial.add_batch("superstep", [(v, t) for v in range(6) if v % 3])
        partial.add_batch("send_message", [(v, (v + 1) % 6, 1.0, t)
                                           for v in range(0, 6, 2)])
        partial.add_batch("receive_message", [(v, (v - 1) % 6, 1.0, t)
                                              for v in range(1, 6, 2)])
    out = {}
    for name, store in (("capture", capture), ("partial", partial)):
        directory = str(tmp_path_factory.mktemp(name))
        SpillManager(store, directory=directory).seal_all()
        out[name] = (store, SpillManager.open(directory))
    return out


@pytest.mark.parametrize("store_name", ["capture", "partial"])
@pytest.mark.parametrize("query", sorted(_OFFLINE))
@pytest.mark.parametrize("driver", [run_layered, run_naive,
                                    run_layered_from_spill,
                                    run_naive_from_spill])
def test_offline_rows_equal_layer_programs(graphs, stores, store_name, query,
                                           driver):
    store, spill = stores[store_name]
    source = spill if driver.__name__.endswith("_from_spill") else store
    text = _OFFLINE[query]
    with plain_layer_programs():
        plain = driver(source, text, graphs["sssp"])
    copied = driver(source, text, graphs["sssp"])
    assert _derived_content(copied.derived) == _derived_content(plain.derived)
    assert copied.derivations == plain.derivations
    assert copied.stats["rules_vectorized"] == plain.stats["rules_vectorized"]
    if driver in (run_layered, run_layered_from_spill):
        assert "copy" in copied.stats["kernel_seconds"]
    assert any(copied.as_dict().values())


def test_stamp_drops_sites_without_a_superstep_row(stores, graphs):
    store, _spill = stores["partial"]
    result = run_layered(store, "v(X, D, I) :- value(X, D, I), superstep(X, I).",
                         graphs["sssp"])
    assert {x for x, _d, _i in result.rows("v")} == {1, 2, 4, 5}
