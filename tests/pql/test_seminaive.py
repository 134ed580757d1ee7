"""Differential tests: the standalone semi-naive evaluator vs the
plan-based distributed evaluators."""

import pytest

from repro.analytics.sssp import SSSP
from repro.core import queries as Q
from repro.graph.generators import web_graph, with_random_weights
from repro.pql.parser import parse
from repro.pql.seminaive import evaluate_seminaive, store_to_facts
from repro.pql.udf import FunctionRegistry
from repro.runtime.offline import run_reference
from repro.runtime.online import run_online


@pytest.fixture(scope="module")
def wgraph():
    return with_random_weights(
        web_graph(100, avg_degree=5, target_diameter=8, seed=121), seed=121
    )


@pytest.fixture(scope="module")
def store(wgraph):
    return run_online(
        wgraph, SSSP(source=0), Q.CAPTURE_FULL_QUERY, capture=True
    ).store


def seminaive_result(store, graph, src, functions=None, **params):
    program = parse(src)
    if params:
        program = program.bind(**params)
    facts = store_to_facts(store, graph)
    return evaluate_seminaive(program, facts, functions)


class TestBasics:
    def test_transitive_closure(self):
        program = parse(
            "t(X, Y) :- e(X, Y)."
            "t(X, Z) :- t(X, Y), e(Y, Z)."
        )
        facts = evaluate_seminaive(
            program, {"e": [(0, 1), (1, 2), (2, 3)]}
        )
        assert facts["t"] == {
            (0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3),
        }

    def test_naive_flag_same_answer(self):
        program = parse(
            "t(X, Y) :- e(X, Y)."
            "t(X, Z) :- t(X, Y), e(Y, Z)."
        )
        edb = {"e": [(i, i + 1) for i in range(8)]}
        fast = evaluate_seminaive(program, edb)
        slow = evaluate_seminaive(program, edb, naive=True)
        assert fast["t"] == slow["t"]

    def test_negation(self):
        program = parse(
            "covered(X, X) :- e(X, Y)."
            "root(X, X) :- e(X, Y), !incoming(X, X)."
            "incoming(Y, Y) :- e(X, Y)."
        )
        facts = evaluate_seminaive(program, {"e": [(0, 1), (1, 2)]})
        assert facts["root"] == {(0, 0)}

    def test_aggregates(self):
        program = parse("deg(X, count(Y)) :- e(X, Y).")
        facts = evaluate_seminaive(
            program, {"e": [(0, 1), (0, 2), (1, 2)]}
        )
        assert facts["deg"] == {(0, 2), (1, 1)}

    def test_binding_comparison_and_udf(self):
        program = parse("big(X, Z) :- e(X, Y), Z = Y * 2, gt3(Z).")
        funcs = FunctionRegistry({"gt3": lambda z: z > 3})
        facts = evaluate_seminaive(
            program, {"e": [(0, 1), (0, 3)]}, funcs
        )
        assert facts["big"] == {(0, 6)}


class TestDifferential:
    """The two independently-written evaluators must agree."""

    def _compare(self, store, wgraph, src, udfs=None, **params):
        functions = FunctionRegistry(udfs)
        expected = run_reference(
            store, src, wgraph, params or None, udfs
        )
        actual = seminaive_result(store, wgraph, src, functions, **params)
        program = parse(src)
        for pred in {r.head.predicate for r in program.rules}:
            assert (
                sorted(actual.get(pred, set()), key=repr)
                == expected.rows(pred)
            ), pred

    def test_query5(self, store, wgraph):
        self._compare(store, wgraph, Q.SSSP_WCC_UPDATE_CHECK_QUERY)

    def test_query6(self, store, wgraph):
        self._compare(store, wgraph, Q.SSSP_WCC_STABILITY_QUERY)

    def test_apt(self, store, wgraph):
        self._compare(
            store, wgraph, Q.APT_QUERY,
            udfs=Q.apt_udfs(SSSP(source=0)), eps=0.1,
        )

    def test_forward_lineage(self, store, wgraph):
        self._compare(
            store, wgraph, Q.CAPTURE_FWD_LINEAGE_QUERY, source=0
        )

    def test_backward_lineage(self, store, wgraph):
        sigma = store.max_superstep
        alpha = min(x for x, i in store.rows("superstep") if i == sigma)
        self._compare(
            store, wgraph, Q.BACKWARD_LINEAGE_FULL_QUERY,
            alpha=alpha, sigma=sigma,
        )

    def test_query4(self, store, wgraph):
        self._compare(store, wgraph, Q.PAGERANK_CHECK_QUERY)


class TestReadonlyFacts:
    """``store_to_facts(readonly=True)``: zero-copy set views over the live
    store and graph, consumed in place by the evaluator."""

    def test_views_match_copied_facts(self, store, wgraph):
        copied = store_to_facts(store, wgraph)
        views = store_to_facts(store, wgraph, readonly=True)
        assert set(copied) == set(views)
        for rel in copied:
            assert set(views[rel]) == set(copied[rel]), rel
            assert len(views[rel]) == len(copied[rel]), rel
        some_row = next(iter(copied["value"]))
        assert some_row in views["value"]
        assert ("no", "such", "row") not in views["value"]

    def test_seminaive_over_views(self, store, wgraph):
        program = parse(Q.SSSP_WCC_STABILITY_QUERY)
        from_views = evaluate_seminaive(
            program, store_to_facts(store, wgraph, readonly=True)
        )
        from_copies = evaluate_seminaive(
            program, store_to_facts(store, wgraph)
        )
        assert from_views == from_copies
