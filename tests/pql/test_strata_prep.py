"""Tests for stratum preparation: topological single-pass vs fixpoint."""

from repro.core import queries as Q
from repro.pql.analysis import compile_query
from repro.pql.eval import _topological, prepare_strata
from repro.pql.parser import parse
from repro.pql.udf import FunctionRegistry


def prepared_of(src, **params):
    program = parse(src)
    if params:
        program = program.bind(**params)
    funcs = FunctionRegistry({"udf_diff": lambda a, b, e: abs(a - b) < e})
    return prepare_strata(compile_query(program, functions=funcs).strata)


class TestTopological:
    def test_linear_chain(self):
        assert _topological({"a": set(), "b": {"a"}, "c": {"b"}}) == [
            "a", "b", "c",
        ]

    def test_self_loop_is_cycle(self):
        assert _topological({"a": {"a"}}) is None

    def test_two_cycle(self):
        assert _topological({"a": {"b"}, "b": {"a"}}) is None

    def test_diamond(self):
        order = _topological(
            {"a": set(), "b": {"a"}, "c": {"a"}, "d": {"b", "c"}}
        )
        assert order is not None
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("c") < order.index("d")

    def test_empty(self):
        assert _topological({}) == []

    def test_ties_break_by_listing_order(self):
        # prepare_strata lists heads by their first rule, so independent
        # relations fire in program order
        assert _topological({"c": set(), "a": set(), "b": set()}) == [
            "c", "a", "b",
        ]
        assert _topological({"z": {"y"}, "y": set(), "x": set()}) == [
            "y", "z", "x",
        ]


class TestPreparedStrata:
    def test_apt_needs_no_fixpoint_loop(self):
        prepared = prepared_of(Q.APT_QUERY, eps=0.1)
        assert all(not recursive for _rules, recursive in prepared)
        # the last stratum is ordered no_execute before safe/unsafe
        last_rules, _ = prepared[-1]
        names = [c.head_predicate for c in last_rules]
        assert names.index("no_execute") < names.index("safe")
        assert names.index("no_execute") < names.index("unsafe")

    def test_recursive_query_keeps_fixpoint(self):
        prepared = prepared_of(
            Q.BACKWARD_LINEAGE_FULL_QUERY, alpha=0, sigma=3
        )
        recursive_flags = [r for _rules, r in prepared]
        assert any(recursive_flags)  # back_trace is genuinely recursive

    def test_single_rule_stratum_not_recursive(self):
        prepared = prepared_of("p(X, I) :- superstep(X, I).")
        assert prepared == [(prepared[0][0], False)]

    def test_acyclic_stratum_keeps_program_order(self):
        prepared = prepared_of(Q.SSSP_WCC_UPDATE_CHECK_QUERY)
        for rules, recursive in prepared:
            assert not recursive
            assert [c.index for c in rules] == sorted(c.index for c in rules)

    def test_copy_rules_are_no_dependency(self):
        """Query 2 copies superstep/evolution onto themselves; those rules
        re-derive rows their readers already see, so the stratum is one
        pass in program order, not a fixpoint."""
        prepared = prepared_of(Q.CAPTURE_FULL_QUERY)
        assert [([c.index for c in rules], recursive)
                for rules, recursive in prepared] == [([0, 1, 2, 3, 4], False)]
        # a relation that is also derived from itself some other way is
        # still a dependency of its own rules
        prepared = prepared_of("p(X, I) :- p(X, I)."
                               "p(X, I) :- p(X, J), I = J + 1, I < 3."
                               "p(X, I) :- superstep(X, I).")
        assert [recursive for _rules, recursive in prepared] == [True]

    def test_capture_runs_each_rule_once_per_superstep(self, monkeypatch):
        """The superstep program evaluates every rule once per superstep
        over all the vertices it executed, not once per vertex."""
        from repro.analytics.pagerank import PageRank
        from repro.graph.generators import web_graph
        from repro.pql import eval as pql_eval
        from repro.runtime.online import run_online

        calls = []
        original = pql_eval.evaluate_rule

        def counting(*args, **kwargs):
            calls.append(args[0].index)
            return original(*args, **kwargs)

        monkeypatch.setattr(pql_eval, "evaluate_rule", counting)
        graph = web_graph(30, avg_degree=3, target_diameter=4, seed=5)
        result = run_online(graph, PageRank(num_supersteps=4),
                            Q.CAPTURE_FULL_QUERY, capture=True)
        supersteps = result.analytic.num_supersteps
        executions = sum(s.active_vertices
                         for s in result.analytic.metrics.supersteps)
        assert executions > 5 * supersteps
        assert calls == [0, 1, 2, 3, 4] * supersteps
        stats = result.query.stats
        assert stats["rules_vectorized"] == 5 * supersteps

    def test_results_unchanged_by_ordering(self):
        # differential: a dependency-ordered stratum must produce the same
        # fixpoint as brute-force iteration (covered broadly by the mode
        # equivalence suites; this is the targeted regression test)
        from repro.provenance.store import ProvenanceStore
        from repro.runtime.offline import run_reference

        store = ProvenanceStore()
        store.add_batch("superstep", [(0, 0), (0, 1), (1, 1)])
        store.add_batch("receive_message", [(0, 1, 1.0, 1)])
        result = run_reference(
            store,
            # heads intentionally listed in anti-dependency order
            "c(X, I) :- b(X, I)."
            "b(X, I) :- a(X, I)."
            "a(X, I) :- superstep(X, I), I > 0.",
        )
        assert result.rows("c") == [(0, 1), (1, 1)]
