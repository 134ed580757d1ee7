"""Offline evaluation tests: layered == naive == reference on the paper's
queries, spill round-trips, direction handling, memory budgets."""

import pytest

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.core import queries as Q
from repro.errors import PQLCompatibilityError
from repro.graph.generators import web_graph, with_random_weights
from repro.provenance.spill import SpillManager
from repro.runtime.offline import (
    run_layered,
    run_layered_from_spill,
    run_naive,
    run_naive_from_spill,
    run_reference,
)
from repro.runtime.online import run_online


@pytest.fixture(scope="module")
def wgraph():
    return with_random_weights(
        web_graph(120, avg_degree=5, target_diameter=8, seed=41), seed=41
    )


@pytest.fixture(scope="module")
def sssp_store(wgraph):
    return run_online(
        wgraph, SSSP(source=0), Q.CAPTURE_FULL_QUERY, capture=True
    ).store


def assert_modes_agree(store, query, graph, params=None, udfs=None,
                       relations=None):
    layered = run_layered(store, query, graph, params, udfs)
    naive = run_naive(store, query, graph, params, udfs)
    reference = run_reference(store, query, graph, params, udfs)
    rels = relations or set(reference.relations())
    for rel in rels:
        assert layered.rows(rel) == reference.rows(rel), f"layered {rel}"
        assert naive.rows(rel) == reference.rows(rel), f"naive {rel}"
    return layered, naive, reference


class TestModeEquivalence:
    def test_monitoring_query5(self, sssp_store, wgraph):
        assert_modes_agree(sssp_store, Q.SSSP_WCC_UPDATE_CHECK_QUERY, wgraph)

    def test_monitoring_query6(self, sssp_store, wgraph):
        assert_modes_agree(sssp_store, Q.SSSP_WCC_STABILITY_QUERY, wgraph)

    def test_apt_query(self, sssp_store, wgraph):
        analytic = SSSP(source=0)
        assert_modes_agree(
            sssp_store, Q.APT_QUERY, wgraph,
            params={"eps": 0.1}, udfs=Q.apt_udfs(analytic),
        )

    def test_backward_lineage(self, sssp_store, wgraph):
        sigma = sssp_store.max_superstep
        alpha = next(
            x for x, i in sssp_store.rows("superstep") if i == sigma
        )
        layered, naive, _ref = assert_modes_agree(
            sssp_store, Q.BACKWARD_LINEAGE_FULL_QUERY, wgraph,
            params={"alpha": alpha, "sigma": sigma},
        )
        assert layered.stats["direction"] == "backward"
        assert layered.count("back_trace") >= 1

    def test_forward_lineage(self, sssp_store, wgraph):
        assert_modes_agree(
            sssp_store, Q.CAPTURE_FWD_LINEAGE_QUERY, wgraph,
            params={"source": 0},
        )


class TestCustomBackward:
    def test_query12_equals_query10(self, wgraph, sssp_store):
        custom_store = run_online(
            wgraph, SSSP(source=0), Q.CAPTURE_BACKWARD_CUSTOM_QUERY,
            capture=True,
        ).store
        sigma = sssp_store.max_superstep
        alpha = next(
            x for x, i in sssp_store.rows("superstep") if i == sigma
        )
        params = {"alpha": alpha, "sigma": sigma}
        full = run_layered(
            sssp_store, Q.BACKWARD_LINEAGE_FULL_QUERY, wgraph, params
        )
        custom = run_layered(
            custom_store, Q.BACKWARD_LINEAGE_CUSTOM_QUERY, wgraph, params
        )
        # Section 6.3: the custom query returns the exact same lineage.
        assert custom.rows("back_trace") == full.rows("back_trace")
        assert custom.rows("back_lineage") == full.rows("back_lineage")


class TestUndirectedCustomBackward:
    def test_wcc_needs_symmetric_edges(self, wgraph):
        """WCC broadcasts along reverse edges; the undirected capture
        variant reproduces Query 10 exactly, the directed one cannot."""
        from repro.analytics.wcc import WCC

        full = run_online(
            wgraph, WCC(), Q.CAPTURE_FULL_QUERY, capture=True
        ).store
        undirected = run_online(
            wgraph, WCC(), Q.CAPTURE_BACKWARD_CUSTOM_UNDIRECTED_QUERY,
            capture=True,
        ).store
        sigma = full.max_superstep
        alpha = min(x for x, i in full.rows("superstep") if i == sigma)
        params = {"alpha": alpha, "sigma": sigma}
        q10 = run_layered(full, Q.BACKWARD_LINEAGE_FULL_QUERY, wgraph, params)
        q12 = run_layered(
            undirected, Q.BACKWARD_LINEAGE_CUSTOM_QUERY, wgraph, params
        )
        assert q10.rows("back_trace") == q12.rows("back_trace")
        assert undirected.registry.get("prov_edges").topology == "edge"


class TestSpillPaths:
    def test_layered_from_spill_matches_in_memory(self, sssp_store, wgraph):
        with SpillManager(sssp_store) as spill:
            spill.seal_all()
            spilled = run_layered_from_spill(
                spill, Q.SSSP_WCC_UPDATE_CHECK_QUERY, wgraph
            )
        in_memory = run_layered(
            sssp_store, Q.SSSP_WCC_UPDATE_CHECK_QUERY, wgraph
        )
        for rel in in_memory.relations():
            assert spilled.rows(rel) == in_memory.rows(rel)
        assert spilled.stats["from_spill"]

    def test_naive_from_spill_matches_in_memory(self, sssp_store, wgraph):
        with SpillManager(sssp_store) as spill:
            spill.seal_all()
            spilled = run_naive_from_spill(
                spill, Q.SSSP_WCC_STABILITY_QUERY, wgraph
            )
        in_memory = run_naive(sssp_store, Q.SSSP_WCC_STABILITY_QUERY, wgraph)
        for rel in in_memory.relations():
            assert spilled.rows(rel) == in_memory.rows(rel)


class TestRestrictionsAndBudgets:
    def test_naive_memory_budget(self, sssp_store, wgraph):
        with pytest.raises(MemoryError):
            run_naive(
                sssp_store, Q.SSSP_WCC_STABILITY_QUERY, wgraph,
                memory_budget_bytes=1,
            )

    def test_stream_queries_rejected_offline(self, sssp_store, wgraph):
        with pytest.raises(PQLCompatibilityError):
            run_layered(sssp_store, Q.CAPTURE_FULL_QUERY, wgraph)
        with pytest.raises(PQLCompatibilityError):
            run_naive(sssp_store, Q.CAPTURE_FULL_QUERY, wgraph)

    def test_mixed_query_rejected_layered(self, sssp_store, wgraph):
        mixed = (
            "t(X, I) :- superstep(X, I)."
            "f(X, I) :- receive_message(X, Y, M, I), t(Y, J), J < I."
            "b(X, I) :- send_message(X, Y, M, I), t(Y, J), J = I + 1."
        )
        with pytest.raises(PQLCompatibilityError):
            run_layered(sssp_store, mixed, wgraph)
        # ... but naive handles it
        result = run_naive(sssp_store, mixed, wgraph)
        assert result.count("t") > 0

    def test_naive_reports_unfolded_nodes(self, sssp_store, wgraph):
        result = run_naive(sssp_store, Q.SSSP_WCC_STABILITY_QUERY, wgraph)
        assert result.stats["unfolded_nodes"] > len(
            set(sssp_store.vertices())
        )

    def test_layered_reports_peak_layer(self, sssp_store, wgraph):
        result = run_layered(sssp_store, Q.SSSP_WCC_STABILITY_QUERY, wgraph)
        assert 0 < result.stats["peak_layer_rows"] < sssp_store.num_rows


class TestMemoryBudgetContrast:
    def test_layered_fits_where_naive_cannot(self, sssp_store, wgraph):
        """Section 5.1's scalability claim: the layered load unit is one
        layer, so a budget between the largest slab and the total sealed
        size lets layered evaluation run while naive fails to load."""
        with SpillManager(sssp_store) as spill:
            spill.seal_all()
            largest_slab = max(
                spill.layer_size(i) for i in spill.sealed_layers()
            )
            total = spill.total_sealed_bytes()
            assert largest_slab < total
            budget = (largest_slab + total) // 2

            result = run_layered_from_spill(
                spill, Q.SSSP_WCC_STABILITY_QUERY, wgraph,
                memory_budget_bytes=budget,
            )
            assert result.stats["peak_slab_bytes"] <= budget
            with pytest.raises(MemoryError):
                run_naive_from_spill(
                    spill, Q.SSSP_WCC_STABILITY_QUERY, wgraph,
                    memory_budget_bytes=budget,
                )

    def test_layered_budget_too_small_raises(self, sssp_store, wgraph):
        with SpillManager(sssp_store) as spill:
            spill.seal_all()
            with pytest.raises(MemoryError):
                run_layered_from_spill(
                    spill, Q.SSSP_WCC_STABILITY_QUERY, wgraph,
                    memory_budget_bytes=1,
                )


class TestHoistedRules:
    """An anchor-free rule reading only stored relations and setup or
    other hoisted heads derives at every layer what it derives over the
    whole store: layered evaluation runs it once, before the layer loop."""

    DEGREE = "degree(X, count(Y)) :- receive_message(X, Y, M, I)."

    def test_which_rules_are_hoisted(self):
        from repro.pql.analysis import compile_query
        from repro.pql.explain import explain
        from repro.pql.parser import parse

        def hoisted(src):
            compiled = compile_query(parse(src))
            return {c.rule.head.predicate: c.hoisted for c in compiled.rules
                    if not c.is_static}

        assert hoisted(Q.ALS_ERROR_TREND_QUERY.replace("$eps", "0.1")) == {
            "prov_rating": False, "prov_prediction": False,
            "prov_error": False, "degree": True, "sum_error": False,
            "avg_error": False, "problem": False}
        # reading a setup head or another hoisted head keeps it hoisted
        assert hoisted("in(X) :- edge(Y, X)."
                       "fed(X) :- receive_message(X, Y, M, I), in(X)."
                       "fed2(X) :- fed(X).") == {"fed": True, "fed2": True}
        # a derived head that layers change, a remote read, an anchor
        assert hoisted("s(X, I) :- superstep(X, I). t(X) :- s(X, I).") == {
            "s": False, "t": False}
        assert hoisted("t(X) :- superstep(X, I)."
                       "n(X, I) :- receive_message(X, Y, M, I), t(Y).") == {
            "t": False, "n": False}
        report = explain(compile_query(parse(self.DEGREE)))
        assert "hoisted (layered: once, before the layer loop)" in report

    @pytest.fixture
    def calls(self, monkeypatch):
        """The head of every rule evaluation, in order."""
        from repro.pql import eval as pql_eval

        heads = []
        evaluate = pql_eval.evaluate_rule
        monkeypatch.setattr(pql_eval, "evaluate_rule", lambda crule, *a, **k: (
            heads.append(crule.head_predicate), evaluate(crule, *a, **k))[1])
        return heads

    def test_layered_runs_a_hoisted_rule_once(self, sssp_store, wgraph,
                                              calls):
        query = (self.DEGREE
                 + "big(X, I) :- degree(X, D), superstep(X, I), D > 2.")
        layered, _naive, _reference = assert_modes_agree(
            sssp_store, query, wgraph)
        assert calls.count("degree") == 2  # once layered, once naive
        assert calls.count("big") == sssp_store.num_layers + 1
        assert layered.count("degree") == len(
            {row[0] for row in sssp_store.rows("receive_message")})
        assert layered.count("big") > 0

    def test_online_runs_it_every_superstep(self, sssp_store, wgraph,
                                            calls):
        """Online a superstep only holds the messages received so far, so
        the rule runs at every superstep; the last ones leave the counts
        layered evaluation derives."""
        online = run_online(wgraph, SSSP(source=0), self.DEGREE)
        assert calls.count("degree") == online.query.supersteps
        assert online.query.rows("degree") == run_layered(
            sssp_store, self.DEGREE, wgraph).rows("degree")
