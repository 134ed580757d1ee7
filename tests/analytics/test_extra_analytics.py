"""Tests for k-core decomposition, the analytic the paper never evaluated."""

from repro.analytics.kcore import KCore, h_index
from repro.engine.engine import run_program
from repro.graph.digraph import DiGraph
from repro.graph.generators import chain_graph


class TestKCore:
    def test_h_index(self):
        assert h_index([]) == 0
        assert h_index([0, 0]) == 0
        assert h_index([1, 1, 1]) == 1
        assert h_index([3, 3, 3]) == 3
        assert h_index([5, 4, 3, 2, 1]) == 3

    def test_clique_coreness(self):
        # K4: every vertex has coreness 3
        g = DiGraph()
        for u in range(4):
            for v in range(4):
                if u != v:
                    g.add_edge(u, v)
        analytic = KCore()
        result = run_program(g, analytic.make_program())
        assert analytic.coreness(result.values) == {v: 3 for v in range(4)}

    def test_chain_coreness_is_one(self):
        g = chain_graph(6, bidirectional=True)
        analytic = KCore()
        result = run_program(g, analytic.make_program())
        assert set(analytic.coreness(result.values).values()) == {1}

    def test_clique_with_pendant(self):
        g = DiGraph()
        for u in range(4):
            for v in range(4):
                if u != v:
                    g.add_edge(u, v)
        g.add_edge(4, 0)  # pendant vertex
        analytic = KCore()
        result = run_program(g, analytic.make_program())
        cores = analytic.coreness(result.values)
        assert cores[4] == 1
        assert all(cores[v] == 3 for v in range(4))

    def test_estimates_never_increase(self, small_web):
        # monotone decrease is the invariant Query 5 would verify
        from repro.core import queries as Q
        from repro.runtime.online import run_online

        analytic = KCore()
        result = run_online(
            small_web, analytic, Q.SSSP_WCC_UPDATE_CHECK_QUERY
        )
        increased = [
            row for row in result.query.rows("check_failed")
        ]
        assert increased == []
