"""Unit tests for SSSP against the Dijkstra oracle."""

import math

import pytest

from repro.analytics.error import normalized_error
from repro.analytics.sssp import SSSP
from repro.engine.engine import PregelEngine, run_program
from repro.graph.digraph import DiGraph
from repro.graph.generators import web_graph, with_random_weights
from repro.graph.stats import single_source_shortest_paths


class TestExactSSSP:
    def test_chain(self, weighted_chain):
        result = run_program(weighted_chain, SSSP(source=0).make_program())
        assert result.values == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}

    def test_diamond_min_path(self, diamond):
        diamond.set_edge_value(0, 1, 5.0)  # make the 0->1->3 path longer
        result = run_program(diamond, SSSP(source=0).make_program())
        assert result.values[3] == pytest.approx(2.0)

    def test_unreachable_stays_infinite(self):
        g = DiGraph()
        g.add_edge(0, 1, 1.0)
        g.add_vertex(9)
        result = run_program(g, SSSP(source=0).make_program())
        assert math.isinf(result.values[9])

    def test_matches_dijkstra_on_random_web(self, small_weighted_web):
        result = run_program(
            small_weighted_web, SSSP(source=0).make_program()
        )
        oracle = single_source_shortest_paths(small_weighted_web, 0)
        for v in small_weighted_web.vertices():
            expected = oracle.get(v, math.inf)
            assert result.values[v] == pytest.approx(expected, abs=1e-12)

    def test_missing_weights_default_to_one(self):
        g = DiGraph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        result = run_program(g, SSSP(source=0).make_program())
        assert result.values[2] == 2.0


class TestApproximateSSSP:
    def test_epsilon_suppresses_messages(self, small_weighted_web):
        engine = PregelEngine(small_weighted_web)
        exact = engine.run(SSSP(source=0).make_program())
        approx = engine.run(SSSP(source=0, epsilon=0.1).make_program())
        assert approx.metrics.total_messages < exact.metrics.total_messages

    def test_error_is_bounded(self, small_weighted_web):
        exact_a = SSSP(source=0)
        approx_a = SSSP(source=0, epsilon=0.1)
        v0 = exact_a.result_vector(
            run_program(small_weighted_web, exact_a.make_program()).values
        )
        v1 = approx_a.result_vector(
            run_program(small_weighted_web, approx_a.make_program()).values
        )
        err = normalized_error(v0, v1, p=1)
        assert 0.0 <= err < 0.25

    def test_approx_never_underestimates(self, small_weighted_web):
        # Suppressing relaxations can only leave distances too large.
        exact = run_program(
            small_weighted_web, SSSP(source=0).make_program()
        ).values
        approx = run_program(
            small_weighted_web, SSSP(source=0, epsilon=0.2).make_program()
        ).values
        for v in small_weighted_web.vertices():
            assert approx[v] >= exact[v] - 1e-12
