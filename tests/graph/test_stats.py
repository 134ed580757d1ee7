"""Unit tests for graph statistics (Table 2 characteristics)."""

import math

from repro.graph.digraph import DiGraph, from_edge_list
from repro.graph.generators import chain_graph, web_graph
from repro.graph.stats import (
    average_degree,
    bfs_levels,
    degree_histogram,
    eccentricity,
    estimate_average_diameter,
    max_degree_vertex,
    single_source_shortest_paths,
    weakly_connected_components,
)
from tests.graphs import grid_graph


class TestBFSAndDiameter:
    def test_bfs_levels_chain(self):
        g = chain_graph(5)
        levels = bfs_levels(g, 0, undirected=False)
        assert levels == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_bfs_undirected_reaches_backwards(self):
        g = chain_graph(5)
        levels = bfs_levels(g, 4, undirected=True)
        assert levels[0] == 4

    def test_eccentricity(self):
        g = chain_graph(6)
        assert eccentricity(g, 0) == 5
        assert eccentricity(g, 3) == 3  # undirected: max(3, 2)

    def test_diameter_estimate_grid(self):
        g = grid_graph(5, 5)
        d = estimate_average_diameter(g, samples=25, seed=0)
        # True diameter is 8; average eccentricity lies between 4 and 8.
        assert 4.0 <= d <= 8.0

    def test_empty_graph(self):
        assert estimate_average_diameter(DiGraph()) == 0.0


class TestDegrees:
    def test_average_degree(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)])
        assert average_degree(g) == 1.0
        assert average_degree(DiGraph()) == 0.0

    def test_degree_histogram(self):
        g = from_edge_list([(0, 1), (0, 2), (1, 2)])
        hist = degree_histogram(g, kind="out")
        assert hist == {2: 1, 1: 1, 0: 1}
        hist_in = degree_histogram(g, kind="in")
        assert hist_in == {0: 1, 1: 1, 2: 1}

    def test_max_degree_vertex(self):
        g = from_edge_list([(0, 1), (0, 2), (0, 3), (1, 2)])
        assert max_degree_vertex(g, kind="out") == 0
        assert max_degree_vertex(g, kind="in") == 2


class TestComponents:
    def test_two_components(self):
        g = from_edge_list([(0, 1), (2, 3)])
        comps = sorted(sorted(c) for c in weakly_connected_components(g))
        assert comps == [[0, 1], [2, 3]]

    def test_direction_is_ignored(self):
        g = from_edge_list([(0, 1), (2, 1)])
        comps = weakly_connected_components(g)
        assert len(comps) == 1

    def test_web_graph_is_connected(self):
        g = web_graph(500, avg_degree=8, target_diameter=10, seed=1)
        assert len(weakly_connected_components(g)) == 1


class TestDijkstraOracle:
    def test_chain_distances(self):
        g = chain_graph(4)
        for i in range(3):
            g.set_edge_value(i, i + 1, 2.0)
        dist = single_source_shortest_paths(g, 0)
        assert dist == {0: 0.0, 1: 2.0, 2: 4.0, 3: 6.0}

    def test_missing_weight_defaults_to_one(self):
        g = chain_graph(3)
        dist = single_source_shortest_paths(g, 0)
        assert dist[2] == 2.0

    def test_picks_shorter_path(self):
        g = DiGraph()
        g.add_edge(0, 1, 10.0)
        g.add_edge(0, 2, 1.0)
        g.add_edge(2, 1, 1.0)
        dist = single_source_shortest_paths(g, 0)
        assert dist[1] == 2.0

    def test_unreachable_absent(self):
        g = from_edge_list([(0, 1)])
        g.add_vertex(9)
        dist = single_source_shortest_paths(g, 0)
        assert 9 not in dist
