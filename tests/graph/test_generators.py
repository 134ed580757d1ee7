"""Unit tests for the synthetic graph generators."""

import pytest

from repro.errors import GraphError
from repro.graph.generators import (
    chain_graph,
    movielens_like,
    web_graph,
    with_random_weights,
)
from repro.graph.stats import (
    average_degree,
    degree_histogram,
    estimate_average_diameter,
)
from tests.graphs import grid_graph, random_graph, star_graph


class TestWebGraph:
    def test_size_and_degree(self):
        g = web_graph(1000, avg_degree=10, target_diameter=16, seed=1)
        assert g.num_vertices == 1000
        assert 8.0 <= average_degree(g) <= 11.0

    def test_deterministic_by_seed(self):
        a = web_graph(300, avg_degree=6, seed=5)
        b = web_graph(300, avg_degree=6, seed=5)
        assert list(a.edges()) == list(b.edges())
        c = web_graph(300, avg_degree=6, seed=6)
        assert list(a.edges()) != list(c.edges())

    def test_diameter_tracks_target(self):
        small = web_graph(1000, avg_degree=8, target_diameter=6, seed=2)
        large = web_graph(1000, avg_degree=8, target_diameter=24, seed=2)
        d_small = estimate_average_diameter(small, samples=8, seed=0)
        d_large = estimate_average_diameter(large, samples=8, seed=0)
        assert d_large > d_small

    def test_degree_skew(self):
        g = web_graph(1000, avg_degree=10, target_diameter=12, seed=3)
        hist = degree_histogram(g, kind="total")
        max_degree = max(hist)
        # Preferential attachment must produce hubs well above the mean.
        assert max_degree > 4 * average_degree(g)

    def test_too_small_raises(self):
        with pytest.raises(GraphError):
            web_graph(2)

    def test_no_self_loops(self):
        g = web_graph(300, avg_degree=6, seed=4)
        assert all(u != v for u, v, _ in g.edges())


class TestOtherGenerators:
    def test_random_graph(self):
        g = random_graph(100, 400, seed=1)
        assert g.num_vertices == 100
        assert g.num_edges == 400

    def test_chain(self):
        g = chain_graph(4)
        assert g.num_edges == 3
        assert g.out_neighbors(0) == [1]
        assert g.out_degree(3) == 0

    def test_chain_bidirectional(self):
        g = chain_graph(4, bidirectional=True)
        assert g.num_edges == 6
        assert g.has_edge(1, 0)

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        # interior vertices have right+down edges
        assert g.has_edge(0, 1)
        assert g.has_edge(0, 4)
        assert g.out_degree(11) == 0

    def test_star(self):
        g = star_graph(5)
        assert g.num_vertices == 6
        assert g.out_degree(0) == 5

    def test_with_random_weights(self):
        g = with_random_weights(chain_graph(10), 0.0, 1.0, seed=1)
        for _u, _v, w in g.edges():
            assert 0.0 <= w < 1.0

    def test_with_random_weights_deterministic(self):
        a = with_random_weights(chain_graph(10), seed=2)
        b = with_random_weights(chain_graph(10), seed=2)
        assert list(a.edges()) == list(b.edges())


class TestMovieLensLike:
    def test_shape(self):
        bg = movielens_like(50, 30, 400, num_features=5, seed=1)
        assert bg.num_users == 50
        assert bg.num_items == 30
        assert bg.num_ratings == 400

    def test_ratings_in_range(self):
        bg = movielens_like(40, 20, 300, seed=2)
        for _u, _i, r in bg.ratings():
            assert 0.0 <= r <= 5.0

    def test_popularity_skew(self):
        bg = movielens_like(100, 50, 1500, seed=3)
        counts = [0] * 50
        for _u, item, _r in bg.ratings():
            counts[item] += 1
        # Zipf-like: the most popular item far exceeds the median item.
        ordered = sorted(counts, reverse=True)
        assert ordered[0] > 3 * max(1, ordered[25])

    def test_deterministic(self):
        a = movielens_like(30, 20, 200, seed=4)
        b = movielens_like(30, 20, 200, seed=4)
        assert sorted(a.ratings()) == sorted(b.ratings())
