"""Unit tests for edge-list I/O."""

import pytest

from repro.errors import GraphError
from repro.graph.generators import web_graph, with_random_weights
from repro.graph.io import read_edge_list, write_edge_list


class TestEdgeListIO:
    def test_roundtrip_unweighted(self, tmp_path):
        g = web_graph(100, avg_degree=4, seed=1)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.num_edges == g.num_edges
        assert sorted((u, v) for u, v, _ in back.edges()) == sorted(
            (u, v) for u, v, _ in g.edges()
        )

    def test_roundtrip_weighted(self, tmp_path):
        g = with_random_weights(web_graph(50, avg_degree=4, seed=2), seed=2)
        path = tmp_path / "g.txt"
        write_edge_list(g, path, weighted=True)
        back = read_edge_list(path, weighted=True)
        for u, v, w in g.edges():
            assert back.edge_value(u, v) == pytest.approx(w)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n% another\n\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(GraphError, match="expected"):
            read_edge_list(path)

    def test_weighted_needs_three_columns(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n")
        with pytest.raises(GraphError):
            read_edge_list(path, weighted=True)

