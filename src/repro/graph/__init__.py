"""Graph substrate: directed/bipartite graphs, generators, I/O and stats."""

from repro.graph.bipartite import BipartiteGraph
from repro.graph.digraph import DiGraph, from_edge_list
from repro.graph.generators import (
    chain_graph,
    grid_graph,
    movielens_like,
    random_graph,
    star_graph,
    web_graph,
    with_random_weights,
)
from repro.graph.io import read_edge_list, read_ratings, write_edge_list, write_ratings
from repro.graph.partition import HashPartitioner
from repro.graph.stats import (
    average_degree,
    bfs_levels,
    degree_histogram,
    estimate_average_diameter,
    max_degree_vertex,
    single_source_shortest_paths,
    weakly_connected_components,
)

__all__ = [
    "BipartiteGraph",
    "DiGraph",
    "from_edge_list",
    "chain_graph",
    "grid_graph",
    "movielens_like",
    "random_graph",
    "star_graph",
    "web_graph",
    "with_random_weights",
    "read_edge_list",
    "read_ratings",
    "write_edge_list",
    "write_ratings",
    "HashPartitioner",
    "average_degree",
    "bfs_levels",
    "degree_histogram",
    "estimate_average_diameter",
    "max_degree_vertex",
    "single_source_shortest_paths",
    "weakly_connected_components",
]
