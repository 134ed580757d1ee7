"""Small deterministic graphs the tests build their cases on."""

from __future__ import annotations

import random

from repro.graph.digraph import DiGraph


def random_graph(num_vertices: int, num_edges: int, seed: int = 0) -> DiGraph:
    """Erdős–Rényi-style directed graph (uniform random edges)."""
    rng = random.Random(seed)
    g = DiGraph()
    for v in range(num_vertices):
        g.add_vertex(v)
    added = 0
    attempts = 0
    while added < num_edges and attempts < 20 * num_edges:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        attempts += 1
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
            added += 1
    return g


def grid_graph(rows: int, cols: int) -> DiGraph:
    """Directed grid (right/down edges); diameter = rows + cols - 2."""
    g = DiGraph()
    for r in range(rows):
        for c in range(cols):
            g.add_vertex(r * cols + c)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                g.add_edge(v, v + 1)
            if r + 1 < rows:
                g.add_edge(v, v + cols)
    return g


def star_graph(num_leaves: int, center: int = 0) -> DiGraph:
    """Center -> each leaf; the highest-degree-vertex workload of Table 4."""
    g = DiGraph()
    g.add_vertex(center)
    for leaf in range(1, num_leaves + 1):
        g.add_edge(center, leaf)
    return g
