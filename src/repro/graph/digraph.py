"""Directed graph with optional edge values.

This is the input-graph substrate the vertex-centric engine loads. It is a
deliberately simple adjacency-list structure tuned for the access patterns a
Pregel-style engine needs:

* iterate a vertex's out-edges (every superstep),
* look up in-neighbors (WCC treats the graph as undirected; PQL Query 4
  computes in-degrees),
* cheap vertex/edge counts and degree queries.

Vertex ids may be any hashable value; the library and benchmarks use ints.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import GraphError

VertexId = Hashable
Edge = Tuple[VertexId, VertexId]


class DiGraph:
    """A mutable directed graph with per-edge values.

    Parallel edges are not supported: adding an edge that already exists
    overwrites its value. Self-loops are allowed (PageRank on web graphs
    encounters them).
    """

    def __init__(self) -> None:
        # vertex -> list of (target, value); list keeps iteration cheap and
        # deterministic (insertion order), which matters for reproducibility.
        self._out: Dict[VertexId, List[Tuple[VertexId, Any]]] = {}
        # vertex -> position index into _out[u] for O(1) overwrite.
        self._out_index: Dict[VertexId, Dict[VertexId, int]] = {}
        self._in: Dict[VertexId, List[VertexId]] = {}
        self._num_edges = 0
        # Cached vertex -> canonical position map; rebuilt lazily whenever
        # the vertex count changed since it was last materialized.
        self._order_cache: Optional[Dict[VertexId, int]] = None
        # Cached vertex -> out-neighbor list, dropped by any added vertex/edge.
        self._targets_cache: Optional[Dict[VertexId, List[VertexId]]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: VertexId) -> None:
        """Add an isolated vertex (no-op if present)."""
        if v not in self._out:
            self._targets_cache = None
            self._out[v] = []
            self._out_index[v] = {}
            self._in[v] = []

    def add_edge(self, u: VertexId, v: VertexId, value: Any = None) -> None:
        """Add edge ``u -> v`` carrying ``value``; overwrite if present."""
        self.add_vertex(u)
        self.add_vertex(v)
        index = self._out_index[u]
        pos = index.get(v)
        if pos is None:
            self._targets_cache = None
            index[v] = len(self._out[u])
            self._out[u].append((v, value))
            self._in[v].append(u)
            self._num_edges += 1
        else:
            self._out[u][pos] = (v, value)

    def add_edges(self, edges: Iterable[Tuple[VertexId, VertexId]]) -> None:
        """Bulk-add unweighted edges."""
        for u, v in edges:
            self.add_edge(u, v)

    def set_edge_value(self, u: VertexId, v: VertexId, value: Any) -> None:
        """Set the value of an existing edge, raising if it is absent."""
        try:
            pos = self._out_index[u][v]
        except KeyError:
            raise GraphError(f"edge {u!r} -> {v!r} does not exist") from None
        self._out[u][pos] = (v, value)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __contains__(self, v: VertexId) -> bool:
        return v in self._out

    def __len__(self) -> int:
        return len(self._out)

    @property
    def num_vertices(self) -> int:
        return len(self._out)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> Iterator[VertexId]:
        return iter(self._out)

    def edges(self) -> Iterator[Tuple[VertexId, VertexId, Any]]:
        """Iterate ``(u, v, value)`` triples in deterministic order."""
        for u, targets in self._out.items():
            for v, value in targets:
                yield u, v, value

    def out_edges(self, v: VertexId) -> List[Tuple[VertexId, Any]]:
        """Out-edges of ``v`` as ``(target, value)`` pairs."""
        try:
            return self._out[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def out_edges_map(self) -> Dict[VertexId, List[Tuple[VertexId, Any]]]:
        """The live ``vertex -> out-edge-list`` adjacency mapping.

        Engine hot loops grab this once per run and index it directly,
        skipping the per-call method dispatch and error translation of
        :meth:`out_edges` for the overlay-free common case. Callers must
        treat the mapping and its lists as read-only.
        """
        return self._out

    def vertex_order(self) -> Dict[VertexId, int]:
        """Cached ``vertex -> canonical position`` map (insertion order).

        The engine's frontier scheduler sorts each superstep's active set
        with this key, so a partial frontier is computed in exactly the
        order a full scan over :meth:`vertices` would produce — the
        property that keeps frontier-scheduled runs byte-identical to
        full scans. Vertices are never removed, so a stale cache is
        detected by a simple length check.
        """
        order = self._order_cache
        if order is None or len(order) != len(self._out):
            order = {v: i for i, v in enumerate(self._out)}
            self._order_cache = order
        return order

    def out_targets(self) -> Dict[VertexId, List[VertexId]]:
        """Cached ``vertex -> out-neighbor list`` map, in out-edge order
        (the engine's broadcasts extend the send log by it). Read-only."""
        targets = self._targets_cache
        if targets is None:
            targets = {v: [t for t, _ in out] for v, out in self._out.items()}
            self._targets_cache = targets
        return targets

    def out_neighbors(self, v: VertexId) -> List[VertexId]:
        return [t for t, _ in self.out_edges(v)]

    def in_neighbors(self, v: VertexId) -> List[VertexId]:
        try:
            return self._in[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def edge_value(self, u: VertexId, v: VertexId) -> Any:
        try:
            pos = self._out_index[u][v]
        except KeyError:
            raise GraphError(f"edge {u!r} -> {v!r} does not exist") from None
        return self._out[u][pos][1]

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        index = self._out_index.get(u)
        return index is not None and v in index

    def out_degree(self, v: VertexId) -> int:
        return len(self.out_edges(v))

    def in_degree(self, v: VertexId) -> int:
        return len(self.in_neighbors(v))

    def degree(self, v: VertexId) -> int:
        """Total degree (in + out)."""
        return self.out_degree(v) + self.in_degree(v)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def reversed(self) -> "DiGraph":
        """Return a new graph with every edge direction flipped."""
        rev = DiGraph()
        for v in self.vertices():
            rev.add_vertex(v)
        for u, v, value in self.edges():
            rev.add_edge(v, u, value)
        return rev

    def subgraph(self, keep: Iterable[VertexId]) -> "DiGraph":
        """Induced subgraph on ``keep`` (vertices and edges among them)."""
        keep_set = set(keep)
        sub = DiGraph()
        for v in keep_set:
            if v in self:
                sub.add_vertex(v)
        for u, v, value in self.edges():
            if u in keep_set and v in keep_set:
                sub.add_edge(u, v, value)
        return sub

    def copy(self) -> "DiGraph":
        dup = DiGraph()
        for v in self.vertices():
            dup.add_vertex(v)
        for u, v, value in self.edges():
            dup.add_edge(u, v, value)
        return dup

    def map_edge_values(self, fn) -> "DiGraph":
        """Return a copy with each edge value replaced by ``fn(u, v, value)``."""
        dup = DiGraph()
        for v in self.vertices():
            dup.add_vertex(v)
        for u, v, value in self.edges():
            dup.add_edge(u, v, fn(u, v, value))
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiGraph(|V|={self.num_vertices}, |E|={self.num_edges})"


def from_edge_list(
    edges: Iterable[Tuple[VertexId, VertexId]],
    vertices: Optional[Iterable[VertexId]] = None,
) -> DiGraph:
    """Build a :class:`DiGraph` from an iterable of (u, v) pairs."""
    g = DiGraph()
    if vertices is not None:
        for v in vertices:
            g.add_vertex(v)
    g.add_edges(edges)
    return g
