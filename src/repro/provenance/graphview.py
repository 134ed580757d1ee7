"""The unfolded provenance graph (Figure 3) and its layers (Definition 5.1).

The store keeps the compact representation — relation partitions per input
vertex, held layer by layer, so ``partition`` reads one vertex's rows across
every superstep; this module derives the unfolded view where a *node* is one
execution of a vertex — a ``(vertex, superstep)`` pair — connected by
*evolution* edges (same vertex, consecutive active supersteps) and *message*
edges (sender execution -> receiver execution).

The unfolded view is what the paper's layering theory is stated over; tests
verify that layer *i* equals the executions at superstep *i* and that
message edges always cross exactly one layer boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Tuple

from repro.errors import ProvenanceError
from repro.provenance.store import ProvenanceStore

ProvNode = Tuple[Any, int]  # (vertex, superstep)


@dataclass
class UnfoldedProvenanceGraph:
    """Nodes, annotated values, evolution edges and message edges."""

    nodes: Set[ProvNode] = field(default_factory=set)
    values: Dict[ProvNode, Any] = field(default_factory=dict)
    evolution_edges: Set[Tuple[ProvNode, ProvNode]] = field(default_factory=set)
    message_edges: Set[Tuple[ProvNode, ProvNode, Any]] = field(default_factory=set)

    @property
    def num_layers(self) -> int:
        if not self.nodes:
            return 0
        return max(s for _, s in self.nodes) + 1

    def layer(self, i: int) -> Set[ProvNode]:
        """Layer L_i: executions at superstep i (Definition 5.1 — the leaves
        of the graph with layers 0..i-1 removed)."""
        return {node for node in self.nodes if node[1] == i}

    def layers(self) -> List[Set[ProvNode]]:
        return [self.layer(i) for i in range(self.num_layers)]


def unfold(store: ProvenanceStore) -> UnfoldedProvenanceGraph:
    """Build the unfolded view from a captured store.

    Requires the ``superstep`` relation; ``value``, ``evolution`` and
    ``send_message``/``receive_message`` enrich the view when captured.
    """
    if not store.has_relation("superstep"):
        raise ProvenanceError(
            "unfolding requires the 'superstep' relation to be captured"
        )
    g = UnfoldedProvenanceGraph()
    for x, i in store.rows("superstep"):
        g.nodes.add((x, i))
    if store.has_relation("value"):
        for x, d, i in store.rows("value"):
            g.nodes.add((x, i))
            g.values[(x, i)] = d
    if store.has_relation("evolution"):
        for x, j, i in store.rows("evolution"):
            g.evolution_edges.add(((x, j), (x, i)))
    # A message sent by y at superstep i is received by x at i + 1; either
    # side of the exchange suffices to reconstruct the edge.
    if store.has_relation("send_message"):
        for x, y, m, i in store.rows("send_message"):
            g.message_edges.add(((x, i), (y, i + 1), m))
    if store.has_relation("receive_message"):
        for x, y, m, i in store.rows("receive_message"):
            g.message_edges.add(((y, i - 1), (x, i), m))
    return g
