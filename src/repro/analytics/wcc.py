"""Weakly Connected Components by minimum-label propagation.

Each vertex starts with its own id as label and repeatedly adopts the
minimum label heard from any neighbor, treating edges as undirected (the
standard Giraph WCC). The approximate variant suppresses propagation when
the label improved by no more than ``epsilon`` — the paper uses epsilon = 1
to demonstrate via the apt query that WCC can *not* be safely approximated
(every suppressed vertex is "unsafe"), and indeed the optimized run is badly
wrong (normalized error ~0.9).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.analytics.base import Analytic
from repro.engine.vertex import MinCombiner, VertexContext, VertexProgram


class WCCProgram(VertexProgram):
    """Min-label propagation over undirected edges."""

    name = "wcc"

    def __init__(self, epsilon: float = 0.0):
        # Minimum label improvement required before propagating; 0 = exact.
        self.epsilon = epsilon

    def initial_value(self, vertex_id: Any, graph: Any) -> Any:
        return vertex_id

    def combiner(self):
        return MinCombiner()

    def _broadcast(self, ctx: VertexContext, label: Any) -> None:
        sent: set = set()
        for target, _ in ctx.out_edges():
            if target not in sent:
                sent.add(target)
                ctx.send(target, label)
        for target in ctx.in_neighbors():
            if target not in sent:
                sent.add(target)
                ctx.send(target, label)

    def compute(self, ctx: VertexContext, messages: Sequence[Any]) -> None:
        if ctx.superstep == 0:
            self._broadcast(ctx, ctx.value)
            ctx.vote_to_halt()
            return
        best = ctx.value
        for m in messages:
            if m < best:
                best = m
        if best < ctx.value:
            improvement = ctx.value - best
            ctx.set_value(best)
            if improvement > self.epsilon:
                self._broadcast(ctx, best)
        ctx.vote_to_halt()


class WCC(Analytic):
    """Weakly connected components (exact, or approximate with epsilon)."""

    name = "wcc"

    def __init__(self, epsilon: float = 0.0):
        self.epsilon = epsilon
        if epsilon > 0.0:
            self.name = f"wcc-approx(eps={epsilon})"

    def make_program(self) -> VertexProgram:
        return WCCProgram(self.epsilon)
