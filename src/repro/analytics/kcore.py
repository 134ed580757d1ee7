"""k-core decomposition — an additional vertex-centric analytic.

Computes each vertex's *coreness* by iterated peeling over undirected
adjacency, following the distributed h-index formulation (Montresor et al.):
every vertex repeatedly sets its core estimate to the h-index of its
neighbors' estimates (the largest h such that at least h neighbors have
estimate >= h), starting from its degree. The estimates decrease
monotonically to the true coreness — which makes the analytic a natural fit
for Ariadne's monotonicity checks (Query 5).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.analytics.base import Analytic
from repro.engine.vertex import VertexContext, VertexProgram


def h_index(values: Sequence[int]) -> int:
    """Largest h such that at least h of ``values`` are >= h."""
    counts = sorted(values, reverse=True)
    h = 0
    for rank, value in enumerate(counts, start=1):
        if value >= rank:
            h = rank
        else:
            break
    return h


class KCoreProgram(VertexProgram):
    """Distributed coreness via repeated neighbor h-index."""

    name = "kcore"

    def __init__(self, max_rounds: int = 50):
        self.max_rounds = max_rounds

    def initial_value(self, vertex_id: Any, graph: Any) -> int:
        return len(
            set(graph.out_neighbors(vertex_id))
            | set(graph.in_neighbors(vertex_id))
        )

    def _neighbors(self, ctx: VertexContext) -> List[Any]:
        return list({t for t, _ in ctx.out_edges()} | set(ctx.in_neighbors()))

    def _broadcast(self, ctx: VertexContext, estimate: int) -> None:
        message = (ctx.vertex_id, estimate)
        for target in self._neighbors(ctx):
            ctx.send(target, message)

    def compute(self, ctx: VertexContext, messages: Sequence[Any]) -> None:
        if ctx.superstep == 0:
            # per-vertex cache of neighbor estimates, kept in the value as
            # (estimate, cache) after the first superstep
            self._broadcast(ctx, ctx.value)
            ctx.set_value((ctx.value, {}))
            ctx.vote_to_halt()
            return
        if ctx.superstep > self.max_rounds:
            ctx.vote_to_halt()
            return
        estimate, cache = ctx.value
        for sender, value in messages:
            cache[sender] = value
        if cache:
            new_estimate = min(estimate, h_index(list(cache.values())))
            if new_estimate < estimate:
                ctx.set_value((new_estimate, cache))
                self._broadcast(ctx, new_estimate)
            else:
                ctx.set_value((estimate, cache))
        ctx.vote_to_halt()


class KCore(Analytic):
    """Coreness computation; vertex value converges down to the coreness."""

    name = "kcore"

    def __init__(self, max_rounds: int = 50):
        self.max_rounds = max_rounds

    def make_program(self) -> KCoreProgram:
        return KCoreProgram(self.max_rounds)

    def provenance_value(self, value: Any) -> int:
        if isinstance(value, tuple):
            return int(value[0])
        return int(value)

    def coreness(self, values: Dict[Any, Any]) -> Dict[Any, int]:
        return {v: self.provenance_value(val) for v, val in values.items()}
