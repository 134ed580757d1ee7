"""Single-Source Shortest Paths (Algorithm 2 of the paper) and its
approximate variant.

Exact SSSP: a vertex updates its distance to the minimum of its current
distance and the received candidates, and on improvement relaxes its
out-edges. Terminates when no more messages flow. Min combiner.

Approximate SSSP suppresses the relaxation messages when the improvement is
smaller than ``epsilon`` — vertices downstream then keep slightly stale
distances, producing the ~1e-2 relative L1 error Table 6 reports for
epsilon = 0.1 on 0-1-weighted graphs.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from repro.analytics.base import Analytic
from repro.engine.vertex import MinCombiner, VertexContext, VertexProgram

INFINITY = math.inf


class SSSPProgram(VertexProgram):
    """Exact single-source shortest paths."""

    name = "sssp"

    def __init__(self, source: Any, epsilon: float = 0.0):
        self.source = source
        # Minimum improvement required before relaxing out-edges.
        # 0.0 = exact; > 0 = the paper's approximate optimization.
        self.epsilon = epsilon

    def initial_value(self, vertex_id: Any, graph: Any) -> float:
        return INFINITY

    def combiner(self):
        return MinCombiner()

    def compute(self, ctx: VertexContext, messages: Sequence[float]) -> None:
        if ctx.superstep == 0 and ctx.vertex_id == self.source:
            candidate = 0.0
        else:
            candidate = INFINITY
        for m in messages:
            if m < candidate:
                candidate = m
        current = ctx.value
        if candidate < current:
            improvement = current - candidate
            ctx.set_value(candidate)
            # Exact mode always relaxes; approximate mode only on a large
            # update (the optimization the apt query evaluates).
            if improvement > self.epsilon or ctx.superstep == 0:
                for target, weight in ctx.out_edges():
                    w = 1.0 if weight is None else float(weight)
                    ctx.send(target, candidate + w)
        ctx.vote_to_halt()


class SSSP(Analytic):
    """The SSSP analytic (exact by default, approximate with epsilon > 0)."""

    name = "sssp"

    def __init__(self, source: Any = 0, epsilon: float = 0.0):
        self.source = source
        self.epsilon = epsilon
        if epsilon > 0.0:
            self.name = f"sssp-approx(eps={epsilon})"

    def make_program(self) -> VertexProgram:
        return SSSPProgram(self.source, self.epsilon)
