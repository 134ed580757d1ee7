"""PageRank — exact power iteration and the approximate (thresholded) variant.

Exact PageRank is the Giraph library formulation: every vertex recomputes

    rank = (1 - d) + d * sum(incoming contributions)

each superstep for a fixed number of supersteps (the paper runs 20), with a
sum combiner on contributions. This is the *unnormalized* variant Giraph
ships (ranks average 1.0 rather than summing to 1.0) — it is what makes the
paper's absolute thresholds (apt epsilon = 0.01) and Table 5's rank medians
(~0.2) meaningful.

The approximate variant implements the optimization the paper's apt query
evaluates: a vertex re-sends its contribution only when its rank moved by
more than ``epsilon`` since it last sent. Receivers therefore cache the last
contribution seen per in-neighbor; stale cache entries are exactly the source
of the approximation error Table 5 measures. With ``epsilon = 0`` the variant
reproduces exact PageRank superstep by superstep.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.analytics.base import Analytic
from repro.engine.vertex import SumCombiner, VertexContext, VertexProgram

DAMPING = 0.85


class PageRankProgram(VertexProgram):
    """Classic fixed-iteration PageRank."""

    name = "pagerank"

    def __init__(self, num_supersteps: int = 20, damping: float = DAMPING):
        self.num_supersteps = num_supersteps
        self.damping = damping

    def initial_value(self, vertex_id: Any, graph: Any) -> float:
        return 1.0

    def combiner(self):
        return SumCombiner()

    def compute(self, ctx: VertexContext, messages: Sequence[float]) -> None:
        if ctx.superstep > 0:
            incoming = 0.0
            for m in messages:
                incoming += m
            ctx.set_value((1.0 - self.damping) + self.damping * incoming)
        if ctx.superstep < self.num_supersteps - 1:
            degree = ctx.out_degree()
            if degree:
                ctx.send_to_all(ctx.value / degree)
        else:
            ctx.vote_to_halt()


class _ApproxState:
    """Per-vertex state of approximate PageRank."""

    __slots__ = ("rank", "cache", "last_sent")

    def __init__(self, rank: float) -> None:
        self.rank = rank
        # in-neighbor id -> last contribution received from it
        self.cache: Dict[Any, float] = {}
        self.last_sent: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_ApproxState(rank={self.rank:.6f})"


class ApproximatePageRankProgram(VertexProgram):
    """PageRank that suppresses messages on small rank updates.

    Messages are ``(sender, contribution)`` pairs; no combiner (receivers
    need per-sender contributions to maintain their cache).
    """

    name = "pagerank-approx"

    def __init__(
        self,
        epsilon: float,
        num_supersteps: int = 20,
        damping: float = DAMPING,
    ) -> None:
        self.epsilon = epsilon
        self.num_supersteps = num_supersteps
        self.damping = damping

    def initial_value(self, vertex_id: Any, graph: Any) -> _ApproxState:
        return _ApproxState(1.0)

    def compute(
        self, ctx: VertexContext, messages: Sequence[Tuple[Any, float]]
    ) -> None:
        state: _ApproxState = ctx.value
        for sender, contribution in messages:
            state.cache[sender] = contribution
        if ctx.superstep > 0:
            state.rank = (1.0 - self.damping) + (
                self.damping * sum(state.cache.values())
            )
            ctx.set_value(state)
        if ctx.superstep >= self.num_supersteps - 1:
            ctx.vote_to_halt()
            return
        changed_enough = (
            state.last_sent is None
            or abs(state.rank - state.last_sent) > self.epsilon
        )
        if changed_enough:
            degree = ctx.out_degree()
            if degree:
                contribution = state.rank / degree
                me = ctx.vertex_id
                for target, _ in ctx.out_edges():
                    ctx.send(target, (me, contribution))
            state.last_sent = state.rank
        # Stay awake through superstep 1: the recurrence moves every rank
        # from its 1.0 initialization at superstep 1 even with no messages
        # (vertices without in-neighbors settle at 1 - damping), exactly as
        # the exact program does. From superstep 1 on, only messages can
        # change a rank, so message-driven reactivation is sufficient.
        if ctx.superstep >= 1:
            ctx.vote_to_halt()


class PageRank(Analytic):
    """The PageRank analytic (exact by default, approximate with epsilon)."""

    name = "pagerank"

    def __init__(
        self,
        num_supersteps: int = 20,
        epsilon: Optional[float] = None,
        damping: float = DAMPING,
    ) -> None:
        self.num_supersteps = num_supersteps
        self.epsilon = epsilon
        self.damping = damping
        if epsilon is not None:
            self.name = f"pagerank-approx(eps={epsilon})"

    def make_program(self) -> VertexProgram:
        if self.epsilon is None:
            return PageRankProgram(self.num_supersteps, self.damping)
        return ApproximatePageRankProgram(
            self.epsilon, self.num_supersteps, self.damping
        )

    def provenance_value(self, value: Any) -> float:
        if isinstance(value, _ApproxState):
            return value.rank
        return value
