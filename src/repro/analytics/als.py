"""Alternating Least Squares recommender on a bipartite ratings graph.

The paper runs ALS over MovieLens-20M represented as a bipartite graph where
an edge user-i -> movie-j carries rating w. Vertex values are latent feature
vectors. At every superstep only one side of the graph computes — it fixes
the other side's vectors (received as messages) and solves the regularized
normal equations

    (V^T V + lambda * I) u = V^T r

per vertex. When a vertex recomputes its vector it also records, per rated
edge, the predicted rating and the error ``rating - prediction`` as the edge
value ``(rating, prediction, error)`` — this is the provenance Query 7 and
Query 8 consume (``prov-error`` / ``prov-prediction``).

Convergence: a global RMSE aggregator; the run stops when the RMSE improves
by less than ``tolerance`` between rounds (paper: "ALS converges when the
error reaches an acceptable threshold").
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analytics.base import Analytic
from repro.engine.aggregators import Aggregator, sum_aggregator
from repro.engine.vertex import VertexContext, VertexProgram
from repro.graph.bipartite import BipartiteGraph


def _rating_of(edge_value: Any) -> float:
    """Edge values start as the raw rating and become (rating, pred, err)."""
    if isinstance(edge_value, tuple):
        return float(edge_value[0])
    return float(edge_value)


class ALSProgram(VertexProgram):
    """Vertex-centric ALS. Messages are ``(sender, feature_vector)``."""

    name = "als"

    def __init__(
        self,
        num_users: int,
        num_features: int = 5,
        regularization: float = 0.1,
        max_rounds: int = 10,
        tolerance: float = 1e-3,
        seed: int = 7,
    ) -> None:
        self.num_users = num_users
        self.num_features = num_features
        self.regularization = regularization
        # One "round" = both sides updated once = 2 supersteps.
        self.max_supersteps = 1 + 2 * max_rounds
        self.tolerance = tolerance
        self.seed = seed
        self._last_rmse: Optional[float] = None

    # -- setup -----------------------------------------------------------
    def is_item(self, vertex_id: int) -> bool:
        return vertex_id >= self.num_users

    def initial_value(self, vertex_id: Any, graph: Any) -> np.ndarray:
        rng = random.Random(self.seed * 1_000_003 + hash(vertex_id))
        scale = 1.0 / math.sqrt(self.num_features)
        return np.array(
            [rng.uniform(0.1, 1.0) * scale for _ in range(self.num_features)]
        )

    def aggregators(self) -> Dict[str, Aggregator]:
        return {
            "als.sq_error": sum_aggregator(),
            "als.num_ratings": sum_aggregator(),
        }

    # -- the solve -------------------------------------------------------
    def _solve(
        self,
        ctx: VertexContext,
        neighbor_vectors: Dict[Any, np.ndarray],
    ) -> np.ndarray:
        k = self.num_features
        a = self.regularization * np.eye(k)
        b = np.zeros(k)
        for target, edge_value in ctx.out_edges():
            vec = neighbor_vectors.get(target)
            if vec is None:
                continue
            rating = _rating_of(edge_value)
            a += np.outer(vec, vec)
            b += rating * vec
        try:
            return np.linalg.solve(a, b)
        except np.linalg.LinAlgError:  # pragma: no cover - lambda*I prevents
            return np.linalg.lstsq(a, b, rcond=None)[0]

    def _record_errors(
        self,
        ctx: VertexContext,
        vector: np.ndarray,
        neighbor_vectors: Dict[Any, np.ndarray],
    ) -> None:
        sq_error = 0.0
        n = 0
        for target, edge_value in ctx.out_edges():
            vec = neighbor_vectors.get(target)
            if vec is None:
                continue
            rating = _rating_of(edge_value)
            prediction = float(np.dot(vector, vec))
            error = rating - prediction
            ctx.set_edge_value(target, (rating, prediction, error))
            sq_error += error * error
            n += 1
        if n:
            ctx.aggregate("als.sq_error", sq_error)
            ctx.aggregate("als.num_ratings", n)

    # -- superstep logic ---------------------------------------------------
    def compute(
        self, ctx: VertexContext, messages: Sequence[Tuple[Any, np.ndarray]]
    ) -> None:
        step = ctx.superstep
        me_is_item = self.is_item(ctx.vertex_id)
        if step == 0:
            # Items kick off the alternation by broadcasting their vectors.
            if me_is_item:
                message = (ctx.vertex_id, ctx.value)
                for target, _ in ctx.out_edges():
                    ctx.send(target, message)
            ctx.vote_to_halt()
            return

        # After superstep 0, odd supersteps update users, even update items.
        users_turn = step % 2 == 1
        my_turn = users_turn != me_is_item
        if not my_turn or not messages:
            ctx.vote_to_halt()
            return

        neighbor_vectors = {sender: vec for sender, vec in messages}
        vector = self._solve(ctx, neighbor_vectors)
        ctx.set_value(vector)
        self._record_errors(ctx, vector, neighbor_vectors)
        if step < self.max_supersteps - 1:
            message = (ctx.vertex_id, vector)
            for target, _ in ctx.out_edges():
                ctx.send(target, message)
        ctx.vote_to_halt()

    def master_halt(self, aggregators: Any, superstep: int) -> bool:
        if superstep < 2:
            return False
        sq = aggregators.value("als.sq_error")
        n = aggregators.value("als.num_ratings")
        if not n:
            return False
        rmse = math.sqrt(sq / n)
        converged = (
            self._last_rmse is not None
            and abs(self._last_rmse - rmse) < self.tolerance
        )
        self._last_rmse = rmse
        return converged


class ALS(Analytic):
    """The ALS recommender analytic.

    The apt query compares successive feature vectors by euclidean distance
    (the paper parameterizes udf-diff per analytic).
    """

    name = "als"

    def __init__(
        self,
        bipartite: BipartiteGraph,
        num_features: int = 5,
        regularization: float = 0.1,
        max_rounds: int = 10,
        tolerance: float = 1e-3,
        seed: int = 7,
    ) -> None:
        self.bipartite = bipartite
        self.num_features = num_features
        self.regularization = regularization
        self.max_rounds = max_rounds
        self.tolerance = tolerance
        self.seed = seed
        self.name = f"als(k={num_features})"

    def make_program(self) -> ALSProgram:
        return ALSProgram(
            num_users=self.bipartite.num_users,
            num_features=self.num_features,
            regularization=self.regularization,
            max_rounds=self.max_rounds,
            tolerance=self.tolerance,
            seed=self.seed,
        )

    def value_diff(self, d1: Any, d2: Any) -> float:
        if d1 is None or d2 is None:
            return float("inf")
        a = np.asarray(d1, dtype=float)
        b = np.asarray(d2, dtype=float)
        return float(np.linalg.norm(a - b))

    def provenance_value(self, value: Any) -> Tuple[float, ...]:
        """Feature vectors are recorded as plain tuples in provenance."""
        if value is None:
            return ()
        return tuple(float(x) for x in np.asarray(value).ravel())


def rmse_of_run(aggregators: Dict[str, Any]) -> float:
    """Final global RMSE from an ALS run's aggregator values."""
    n = aggregators.get("als.num_ratings", 0)
    if not n:
        return float("nan")
    return math.sqrt(aggregators["als.sq_error"] / n)
