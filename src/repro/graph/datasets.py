"""Registry of the paper's datasets at reproducible synthetic scale.

Table 2 of the paper:

======= ====== ===== =========== ============
Dataset |V|    |E|   Avg Degree  Avg Diameter
======= ====== ===== =========== ============
IN-04   7.4M   194M  26.17       28.12
UK-02   18.5M  298M  16.01       21.59
AR-05   22.7M  640M  28.14       22.39
UK-05   39.5M  936M  23.73       23.19
ML-20   16.5K  20M   121         1
======= ====== ===== =========== ============

Real crawls are multi-GB and unavailable offline, so each spec records the
paper's numbers and generates a synthetic stand-in scaled down by
``scale`` (default 1/4000 for the web graphs) that preserves average degree
and diameter. Benchmarks can shrink further via the ``REPRO_SCALE``
environment variable (a multiplier on the default vertex counts).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.graph.bipartite import BipartiteGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import movielens_like, web_graph, with_random_weights

DEFAULT_WEB_SCALE = 1.0 / 4000.0


@dataclass(frozen=True)
class WebDatasetSpec:
    """One row of Table 2 (web graphs) plus generation parameters."""

    name: str
    paper_vertices: int
    paper_edges: int
    paper_avg_degree: float
    paper_avg_diameter: float
    paper_input_gb: float
    seed: int

    def scaled_vertices(self, scale: float = DEFAULT_WEB_SCALE) -> int:
        return max(64, int(self.paper_vertices * scale))

    def generate(self, scale: float = DEFAULT_WEB_SCALE) -> DiGraph:
        """Generate the synthetic stand-in at ``scale``."""
        return web_graph(
            num_vertices=self.scaled_vertices(scale),
            avg_degree=self.paper_avg_degree,
            target_diameter=int(round(self.paper_avg_diameter)),
            seed=self.seed,
        )

    def generate_weighted(self, scale: float = DEFAULT_WEB_SCALE) -> DiGraph:
        """Stand-in with uniform 0-1 edge weights (the paper's SSSP setup)."""
        return with_random_weights(self.generate(scale), 0.0, 1.0, seed=self.seed)


@dataclass(frozen=True)
class RatingsDatasetSpec:
    """The MovieLens row of Table 2 plus generation parameters.

    Scaling a bipartite ratings graph cannot preserve both the user/item
    ratio and the per-user rating density (a user cannot rate more items
    than exist), so we scale users linearly, items by sqrt(scale), and keep
    the paper's ~144 ratings/user density capped at a 30% fill rate.
    """

    name: str
    paper_users: int
    paper_items: int
    paper_ratings: int
    seed: int

    def generate(
        self, num_features: int = 5, scale: float = 1.0 / 500.0
    ) -> BipartiteGraph:
        import math

        users = max(32, int(self.paper_users * scale))
        items = max(16, int(self.paper_items * math.sqrt(scale)))
        density = self.paper_ratings / self.paper_users
        ratings = int(min(users * density, 0.3 * users * items))
        return movielens_like(
            num_users=users,
            num_items=items,
            num_ratings=max(users * 4, ratings),
            num_features=num_features,
            seed=self.seed,
        )


WEB_DATASETS: Dict[str, WebDatasetSpec] = {
    "IN-04": WebDatasetSpec("IN-04", 7_400_000, 194_000_000, 26.17, 28.12, 4.1, 104),
    "UK-02": WebDatasetSpec("UK-02", 18_500_000, 298_000_000, 16.01, 21.59, 6.5, 202),
    "AR-05": WebDatasetSpec("AR-05", 22_700_000, 640_000_000, 28.14, 22.39, 13.8, 305),
    "UK-05": WebDatasetSpec("UK-05", 39_500_000, 936_000_000, 23.73, 23.19, 20.5, 405),
}

ML_20 = RatingsDatasetSpec("ML-20", 138_493, 26_744, 20_000_000, seed=20)

WEB_DATASET_ORDER: List[str] = ["IN-04", "UK-02", "AR-05", "UK-05"]


def env_scale(default: float = 1.0) -> float:
    """Benchmark-size multiplier from the ``REPRO_SCALE`` env var."""
    raw = os.environ.get("REPRO_SCALE")
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value > 0 else default


def load_web_dataset(
    name: str, scale: Optional[float] = None, weighted: bool = False
) -> DiGraph:
    """Generate the synthetic stand-in for dataset ``name`` (e.g. 'UK-02')."""
    spec = WEB_DATASETS[name]
    if scale is None:
        scale = DEFAULT_WEB_SCALE * env_scale()
    if weighted:
        return spec.generate_weighted(scale)
    return spec.generate(scale)

