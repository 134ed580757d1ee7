"""The engine's message counters, pinned exactly.

``messages``, ``cross_worker_messages`` and ``messages_combined`` of
PageRank, SSSP and WCC on one fixed web graph, at 1, 3 and 7 simulated
workers under hash partitioning, the only one (each test id names it).
The figures were recorded from the engine that counted every message in
its own send call; the send log
counts a broadcast's cross-worker messages from a per-vertex table and
the combined ones from the barrier's group-by, so any drift in either is a
changed number here.
"""

import pytest

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.analytics.wcc import WCC
from repro.engine.config import EngineConfig
from repro.engine.engine import PregelEngine
from repro.graph.generators import web_graph, with_random_weights

ANALYTICS = {
    "pagerank": lambda: PageRank(num_supersteps=10),  # send_to_all
    "sssp": lambda: SSSP(source=0),                   # weighted ctx.send
    "wcc": lambda: WCC(),                             # ctx.send both ways
}

# (analytic, workers) -> (messages, cross_worker_messages, messages_combined)
COUNTERS = {
    ("pagerank", 1): (5400, 0, 4329),
    ("pagerank", 3): (5400, 3744, 4329),
    ("pagerank", 7): (5400, 4653, 4329),
    ("sssp", 1): (1161, 0, 588),
    ("sssp", 3): (1161, 812, 588),
    ("sssp", 7): (1161, 1000, 588),
    ("wcc", 1): (4156, 0, 3559),
    ("wcc", 3): (4156, 2902, 3559),
    ("wcc", 7): (4156, 3582, 3559),
}


@pytest.fixture(scope="module")
def graph():
    return with_random_weights(
        web_graph(120, avg_degree=5, target_diameter=8, seed=5), seed=5)


@pytest.mark.parametrize("key", sorted(COUNTERS),
                         ids=lambda key: f"{key[0]}-hash-{key[1]}")
def test_counters(graph, key):
    analytic, workers = key
    config = EngineConfig(num_workers=workers)
    metrics = PregelEngine(graph, config).run(
        ANALYTICS[analytic]().make_program()).metrics
    assert (metrics.total_messages, metrics.total_cross_worker_messages,
            metrics.total_messages_combined) == COUNTERS[key]
