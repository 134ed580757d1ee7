"""The engine's message counters, pinned exactly.

``messages``, ``cross_worker_messages`` and ``messages_combined`` of
PageRank, SSSP and WCC on one fixed web graph, at 1, 3 and 7 simulated
workers under both partitioners. The figures were recorded from the
engine that counted every message in its own send call; the send log
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

# (analytic, partitioner, workers) -> (messages, cross_worker_messages,
# messages_combined)
COUNTERS = {
    ("pagerank", "hash", 1): (5400, 0, 4329),
    ("pagerank", "hash", 3): (5400, 3744, 4329),
    ("pagerank", "hash", 7): (5400, 4653, 4329),
    ("pagerank", "range", 1): (5400, 0, 4329),
    ("pagerank", "range", 3): (5400, 3510, 4329),
    ("pagerank", "range", 7): (5400, 4599, 4329),
    ("sssp", "hash", 1): (1161, 0, 588),
    ("sssp", "hash", 3): (1161, 812, 588),
    ("sssp", "hash", 7): (1161, 1000, 588),
    ("sssp", "range", 1): (1161, 0, 588),
    ("sssp", "range", 3): (1161, 764, 588),
    ("sssp", "range", 7): (1161, 986, 588),
    ("wcc", "hash", 1): (4156, 0, 3559),
    ("wcc", "hash", 3): (4156, 2902, 3559),
    ("wcc", "hash", 7): (4156, 3582, 3559),
    ("wcc", "range", 1): (4156, 0, 3559),
    ("wcc", "range", 3): (4156, 2701, 3559),
    ("wcc", "range", 7): (4156, 3533, 3559),
}


@pytest.fixture(scope="module")
def graph():
    return with_random_weights(
        web_graph(120, avg_degree=5, target_diameter=8, seed=5), seed=5)


@pytest.mark.parametrize("key", sorted(COUNTERS),
                         ids=lambda key: "-".join(map(str, key)))
def test_counters(graph, key):
    analytic, partitioner, workers = key
    config = EngineConfig(num_workers=workers, partitioner=partitioner)
    metrics = PregelEngine(graph, config).run(
        ANALYTICS[analytic]().make_program()).metrics
    assert (metrics.total_messages, metrics.total_cross_worker_messages,
            metrics.total_messages_combined) == COUNTERS[key]
