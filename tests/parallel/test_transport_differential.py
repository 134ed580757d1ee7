"""Differential suite: the queue transport == serial.

Message exchange must be observationally invisible: for every analytic
and worker count, a parallel run must produce byte-identical values,
supersteps, aggregators, and metrics counts to the serial engine —
including the online provenance-capture path.
"""

import pytest

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.analytics.wcc import WCC
from repro.core.ariadne import Ariadne
from repro.engine.config import EngineConfig
from repro.engine.engine import PregelEngine
from repro.graph.generators import grid_graph, web_graph, with_random_weights
from repro.parallel.engine import ParallelEngine

WORKER_COUNTS = (1, 2, 4)

ANALYTICS = {
    "pagerank": lambda: PageRank(num_supersteps=12).make_program(),
    "sssp": lambda: SSSP(source=0).make_program(),
    "wcc": lambda: WCC().make_program(),
}


@pytest.fixture(scope="module")
def wgraph():
    return with_random_weights(
        web_graph(110, avg_degree=4, target_diameter=8, seed=29), seed=29
    )


def _config(workers):
    return EngineConfig(num_workers=workers, backend="parallel")


def _run(graph, factory, workers):
    with ParallelEngine(graph, config=_config(workers)) as engine:
        return engine.run(factory())


def assert_identical(a, b):
    assert a.values == b.values
    assert a.num_supersteps == b.num_supersteps
    assert a.halt_reason == b.halt_reason
    assert a.aggregators == b.aggregators
    assert a.edge_values == b.edge_values


class TestRingEqualsQueueEqualsSerial:
    """Parallel runs over the queue transport equal serial runs. (The class
    keeps its name from when a shared-memory ring was a second transport.)"""

    @pytest.mark.parametrize("analytic", sorted(ANALYTICS))
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_three_way(self, wgraph, analytic, workers):
        factory = ANALYTICS[analytic]
        serial = PregelEngine(
            wgraph, config=EngineConfig(num_workers=workers)
        ).run(factory())
        queue = _run(wgraph, factory, workers)
        assert_identical(queue, serial)
        s = serial.metrics.summary()
        p = queue.metrics.summary()
        for key in ("supersteps", "vertex_executions", "messages",
                    "cross_worker_messages"):
            assert p[key] == s[key], (analytic, key)
        # pre-combining moves folds to the sender, never changes the
        # total: combined + precombined == serial combined
        assert (p["messages_combined"] + p["messages_precombined"]
                == s["messages_combined"]), analytic

    def test_transports_ship_same_wire_volume_shape(self, wgraph):
        # the wire volume is measured whenever messages cross workers,
        # and is nothing at 1 worker
        multi = _run(wgraph, ANALYTICS["sssp"], 4)
        solo = _run(wgraph, ANALYTICS["sssp"], 1)
        assert multi.metrics.summary()["network_bytes"] > 0
        assert solo.metrics.summary()["network_bytes"] == 0


class TestOnlineCaptureDifferential:
    def test_apt_query_identical(self):
        grid = grid_graph(8, 8)
        serial = Ariadne(grid, PageRank()).apt(epsilon=0.01)
        parallel = Ariadne(grid, PageRank(), _config(4)).apt(epsilon=0.01)
        assert parallel.values == serial.values
        assert parallel.query.relations() == serial.query.relations()
        for rel in serial.query.relations():
            assert parallel.query.rows(rel) == serial.query.rows(rel), rel
