"""The simulated worker count must never affect results — partitioning
changes message routing (and the cross-worker metric), nothing else."""

import pytest

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.analytics.wcc import WCC
from repro.engine.config import EngineConfig
from repro.engine.engine import PregelEngine
from repro.engine.vertex import FunctionProgram
from repro.graph.generators import grid_graph, web_graph, with_random_weights
from repro.graph.partition import stable_hash


@pytest.fixture(scope="module")
def wgraph():
    return with_random_weights(
        web_graph(200, avg_degree=6, target_diameter=10, seed=141), seed=141
    )


@pytest.mark.parametrize("workers", [1, 2, 7])
class TestWorkerCountInvariance:
    def test_sssp(self, wgraph, workers):
        one = PregelEngine(
            wgraph, config=EngineConfig(num_workers=1)
        ).run(SSSP(source=0).make_program())
        many = PregelEngine(
            wgraph, config=EngineConfig(num_workers=workers)
        ).run(SSSP(source=0).make_program())
        assert one.values == many.values
        assert one.num_supersteps == many.num_supersteps

    def test_pagerank_bitwise(self, wgraph, workers):
        one = PregelEngine(
            wgraph, config=EngineConfig(num_workers=1)
        ).run(PageRank(num_supersteps=10).make_program())
        many = PregelEngine(
            wgraph, config=EngineConfig(num_workers=workers)
        ).run(PageRank(num_supersteps=10).make_program())
        # message delivery order is identical, so floats match bitwise
        assert one.values == many.values

    def test_wcc(self, wgraph, workers):
        one = PregelEngine(
            wgraph, config=EngineConfig(num_workers=1)
        ).run(WCC().make_program())
        many = PregelEngine(
            wgraph, config=EngineConfig(num_workers=workers)
        ).run(WCC().make_program())
        assert one.values == many.values


class TestPartitionerChoice:
    def test_more_workers_than_vertices(self):
        """Empty partitions are legal: a worker with no vertices changes
        nothing."""
        tiny = grid_graph(2, 2)  # 4 vertices
        one = PregelEngine(tiny, config=EngineConfig(num_workers=1)).run(
            WCC().make_program())
        six = PregelEngine(tiny, config=EngineConfig(num_workers=6)).run(
            WCC().make_program())
        assert six.values == one.values
        assert six.metrics.total_messages == one.metrics.total_messages

    def test_cross_worker_traffic_varies_with_workers(self, wgraph):
        single = PregelEngine(
            wgraph, config=EngineConfig(num_workers=1)
        ).run(SSSP(source=0).make_program())
        multi = PregelEngine(
            wgraph, config=EngineConfig(num_workers=4)
        ).run(SSSP(source=0).make_program())
        assert single.metrics.total_cross_worker_messages == 0
        assert multi.metrics.total_cross_worker_messages > 0
        assert single.metrics.total_messages == multi.metrics.total_messages

    def test_hash_partitioning_is_honoured(self, wgraph):
        """The engine splits the vertices by ``stable_hash(id) mod
        workers`` (Giraph's default), so the cross-worker count is the one
        made by hand from that split."""

        def broadcast_once(ctx, messages):
            if ctx.superstep == 0:
                ctx.send_to_all(ctx.vertex_id)
            ctx.vote_to_halt()

        def worker(v):
            return stable_hash(v) % 3

        by_hand = sum(1 for u, v, _ in wgraph.edges() if worker(u) != worker(v))
        engine = PregelEngine(wgraph, config=EngineConfig(num_workers=3))
        run = engine.run(FunctionProgram(broadcast_once))
        assert run.metrics.total_messages == wgraph.num_edges
        assert run.metrics.total_cross_worker_messages == by_hand
