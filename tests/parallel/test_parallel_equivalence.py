"""ParallelEngine vs PregelEngine equivalence.

The multiprocess backend must be a drop-in: byte-identical vertex values,
the same halting superstep and halt reason, checkpoint payloads the serial
engine can resume from, and metrics whose counts are *measured* across
real process boundaries yet equal to the serial engine's simulated ones.
"""

import pytest

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.analytics.wcc import WCC
from repro.engine.checkpoint import (
    CheckpointedEngine,
    latest_checkpoint,
    load_checkpoint,
    resume,
)
from repro.engine.config import EngineConfig
from repro.engine.engine import PregelEngine
from repro.graph.generators import (
    grid_graph,
    web_graph,
    with_random_weights,
)
from repro.graph.partition import HashPartitioner, RangePartitioner
from repro.parallel.engine import ParallelEngine

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def grid():
    return grid_graph(10, 10)


@pytest.fixture(scope="module")
def wgraph():
    return with_random_weights(
        web_graph(120, avg_degree=4, target_diameter=8, seed=17), seed=17
    )


def serial_run(graph, program_factory, **cfg):
    engine = PregelEngine(graph, config=EngineConfig(**cfg))
    return engine.run(program_factory())


def parallel_run(graph, program_factory, num_workers, partitioner=None, **cfg):
    config = EngineConfig(num_workers=num_workers, backend="parallel", **cfg)
    engine = ParallelEngine(graph, config=config, partitioner=partitioner)
    return engine.run(program_factory())


def assert_equivalent(serial, parallel):
    assert parallel.values == serial.values  # byte-identical, not approx
    assert parallel.num_supersteps == serial.num_supersteps
    assert parallel.halt_reason == serial.halt_reason
    assert parallel.aggregators == serial.aggregators
    assert parallel.edge_values == serial.edge_values
    s, p = serial.metrics.summary(), parallel.metrics.summary()
    for key in ("supersteps", "vertex_executions", "messages",
                "cross_worker_messages",
                "frontier_vertices", "skipped_vertices"):
        assert p[key] == s[key], key
    # pre-combining moves folds to the sender, never changes the total
    assert (p["messages_combined"] + p["messages_precombined"]
            == s["messages_combined"])


class TestAnalyticEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_pagerank(self, grid, workers):
        serial = serial_run(grid, lambda: PageRank(
            num_supersteps=15).make_program(), num_workers=workers)
        parallel = parallel_run(grid, lambda: PageRank(
            num_supersteps=15).make_program(), workers)
        assert_equivalent(serial, parallel)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_sssp(self, wgraph, workers):
        serial = serial_run(wgraph, lambda: SSSP(
            source=0).make_program(), num_workers=workers)
        parallel = parallel_run(wgraph, lambda: SSSP(
            source=0).make_program(), workers)
        assert_equivalent(serial, parallel)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_wcc(self, grid, workers):
        serial = serial_run(grid, lambda: WCC().make_program(),
                            num_workers=workers)
        parallel = parallel_run(grid, lambda: WCC().make_program(), workers)
        assert_equivalent(serial, parallel)


class TestCrossWorkerCounts:
    def test_measured_equals_simulated(self, grid):
        """The serial engine *simulates* shard crossings with the same
        partitioner; the parallel engine measures real ones. They agree."""
        serial = serial_run(grid, lambda: PageRank(
            num_supersteps=10).make_program(), num_workers=4)
        parallel = parallel_run(grid, lambda: PageRank(
            num_supersteps=10).make_program(), 4)
        assert (parallel.metrics.summary()["cross_worker_messages"]
                == serial.metrics.summary()["cross_worker_messages"])

    def test_network_bytes_measured_only_in_parallel(self, grid):
        serial = serial_run(grid, lambda: SSSP(source=0).make_program(),
                            num_workers=2)
        parallel = parallel_run(grid, lambda: SSSP(source=0).make_program(), 2)
        # serial never measures wire bytes: None, not a misleading 0
        assert serial.metrics.summary()["network_bytes"] is None
        assert parallel.metrics.summary()["network_bytes"] > 0

    def test_single_worker_ships_no_bytes(self, grid):
        parallel = parallel_run(grid, lambda: SSSP(source=0).make_program(), 1)
        summary = parallel.metrics.summary()
        assert summary["cross_worker_messages"] == 0
        assert summary["network_bytes"] == 0

    def test_precombine_only_on_associative_combiners(self, wgraph):
        # SSSP's MinCombiner is associative -> sender-side folds happen;
        # PageRank's SumCombiner is not (float addition) -> none allowed
        sssp = parallel_run(wgraph, lambda: SSSP(source=0).make_program(), 4)
        assert sssp.metrics.summary()["messages_precombined"] > 0
        pagerank = parallel_run(
            wgraph, lambda: PageRank(num_supersteps=12).make_program(), 4)
        assert pagerank.metrics.summary()["messages_precombined"] == 0


class TestPartitionerChoice:
    @pytest.mark.parametrize("workers", (2, 4))
    def test_range_partitioner_equivalence(self, wgraph, workers):
        serial = PregelEngine(
            wgraph,
            config=EngineConfig(num_workers=workers),
            partitioner=RangePartitioner(workers, wgraph.num_vertices),
        ).run(SSSP(source=0).make_program())
        parallel = parallel_run(
            wgraph, lambda: SSSP(source=0).make_program(), workers,
            partitioner=RangePartitioner(workers, wgraph.num_vertices),
        )
        assert_equivalent(serial, parallel)

    def test_partitioner_does_not_change_values(self, grid):
        by_hash = parallel_run(
            grid, lambda: PageRank(num_supersteps=8).make_program(), 3,
            partitioner=HashPartitioner(3))
        by_range = parallel_run(
            grid, lambda: PageRank(num_supersteps=8).make_program(), 3,
            partitioner=RangePartitioner(3, grid.num_vertices))
        assert by_hash.values == by_range.values

    def test_more_workers_than_vertices(self):
        """Empty shards are legal: workers with no vertices still take part
        in every barrier."""
        tiny = grid_graph(2, 2)  # 4 vertices
        serial = serial_run(tiny, lambda: WCC().make_program(), num_workers=6)
        parallel = parallel_run(tiny, lambda: WCC().make_program(), 6)
        assert_equivalent(serial, parallel)


class TestConfigParity:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_deterministic_delivery(self, wgraph, workers):
        """Uncombined, every message reaches ``compute`` in send order on
        both backends."""
        serial = serial_run(
            wgraph, lambda: SSSP(source=0).make_program(),
            num_workers=workers, use_combiner=False)
        parallel = parallel_run(
            wgraph, lambda: SSSP(source=0).make_program(), workers,
            use_combiner=False)
        assert_equivalent(serial, parallel)

    def test_max_supersteps_cutoff(self, grid):
        serial = PregelEngine(
            grid, config=EngineConfig(num_workers=2)
        ).run(PageRank(num_supersteps=20).make_program(), max_supersteps=5)
        parallel = ParallelEngine(
            grid, config=EngineConfig(num_workers=2, backend="parallel")
        ).run(PageRank(num_supersteps=20).make_program(), max_supersteps=5)
        assert_equivalent(serial, parallel)
        assert parallel.halt_reason == "max_supersteps"


class TestCheckpoints:
    """PageRank checkpoints carry receiver-combined float inboxes, the
    payload most sensitive to fold order."""

    def test_checkpoint_payloads_match_serial(self, wgraph, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        CheckpointedEngine(
            wgraph, str(serial_dir), interval=4,
            config=EngineConfig(num_workers=2),
        ).run(PageRank(num_supersteps=12).make_program())
        with ParallelEngine(
            wgraph, config=EngineConfig(num_workers=2, backend="parallel"),
            checkpoint_dir=str(parallel_dir), checkpoint_interval=4,
        ) as engine:
            engine.run(PageRank(num_supersteps=12).make_program())
        s = load_checkpoint(latest_checkpoint(str(serial_dir)))
        p = load_checkpoint(latest_checkpoint(str(parallel_dir)))
        assert p.superstep == s.superstep
        assert p.values == s.values
        assert p.halted == s.halted
        assert p.inbox == s.inbox

    def test_serial_resume_from_parallel_checkpoint(self, wgraph, tmp_path):
        full = serial_run(wgraph, lambda: PageRank(
            num_supersteps=12).make_program(), num_workers=2)
        with ParallelEngine(
            wgraph, config=EngineConfig(num_workers=2, backend="parallel"),
            checkpoint_dir=str(tmp_path), checkpoint_interval=5,
        ) as engine:
            engine.run(PageRank(num_supersteps=12).make_program())
        resumed = resume(
            wgraph, PageRank(num_supersteps=12).make_program(), str(tmp_path),
            config=EngineConfig(num_workers=2),
        )
        assert resumed.values == full.values
        assert resumed.halt_reason == full.halt_reason
        # the resumed engine only runs the post-checkpoint tail
        assert resumed.num_supersteps < full.num_supersteps
