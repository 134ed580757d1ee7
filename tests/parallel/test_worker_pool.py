"""Warm worker pool lifecycle and crash robustness.

The pool forks once per engine and re-initializes workers per run; the
master must survive anything a worker does — including being SIGKILLed
mid-superstep — without hanging, and vertex errors must still surface as
:class:`VertexProgramError` rather than transport collateral damage.
"""

import os
import signal
import threading
import time

import pytest

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.engine.config import EngineConfig
from repro.engine.engine import run_program
from repro.engine.vertex import FunctionProgram
from repro.errors import EngineError, VertexProgramError
from repro.graph.generators import web_graph, with_random_weights
from repro.parallel.engine import ParallelEngine


@pytest.fixture(scope="module")
def wgraph():
    return with_random_weights(
        web_graph(90, avg_degree=4, target_diameter=7, seed=31), seed=31
    )


def _engine(graph, workers=2, **cfg):
    config = EngineConfig(num_workers=workers, backend="parallel", **cfg)
    return ParallelEngine(graph, config=config)


def _pids(engine):
    return [p.pid for p in engine._pool.procs]


class TestWarmPool:
    def test_pids_stable_across_runs(self, wgraph):
        with _engine(wgraph) as engine:
            first = engine.run(SSSP(source=0).make_program())
            pids = _pids(engine)
            second = engine.run(SSSP(source=0).make_program())
            assert _pids(engine) == pids  # same fleet, no refork
            assert second.values == first.values

    def test_results_identical_cold_vs_warm(self, wgraph):
        serial = run_program(wgraph, PageRank(num_supersteps=8).make_program())
        with _engine(wgraph, workers=4) as engine:
            for _ in range(3):
                result = engine.run(PageRank(num_supersteps=8).make_program())
                assert result.values == serial.values

    def test_unpicklable_program_reforks(self, wgraph):
        """Closures can't be shipped via CMD_INIT; the pool is rebuilt so
        the fork-inherited copy is used instead — transparently."""
        with _engine(wgraph) as engine:
            bias = 0.5

            def make():
                return FunctionProgram(
                    lambda ctx, msgs: ctx.set_value(bias) or ctx.vote_to_halt()
                )

            engine.run(make())
            pids = _pids(engine)
            engine.run(make())
            assert _pids(engine) != pids  # refork, not a hang or crash

    def test_close_reaps_children(self, wgraph):
        engine = _engine(wgraph)
        engine.run(SSSP(source=0).make_program())
        procs = list(engine._pool.procs)
        engine.close()
        assert engine._pool is None
        deadline = time.monotonic() + 10
        while any(p.is_alive() for p in procs):
            assert time.monotonic() < deadline, "children not reaped"
            time.sleep(0.02)

    def test_context_manager_reaps(self, wgraph):
        with _engine(wgraph) as engine:
            engine.run(SSSP(source=0).make_program())
            procs = list(engine._pool.procs)
        assert not any(p.is_alive() for p in procs)


class TestErrorPaths:
    def test_vertex_error_not_masked_by_transport(self, wgraph):
        """A failing vertex poisons its peers' queues; peers die with
        transport errors — the master must still report the root cause."""
        def boom(ctx, msgs):
            if ctx.superstep == 2 and ctx.vertex_id == 7:
                raise ValueError("deliberate")
            ctx.send_to_all(1.0)

        with _engine(wgraph, workers=4) as engine:
            with pytest.raises(VertexProgramError) as info:
                engine.run(FunctionProgram(boom))
        assert info.value.vertex_id == 7
        assert info.value.superstep == 2

    def test_killed_worker_does_not_hang_master(self, wgraph):
        """SIGKILL mid-superstep: no error report, no poison marker — the
        master must detect the dead process and abort within its polling
        budget instead of blocking on the barrier forever."""
        def slow(ctx, msgs):
            time.sleep(0.002)
            ctx.send_to_all(1.0)

        engine = _engine(wgraph, workers=4)
        try:
            killed = threading.Event()

            def killer():
                deadline = time.monotonic() + 10
                while engine._pool is None and time.monotonic() < deadline:
                    time.sleep(0.005)
                time.sleep(0.1)  # let the run get into a superstep
                os.kill(engine._pool.procs[1].pid, signal.SIGKILL)
                killed.set()

            thread = threading.Thread(target=killer)
            thread.start()
            start = time.monotonic()
            with pytest.raises(EngineError, match="died without reporting"):
                engine.run(
                    FunctionProgram(slow), max_supersteps=2000
                )
            elapsed = time.monotonic() - start
            thread.join()
            assert killed.is_set()
            # well under PEER_WAIT_SECONDS: death detection, not the
            # transport deadline, ended the run
            assert elapsed < 20
        finally:
            engine.close()

    def test_fresh_run_after_crash(self, wgraph):
        """A crashed run must not wedge the engine: the next run reforks."""
        def boom(ctx, msgs):
            if ctx.superstep == 0:
                ctx.send_to_all(1)  # keep everyone active into superstep 1
                return
            if ctx.vertex_id == 3:
                raise RuntimeError("crash once")
            ctx.vote_to_halt()

        with _engine(wgraph) as engine:
            with pytest.raises(VertexProgramError):
                engine.run(FunctionProgram(boom))
            serial = run_program(wgraph, SSSP(source=0).make_program())
            result = engine.run(SSSP(source=0).make_program())
            assert result.values == serial.values
