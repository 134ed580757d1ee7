"""Provenance capture and online queries on the multiprocess backend.

The capture wrapper rides along unchanged: each worker evaluates the query
over its shard (piggybacked tables serialize with the payload), and the
master merges derived rows deterministically. Everything observable — vertex
values, query rows, run statistics, persisted store contents — must match
the serial backend exactly.
"""

import pytest

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.core.ariadne import Ariadne
from repro.engine.config import EngineConfig
from repro.graph.generators import grid_graph, web_graph, with_random_weights

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def grid():
    return grid_graph(8, 8)


@pytest.fixture(scope="module")
def wgraph():
    return with_random_weights(
        web_graph(80, avg_degree=4, target_diameter=6, seed=23), seed=23
    )


def _config(workers):
    return EngineConfig(num_workers=workers, backend="parallel")


def _query_equal(a, b):
    assert a.relations() == b.relations()
    for rel in a.relations():
        assert a.rows(rel) == b.rows(rel), rel
    assert a.derivations == b.derivations
    assert a.supersteps == b.supersteps


class TestOnlineQuery:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_apt_query1(self, grid, workers):
        """The paper's motivating Query 1 (apt), evaluated online."""
        serial = Ariadne(grid, PageRank()).apt(epsilon=0.01)
        parallel = Ariadne(grid, PageRank(), _config(workers)).apt(
            epsilon=0.01)
        assert parallel.values == serial.values
        _query_equal(parallel.query, serial.query)

    @pytest.mark.parametrize("workers", (2, 4))
    def test_stats_match(self, grid, workers):
        serial = Ariadne(grid, PageRank()).apt(epsilon=0.01)
        parallel = Ariadne(grid, PageRank(), _config(workers)).apt(
            epsilon=0.01)
        # wall times, and the evaluator's per-process program runs (each
        # worker runs every rule over its own shard); every other count
        # matches
        skip = {"query_seconds", "kernel_seconds", "batched_scans",
                "rules_vectorized", "rules_fallback", "fallback_reasons"}
        s = {k: v for k, v in serial.query.stats.items() if k not in skip}
        p = {k: v for k, v in parallel.query.stats.items() if k not in skip}
        assert p == s

    def test_monitoring_query_sssp(self, wgraph):
        serial = Ariadne(wgraph, SSSP(source=0)).query_online(
            "got(X, I) :- receive_message(X, Y, M, I).")
        parallel = Ariadne(wgraph, SSSP(source=0), _config(2)).query_online(
            "got(X, I) :- receive_message(X, Y, M, I).")
        assert parallel.values == serial.values
        _query_equal(parallel.query, serial.query)


class TestCapture:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_capture_store_identical(self, grid, workers):
        serial = Ariadne(grid, PageRank()).capture()
        parallel = Ariadne(grid, PageRank(), _config(workers)).capture()
        assert parallel.values == serial.values
        _query_equal(parallel.query, serial.query)
        assert parallel.store is not None
        assert parallel.store.num_rows == serial.store.num_rows
        assert parallel.store.counts() == serial.store.counts()
        assert parallel.store.relation_bytes() == serial.store.relation_bytes()
        assert parallel.store.num_layers == serial.store.num_layers
        for rel in serial.store.relations():
            for v in grid.vertices():
                assert (parallel.store.partition(rel, v)
                        == serial.store.partition(rel, v)), (rel, v)

    def test_offline_query_over_parallel_capture(self, grid):
        """A store captured in parallel answers offline queries exactly as
        one captured serially."""
        ariadne_s = Ariadne(grid, PageRank())
        ariadne_p = Ariadne(grid, PageRank(), _config(2))
        store_s = ariadne_s.capture().store
        store_p = ariadne_p.capture().store
        off_s = ariadne_s.apt(epsilon=0.01, mode="layered", store=store_s)
        off_p = ariadne_p.apt(epsilon=0.01, mode="layered", store=store_p)
        _query_equal(off_p, off_s)


def _udf_diff(d1, d2, eps):
    """Module-level (so the wrapper pickles) stand-in for apt's udf_diff."""
    return abs(d1 - d2) < eps


class TestWarmPoolReinit:
    def test_query1_twice_on_one_warm_pool(self, grid):
        """First run: workers inherit the wrapper (and its layer programs)
        by fork. Second run: the same pool is re-initialized with a pickled
        wrapper, which must carry no program or generated function and
        rebuild them in the worker — rows stay byte-identical to serial."""
        import pickle

        from repro.core import queries as Q
        from repro.engine.engine import PregelEngine
        from repro.parallel.engine import ParallelEngine
        from repro.pql.udf import FunctionRegistry
        from repro.runtime.online import (
            OnlineQueryProgram, _as_program, _compile,
        )

        functions = FunctionRegistry({"udf_diff": _udf_diff})
        compiled = _compile(Q.APT_QUERY, functions, {"eps": 0.01})

        def wrapper():
            program, projector = _as_program(PageRank())
            wrapped = OnlineQueryProgram(
                program, compiled, functions, grid,
                value_projector=projector, eager_seal=False,
            )
            wrapped.run_setup()
            return wrapped

        def rows(wrapped):
            derived = wrapped.db.derived
            return {
                rel: sorted(derived.all_rows(rel))
                for rel in sorted(derived.relations())
            }

        config = EngineConfig(use_combiner=False)
        serial = wrapper()
        expected = PregelEngine(grid, config=config).run(serial)
        assert rows(serial)["safe"]  # the query derives something

        # the memo is warm ...
        assert all(c.compiled or c.layer_programs for c in compiled.rules)
        blob = pickle.dumps(wrapper())
        assert b"pql-codegen" not in blob  # ... and stays out of the blob
        clone = pickle.loads(blob)
        assert all(not c.compiled and not c.layer_programs
                   for c in clone.compiled.rules)
        assert all(
            not c.compiled and not c.layer_programs
            for stratum, _ in clone._prepared for c in stratum
        )

        parallel = EngineConfig(
            num_workers=2, backend="parallel", use_combiner=False
        )
        with ParallelEngine(grid, config=parallel) as engine:
            first = wrapper()
            inherited = engine.run(first)
            pids = [p.pid for p in engine._pool.procs]
            second = wrapper()
            shipped = engine.run(second)
            # same fleet: the second wrapper went over as a CMD_INIT blob
            assert [p.pid for p in engine._pool.procs] == pids
        for run, wrapped in ((inherited, first), (shipped, second)):
            assert run.values == expected.values
            assert rows(wrapped) == rows(serial)
            assert wrapped.derivations == serial.derivations
