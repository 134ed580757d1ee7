"""Tests for superstep checkpointing and resume."""

import os

import pytest

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.engine.checkpoint import (
    CheckpointedEngine,
    latest_checkpoint,
    load_checkpoint,
    resume,
)
from repro.engine.engine import run_program
from repro.errors import EngineError
from repro.graph.generators import web_graph, with_random_weights


@pytest.fixture(scope="module")
def wgraph():
    return with_random_weights(
        web_graph(150, avg_degree=5, target_diameter=10, seed=131), seed=131
    )


class TestCheckpointing:
    def test_checkpoints_written_at_interval(self, wgraph, tmp_path):
        engine = CheckpointedEngine(wgraph, str(tmp_path), interval=3)
        result = engine.run(SSSP(source=0).make_program())
        assert engine.checkpoints_written == result.num_supersteps // 3
        assert latest_checkpoint(str(tmp_path)) is not None

    def test_checkpointed_run_matches_plain_run(self, wgraph, tmp_path):
        plain = run_program(wgraph, SSSP(source=0).make_program())
        engine = CheckpointedEngine(wgraph, str(tmp_path), interval=4)
        checked = engine.run(SSSP(source=0).make_program())
        assert checked.values == plain.values
        assert checked.num_supersteps == plain.num_supersteps

    def test_resume_produces_identical_result(self, wgraph, tmp_path):
        full = run_program(wgraph, SSSP(source=0).make_program())
        # simulate a crash: run only 6 supersteps, checkpointing every 3
        engine = CheckpointedEngine(wgraph, str(tmp_path), interval=3)
        engine.run(SSSP(source=0).make_program(), max_supersteps=6)
        # the "restarted" job resumes from superstep 6
        resumed = resume(
            wgraph, SSSP(source=0).make_program(), str(tmp_path), interval=3
        )
        assert resumed.values == full.values

    def test_resume_pagerank_fixed_iterations(self, wgraph, tmp_path):
        full = run_program(wgraph, PageRank(num_supersteps=12).make_program())
        engine = CheckpointedEngine(wgraph, str(tmp_path), interval=5)
        engine.run(
            PageRank(num_supersteps=12).make_program(), max_supersteps=7
        )
        resumed = resume(
            wgraph, PageRank(num_supersteps=12).make_program(),
            str(tmp_path), interval=5,
        )
        for v in wgraph.vertices():
            assert resumed.values[v] == pytest.approx(full.values[v])

    def test_snapshot_contents(self, wgraph, tmp_path):
        engine = CheckpointedEngine(wgraph, str(tmp_path), interval=2)
        engine.run(SSSP(source=0).make_program(), max_supersteps=4)
        snapshot = load_checkpoint(latest_checkpoint(str(tmp_path)))
        assert snapshot.superstep in (2, 4)
        assert set(snapshot.values) == set(wgraph.vertices())
        assert set(snapshot.halted) == set(wgraph.vertices())

    def test_resume_without_checkpoint_raises(self, wgraph, tmp_path):
        with pytest.raises(EngineError, match="no checkpoint"):
            resume(wgraph, SSSP(source=0).make_program(),
                   str(tmp_path / "empty"))

    def test_bad_interval(self, wgraph, tmp_path):
        with pytest.raises(EngineError):
            CheckpointedEngine(wgraph, str(tmp_path), interval=0)

    def test_provenance_wrapper_rejected(self, wgraph, tmp_path):
        from repro.core import queries as Q
        from repro.pql.analysis import compile_query
        from repro.pql.parser import parse
        from repro.pql.udf import FunctionRegistry
        from repro.runtime.online import OnlineQueryProgram

        funcs = FunctionRegistry()
        compiled = compile_query(
            parse(Q.SSSP_WCC_STABILITY_QUERY), functions=funcs
        )
        engine = CheckpointedEngine(wgraph, str(tmp_path), interval=2)
        wrapper = OnlineQueryProgram(
            SSSP(source=0).make_program(), compiled, funcs, engine
        )
        with pytest.raises(EngineError, match="provenance"):
            engine.run(wrapper)

    def test_no_torn_files(self, wgraph, tmp_path):
        engine = CheckpointedEngine(wgraph, str(tmp_path), interval=2)
        engine.run(SSSP(source=0).make_program())
        for name in os.listdir(tmp_path):
            assert not name.endswith(".tmp")
