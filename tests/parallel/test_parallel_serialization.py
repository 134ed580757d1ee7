"""Pickle round-trips for everything that crosses a process boundary.

The wire protocol is pickle over pipes/queues; anything that loses state
(or smuggles process-local cached state) in a round-trip corrupts a run in
ways the equivalence tests may not catch on small graphs.
"""

import pickle

import pytest

from repro.engine.checkpoint import Checkpoint
from repro.errors import EngineError, VertexProgramError
from repro.parallel.messages import (
    BarrierReport,
    FinalReport,
    ShardCheckpoint,
    merge_shard_checkpoints,
)
from repro.runtime.envelope import Envelope


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


class TestEnvelopePickling:
    def test_plain_payload(self):
        env = roundtrip(Envelope(3, 0.25))
        assert env.sender == 3
        assert env.payload == 0.25
        assert env.tables is None

    def test_piggybacked_tables_survive(self):
        tables = {"send_message": [(1, 2, 0.5, 4)], "vertex_value": [(1, 0.1)]}
        env = roundtrip(Envelope("a", 1.5, tables))
        assert env.tables == tables


class TestReportPickling:
    def test_barrier_report(self):
        report = BarrierReport(
            worker_id=1, superstep=4, executed=10, active_after=3,
            messages_sent=20, messages_combined=2, cross_worker_messages=6,
            network_bytes=333,
            aggregations=[(0, 0, "sum", 1.5)],
            trace_events=[{"type": "span", "id": 9}],
        )
        clone = roundtrip(report)
        assert clone == report

    def test_final_report(self):
        report = FinalReport(
            worker_id=0, values={1: 0.5, 2: 0.25},
            edge_overlay={1: {2: 9.0}},
            program_state={"derived": []},
        )
        clone = roundtrip(report)
        assert clone == report

    def test_aggregation_values_roundtrip(self):
        # every aggregator value type the built-ins produce
        for value in (0.0, 1.5, 42, float("inf"), (1, "x"), None):
            report = BarrierReport(worker_id=0, superstep=0,
                                   aggregations=[(0, 0, "a", value)])
            assert roundtrip(report).aggregations[0][3] == value


class TestShardCheckpoints:
    def _shard(self, wid, vertices):
        return ShardCheckpoint(
            worker_id=wid, superstep=2,
            values={v: float(v) for v in vertices},
            halted={v: v % 2 == 0 for v in vertices},
            inbox={v: [0.5] for v in vertices},
            edge_overlay={},
        )

    def test_roundtrip(self):
        shard = self._shard(0, [0, 1, 2])
        assert roundtrip(shard) == shard

    def test_merge_produces_serial_checkpoint(self):
        merged = merge_shard_checkpoints(
            [self._shard(0, [0, 2]), self._shard(1, [1, 3])])
        assert isinstance(merged, Checkpoint)
        assert merged.superstep == 2
        assert set(merged.values) == {0, 1, 2, 3}
        assert merged.halted[2] is True and merged.halted[1] is False

    def test_merge_rejects_mismatched_supersteps(self):
        a, b = self._shard(0, [0]), self._shard(1, [1])
        b.superstep = 3
        with pytest.raises(EngineError, match="superstep"):
            merge_shard_checkpoints([a, b])

    def test_merge_rejects_empty(self):
        with pytest.raises(EngineError):
            merge_shard_checkpoints([])


class TestVertexProgramErrorPickling:
    def test_fields_survive(self):
        err = VertexProgramError("v9", 3, ValueError("boom"))
        clone = roundtrip(err)
        assert clone.vertex_id == "v9"
        assert clone.superstep == 3
        assert isinstance(clone.cause, ValueError)
        assert str(clone) == str(err)

    def test_unpicklable_cause_degrades(self):
        cause = ValueError("local state")
        cause.callback = lambda: None  # closures don't pickle
        err = VertexProgramError(1, 0, cause)
        clone = roundtrip(err)
        assert clone.vertex_id == 1
        assert isinstance(clone.cause, RuntimeError)
        assert "local state" in str(clone.cause)
