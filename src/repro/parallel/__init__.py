"""Shared-nothing multiprocess execution backend.

The serial engine *simulates* ``num_workers`` workers in one process;
this package runs them as real forked OS processes, one graph shard each,
exchanging framed message batches over one ``multiprocessing.Queue``
per worker under a master-coordinated superstep barrier, and still
produces byte-identical results (see ``DESIGN.md`` section 7 for the
protocol and the determinism argument). A warm worker pool keeps the
forked fleet alive across runs of the same engine.
"""

from repro.parallel.backend import build_partitioner, make_engine
from repro.parallel.engine import ParallelEngine
from repro.parallel.messages import (
    BarrierReport,
    FinalReport,
    ShardCheckpoint,
    merge_shard_checkpoints,
)
from repro.parallel.transport import QueueTransport, decode_frame, encode_batch
from repro.parallel.worker import WorkerPool

__all__ = [
    "BarrierReport",
    "FinalReport",
    "ParallelEngine",
    "QueueTransport",
    "ShardCheckpoint",
    "WorkerPool",
    "build_partitioner",
    "decode_frame",
    "encode_batch",
    "make_engine",
    "merge_shard_checkpoints",
]
