"""Wire protocol of the multiprocess backend.

Everything a master and its worker processes exchange is defined here, so
the protocol is inspectable (and pickle-round-trip testable) in one place:

* **commands** (master -> worker): plain tuples whose first element is one
  of :data:`CMD_INIT` / :data:`CMD_STEP` / :data:`CMD_COLLECT` /
  :data:`CMD_SHUTDOWN` / :data:`CMD_ABORT`;
* **message batches** (worker -> worker): lists of *tagged* messages
  ``(sender_pos, seq, target, payload)``, framed by the transport codec
  (:mod:`repro.parallel.transport`), one frame per (source, destination,
  superstep). The tags reconstruct the serial engine's global send order
  — ``sender_pos`` is the sender's canonical position in
  ``graph.vertex_order()`` and ``seq`` a per-worker send counter — so
  receivers can merge their per-source batches into exactly the inbox
  the single-process engine would have built. The tag comes *first* so
  merged batches sort with native tuple comparison (``(pos, seq)`` is
  globally unique, so payloads are never compared);
* **reports** (worker -> master): :class:`BarrierReport` at every
  superstep barrier and :class:`FinalReport` on :data:`CMD_COLLECT`.

Per-shard checkpoints ride on barrier reports as :class:`ShardCheckpoint`
payloads; :func:`merge_shard_checkpoints` reassembles them into the flat
snapshot format of :mod:`repro.engine.checkpoint`, so a checkpoint written
by the parallel backend is resumable by the serial engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.checkpoint import Checkpoint
from repro.errors import EngineError

#: A tagged in-flight message: (sender_pos, seq, target, payload).
TaggedMessage = Tuple[int, int, Any, Any]

CMD_INIT = "init"          # ("init", program_blob | None, traced, epoch)
CMD_STEP = "step"          # ("step", superstep, aggregator_values, checkpoint?)
CMD_COLLECT = "collect"    # ("collect",) -> FinalReport, worker stays warm
CMD_SHUTDOWN = "shutdown"  # ("shutdown",) -> worker exits cleanly
CMD_ABORT = "abort"        # ("abort",) -> worker exits immediately


@dataclass
class ShardCheckpoint:
    """One worker's slice of a superstep snapshot.

    ``superstep`` is the next superstep to execute (the snapshot point is
    the barrier, after the inbox for that superstep is complete), matching
    :class:`~repro.engine.checkpoint.Checkpoint`.
    """

    worker_id: int
    superstep: int
    values: Dict[Any, Any]
    halted: Dict[Any, bool]
    inbox: Dict[Any, List[Any]]
    edge_overlay: Dict[Any, Dict[Any, Any]]


def merge_shard_checkpoints(shards: Sequence[ShardCheckpoint]) -> Checkpoint:
    """Reassemble per-shard snapshots into a serial-format checkpoint.

    Shards must cover disjoint vertex sets and agree on the superstep;
    the merge is a plain union because the partitioner guarantees
    disjointness.
    """
    if not shards:
        raise EngineError("cannot merge an empty set of shard checkpoints")
    supersteps = {s.superstep for s in shards}
    if len(supersteps) != 1:
        raise EngineError(
            f"shard checkpoints disagree on superstep: {sorted(supersteps)}"
        )
    values: Dict[Any, Any] = {}
    halted: Dict[Any, bool] = {}
    inbox: Dict[Any, List[Any]] = {}
    edge_overlay: Dict[Any, Dict[Any, Any]] = {}
    for shard in sorted(shards, key=lambda s: s.worker_id):
        values.update(shard.values)
        halted.update(shard.halted)
        inbox.update(shard.inbox)
        for u, targets in shard.edge_overlay.items():
            edge_overlay.setdefault(u, {}).update(targets)
    return Checkpoint(
        superstep=shards[0].superstep,
        values=values,
        halted=halted,
        inbox=inbox,
        edge_overlay=edge_overlay,
    )


@dataclass
class BarrierReport:
    """What one worker tells the master at a superstep barrier."""

    worker_id: int
    superstep: int
    executed: int = 0            # vertices computed this superstep
    active_after: int = 0        # un-halted vertices after compute
    messages_sent: int = 0
    messages_combined: int = 0     # receiver-side folds for this superstep
    messages_precombined: int = 0  # sender-side folds (associative combiners)
    cross_worker_messages: int = 0
    network_bytes: int = 0       # measured framed bytes shipped
    wait_seconds: float = 0.0    # time blocked on the transport
    aggregations: List[Tuple[int, int, str, Any]] = field(default_factory=list)
    trace_events: List[Dict[str, Any]] = field(default_factory=list)
    checkpoint: Optional[ShardCheckpoint] = None
    error: Optional[BaseException] = None


@dataclass
class FinalReport:
    """One worker's end-of-run state, shipped on :data:`CMD_COLLECT`."""

    worker_id: int
    values: Dict[Any, Any] = field(default_factory=dict)
    edge_overlay: Dict[Any, Dict[Any, Any]] = field(default_factory=dict)
    program_state: Any = None    # the program's ``parallel_state()``, if any
    trace_events: List[Dict[str, Any]] = field(default_factory=list)
    error: Optional[BaseException] = None
