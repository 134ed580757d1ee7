"""Superstep checkpointing — Pregel's fault-tolerance mechanism.

Pregel (and Giraph) persist vertex values, halt flags and in-flight messages
at configurable superstep intervals; after a worker failure the whole
computation restarts from the last checkpoint instead of superstep 0. The
simulated engine reproduces the mechanism: a :class:`CheckpointedEngine`
writes a snapshot every ``interval`` supersteps, and :func:`resume` restarts
a program from the latest snapshot in a directory.

The checkpointed engine no longer re-drives its own copy of the superstep
loop: :meth:`PregelEngine.run` exposes an ``_after_barrier`` hook (called at
every barrier, before termination checks — Pregel's snapshot point) and a
``_restore`` parameter, so checkpointed runs get frontier scheduling and the
send-log message path for free. Snapshots stay in the original flat format
(``halted`` dict, ``target -> messages`` inbox) — the barrier's receiver
table as it is — so checkpoints written by the seed engine remain
loadable.

Checkpoints capture *engine* state only. Provenance wrappers keep their own
state (transient tables, watermarks), so provenance-aware runs should be
restarted from superstep 0 instead — exactly Giraph's guidance for stateful
computations; the restriction is enforced with a clear error.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from repro.engine.config import EngineConfig
from repro.engine.engine import PregelEngine, RunResult
from repro.engine.vertex import VertexProgram
from repro.errors import EngineError
from repro.graph.digraph import DiGraph
from repro.obs.log import get_logger
from repro.obs.metrics import BYTES_BUCKETS, get_registry
from repro.obs.trace import PHASE_CHECKPOINT, get_tracer

logger = get_logger("engine.checkpoint")


@dataclass
class Checkpoint:
    """Snapshot of the engine state at a superstep barrier."""

    superstep: int  # the next superstep to execute
    values: Dict[Any, Any]
    halted: Dict[Any, bool]
    inbox: Dict[Any, List[Any]]
    edge_overlay: Dict[Any, Dict[Any, Any]]

    def path_in(self, directory: str) -> str:
        return checkpoint_path(directory, self.superstep)


def checkpoint_path(directory: str, superstep: int) -> str:
    return os.path.join(directory, f"checkpoint-{superstep:06d}.ckpt")


def latest_checkpoint(directory: str) -> Optional[str]:
    """Path of the newest checkpoint file in ``directory`` (None if none)."""
    try:
        names = [
            n for n in os.listdir(directory)
            if n.startswith("checkpoint-") and n.endswith(".ckpt")
        ]
    except FileNotFoundError:
        return None
    if not names:
        return None
    return os.path.join(directory, max(names))


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        data = pickle.load(fh)
    return Checkpoint(**data)


class CheckpointedEngine(PregelEngine):
    """A :class:`PregelEngine` that snapshots state every N supersteps.

    The snapshot happens at the superstep barrier — after messages for the
    next superstep are complete — matching Pregel's semantics.
    """

    def __init__(
        self,
        graph: DiGraph,
        directory: str,
        interval: int = 5,
        config: Optional[EngineConfig] = None,
    ) -> None:
        super().__init__(graph, config=config)
        if interval < 1:
            raise EngineError("checkpoint interval must be >= 1")
        self.directory = directory
        self.interval = interval
        os.makedirs(directory, exist_ok=True)
        self.checkpoints_written = 0

    def run(
        self,
        program: VertexProgram,
        max_supersteps: Optional[int] = None,
        _restore: Optional[Checkpoint] = None,
    ) -> RunResult:
        """Execute with checkpointing; optionally restore from a snapshot."""
        if hasattr(program, "compiled"):
            raise EngineError(
                "checkpointing captures engine state only; restart "
                "provenance-wrapped programs from superstep 0 instead"
            )
        return super().run(program, max_supersteps, _restore=_restore)

    def _after_barrier(
        self,
        next_superstep: int,
        values: Dict[Any, Any],
        active: Set[Any],
        inbox: Dict[Any, List[Any]],
    ) -> None:
        if next_superstep % self.interval != 0:
            return
        # Halt flags are the complement of the active set.
        halted = {v: v not in active for v in self.graph.vertices()}
        self._write_checkpoint(next_superstep, values, halted, inbox)

    def _write_checkpoint(
        self,
        superstep: int,
        values: Dict[Any, Any],
        halted: Dict[Any, bool],
        inbox: Dict[Any, List[Any]],
    ) -> None:
        payload = {
            "superstep": superstep,
            "values": values,
            "halted": halted,
            "inbox": inbox,
            "edge_overlay": self._edge_overlay,
        }
        path = checkpoint_path(self.directory, superstep)
        tmp = path + ".tmp"
        with get_tracer().span(
            "checkpoint", PHASE_CHECKPOINT, superstep=superstep
        ) as span:
            with open(tmp, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            size = os.path.getsize(tmp)
            os.replace(tmp, path)  # atomic: a crash never leaves a torn file
            span.set(bytes=size)
        self.checkpoints_written += 1
        registry = get_registry()
        registry.counter(
            "repro_checkpoints_total", "checkpoint snapshots written"
        ).inc()
        registry.counter(
            "repro_checkpoint_bytes_total", "checkpoint bytes written"
        ).inc(size)
        registry.histogram(
            "repro_checkpoint_bytes", "checkpoint snapshot size",
            boundaries=BYTES_BUCKETS,
        ).observe(size)
        logger.debug(
            "checkpoint at superstep %d: %d bytes -> %s", superstep, size,
            path,
        )


def resume(
    graph: DiGraph,
    program: VertexProgram,
    directory: str,
    interval: int = 5,
    config: Optional[EngineConfig] = None,
    max_supersteps: Optional[int] = None,
) -> RunResult:
    """Restart ``program`` from the latest checkpoint in ``directory``.

    Raises :class:`EngineError` when no checkpoint exists — the caller
    should fall back to a fresh run.
    """
    path = latest_checkpoint(directory)
    if path is None:
        raise EngineError(f"no checkpoint found in {directory}")
    snapshot = load_checkpoint(path)
    engine = CheckpointedEngine(
        graph, directory, interval=interval, config=config
    )
    return engine.run(program, max_supersteps, _restore=snapshot)
