"""Engine configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EngineError


@dataclass
class EngineConfig:
    """The one configuration of a :class:`~repro.engine.engine.PregelEngine`
    run.

    Provenance capture has no tunables here: the spill manager seals each
    completed layer at its barrier, as a zlib ARSC slab. Partitioning is
    Giraph's default hash partitioning, and the message combiner is the
    vertex program's (:meth:`VertexProgram.combiner`); neither is a setting.

    Attributes:
        num_workers: simulated worker count (the paper's cluster has 7
            machines). The run stays in one process; a message between
            vertices of different simulated workers is counted as network
            traffic (``cross_worker_messages``), and nothing else changes.
        max_supersteps: hard stop even if the analytic has not converged.
    """

    num_workers: int = 4
    max_supersteps: int = 500

    def validate(self) -> None:
        if self.num_workers < 1:
            raise EngineError("num_workers must be >= 1")
        if self.max_supersteps < 1:
            raise EngineError("max_supersteps must be >= 1")
