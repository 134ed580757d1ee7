"""Engine configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import EngineError


@dataclass
class EngineConfig:
    """Tunables for a :class:`~repro.engine.engine.PregelEngine` run.

    Provenance capture has no tunables here: the spill manager seals each
    completed layer at its barrier, as a zlib ARSC slab.

    Attributes:
        num_workers: simulated worker count (the paper's cluster has 7
            machines). The run stays in one process; a message between
            vertices of different simulated workers is counted as network
            traffic (``cross_worker_messages``), and nothing else changes.
        max_supersteps: hard stop even if the analytic has not converged.
        use_combiner: honor the vertex program's message combiner. Online
            evaluation turns it off: ``receive_message`` holds one row per
            sender's message, which a fold would merge away. Delivery order
            is fixed either way — a vertex receives its messages in send
            order (senders in canonical compute order, each sender's sends
            in the order it made them), at any worker count.
        partitioner: how the engine splits the vertices across the
            simulated workers — ``"hash"`` (stable crc32 hash, Giraph's
            default) or ``"range"`` (contiguous integer ranges, integer
            ids only).
        ledger_dir: directory of an append-only run ledger
            (``repro.obs.ledger``). When set, library entry points
            (:meth:`Ariadne.baseline`, :func:`run_online`,
            :meth:`Ariadne.query_offline`) append an audit record per run
            — config, environment fingerprint, dataset hash, result
            digests — exactly like the CLI's ``--ledger`` flag. ``None``
            (default) records nothing.
    """

    num_workers: int = 4
    max_supersteps: int = 500
    use_combiner: bool = True
    partitioner: str = "hash"
    ledger_dir: Optional[str] = None

    def validate(self) -> None:
        if self.num_workers < 1:
            raise EngineError("num_workers must be >= 1")
        if self.max_supersteps < 1:
            raise EngineError("max_supersteps must be >= 1")
        if self.partitioner not in ("hash", "range"):
            raise EngineError(
                f"unknown partitioner {self.partitioner!r} (hash | range)"
            )
