"""Message envelope of a message that crosses worker processes.

Ariadne appends query tables to the messages the vertices exchange
(Section 5.2). In one process a message carries no table — a receiver
reads what its sender shipped up to a watermark, and ``receive_message``
comes from the sender's send log — so the analytic's payload goes to the
engine bare. Only a message to a vertex of another process is wrapped: the
engine is oblivious (an :class:`Envelope` is just the payload from its
perspective), the sender's superstep program fills the table deltas, and
the receiver merges them into its remote partitions and hands the analytic
the payload.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

Row = Tuple[Any, ...]


class Envelope:
    """``(sender, payload, piggybacked tables)``."""

    __slots__ = ("sender", "payload", "tables")

    def __init__(
        self,
        sender: Any,
        payload: Any,
        tables: Optional[Dict[str, Sequence[Row]]] = None,
    ) -> None:
        self.sender = sender
        self.payload = payload
        self.tables = tables

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n = sum(len(rows) for rows in self.tables.values()) if self.tables else 0
        return f"Envelope(from={self.sender!r}, tables={n})"
