"""Message envelope used by provenance-aware runs.

Ariadne appends query tables to the messages the vertices exchange
(Section 5.2). The engine is oblivious: an :class:`Envelope` is just the
message payload from its perspective. The wrapper vertex program unwraps the
analytic's payload; an envelope that crossed from another process carries
table deltas (filled by the sender's superstep program), which the receiver
merges into its remote partitions.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.engine.ordering import OrderKey, ordering_key

Row = Tuple[Any, ...]


class Envelope:
    """``(sender, payload, piggybacked tables)``."""

    __slots__ = ("sender", "payload", "tables", "_sort_key")

    def __init__(
        self,
        sender: Any,
        payload: Any,
        tables: Optional[Dict[str, Sequence[Row]]] = None,
    ) -> None:
        self.sender = sender
        self.payload = payload
        self.tables = tables
        self._sort_key: Optional[Tuple[OrderKey, OrderKey]] = None

    @property
    def sort_key(self) -> Tuple[OrderKey, OrderKey]:
        """Deterministic delivery key: sender id, then payload.

        Computed lazily (runs without ``deterministic_delivery`` never pay
        for it) and cached, so sorting an inbox keys each envelope once —
        unlike the seed's ``sort(key=repr)``, it never renders the
        piggybacked tables.
        """
        key = self._sort_key
        if key is None:
            key = (ordering_key(self.sender), ordering_key(self.payload))
            self._sort_key = key
        return key

    def __getstate__(self) -> Tuple[Any, Any, Optional[Dict[str, Sequence[Row]]]]:
        # __slots__ classes have no __dict__, so spell out pickle state.
        # The cached sort key is dropped: OrderKey objects may wrap
        # arbitrary payloads more cheaply than they pickle, and the
        # receiving process recomputes it lazily anyway.
        return (self.sender, self.payload, self.tables)

    def __setstate__(
        self, state: Tuple[Any, Any, Optional[Dict[str, Sequence[Row]]]]
    ) -> None:
        self.sender, self.payload, self.tables = state
        self._sort_key = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n = sum(len(rows) for rows in self.tables.values()) if self.tables else 0
        return f"Envelope(from={self.sender!r}, tables={n})"
