"""Result containers for PQL evaluation runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.engine.engine import RunResult
from repro.pql.eval import Row
from repro.pql.serialize import canonical_order, ordered_rows
from repro.provenance.spill import SpillManager
from repro.provenance.store import ProvenanceStore, Relations


@dataclass
class QueryResult:
    """Derived relations of one query evaluation, plus run statistics.

    ``derived`` holds the relations the run derived. A capture holds each
    head in ``store_only`` — one no other rule reads — in its capture
    ``store`` alone (each captured row is held once, DESIGN.md §9), and
    answers it from there: the store has the same read API.

    A result is read-only once its evaluator returns it: each relation's
    canonical view (:meth:`canonical`) is built on its first read and
    served to every later one."""

    derived: Relations
    mode: str  # 'online' | 'capture' | 'layered' | 'naive' | 'reference'
    wall_seconds: float = 0.0
    supersteps: int = 0
    derivations: int = 0
    stats: Dict[str, Any] = field(default_factory=dict)
    store: Optional[ProvenanceStore] = None
    store_only: FrozenSet[str] = frozenset()
    # relation -> its canonical view, built on first read
    _views: Dict[str, Tuple[List[Tuple[Any, ...]], List[str]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def _holder(self, relation: str) -> Relations:
        return self.store if relation in self.store_only else self.derived

    def relations(self) -> List[str]:
        """Relations with at least one derived row, plus every head
        predicate of the query (so empty results are visible as zero
        counts rather than silently missing)."""
        derived = set(self.derived.relations())
        derived.update(rel for rel in self.store_only
                       if self.store.has_relation(rel))
        derived.update(self.stats.get("head_predicates", ()))
        return sorted(derived)

    def canonical(self, relation: str
                  ) -> Tuple[List[Tuple[Any, ...]], List[str]]:
        """``relation``'s canonical view, ``(columns, keys)``: its rows in
        the canonical total order (``repro.pql.serialize.row_sort_key``),
        held as columns, and each row's key beside it, built once
        (``canonical_order``: one ``repr`` per row, one sort) on the
        first read. :meth:`rows`, the CLI/server serializers, pagination
        cursors and the ledger's result digest all read it; callers must
        not modify the lists."""
        view = self._views.get(relation)
        if view is None:
            view = self._views[relation] = canonical_order(
                self._holder(relation).rows(relation))
        return view

    def rows(self, relation: str) -> List[Row]:
        """All derived tuples of one relation, in the canonical total
        order that pagination cursors and the CLI/server serializers
        depend on."""
        return list(zip(*self.canonical(relation)[0]))

    def count(self, relation: str) -> int:
        return self._holder(relation).count(relation)

    def vertices(self, relation: str) -> Set[Any]:
        return {row[0] for row in self._holder(relation).rows(relation)}

    def rows_at(self, relation: str, vertex: Any) -> List[Row]:
        return ordered_rows(self._holder(relation).partition(relation, vertex))

    def as_dict(self) -> Dict[str, List[Row]]:
        return {rel: self.rows(rel) for rel in self.relations()}


@dataclass
class OnlineRunResult:
    """Outcome of an online (or capture) run: the analytic's result, the
    query result evaluated in lockstep, and — for capture runs — the
    persisted provenance store, plus the spill manager when a spill
    directory was supplied (layers sealed eagerly during the run)."""

    analytic: RunResult
    query: QueryResult
    store: Optional[ProvenanceStore] = None
    spill: Optional[SpillManager] = None

    @property
    def values(self) -> Dict[Any, Any]:
        return self.analytic.values

    @property
    def wall_seconds(self) -> float:
        return self.analytic.metrics.wall_seconds
