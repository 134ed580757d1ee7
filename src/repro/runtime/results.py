"""Result containers for PQL evaluation runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Union

from repro.engine.engine import RunResult
from repro.pql.eval import Row, TupleStore
from repro.pql.serialize import ordered_rows, row_sort_key
from repro.provenance.spill import SpillManager
from repro.provenance.store import ProvenanceStore


class CapturedRelations:
    """A capture's derived relations: the run's tuple store, except the
    heads it held only in the capture store (each captured row is held
    once, DESIGN.md §9), which are answered from there — same rows, same
    counts. Reads like a :class:`TupleStore`."""

    def __init__(self, derived: TupleStore, store: ProvenanceStore,
                 store_only: Set[str]) -> None:
        self.derived, self.store, self.store_only = derived, store, store_only

    def relations(self) -> List[str]:
        return self.derived.relations() + [
            rel for rel in sorted(self.store_only) if self.store.has_relation(rel)]

    def all_rows(self, relation: str) -> Iterable[Row]:
        if relation in self.store_only:
            return self.store.rows(relation)
        return self.derived.all_rows(relation)

    def num_rows(self, relation: str) -> int:
        if relation in self.store_only:
            return self.store.counts().get(relation, 0)
        return self.derived.num_rows(relation)

    def rows(self, relation: str, vertex: Any) -> Iterable[Row]:
        if relation in self.store_only:
            return self.store.partition(relation, vertex)
        return self.derived.rows(relation, vertex)


@dataclass
class QueryResult:
    """Derived relations of one query evaluation, plus run statistics."""

    derived: Union[TupleStore, CapturedRelations]
    mode: str  # 'online' | 'layered' | 'naive' | 'reference'
    wall_seconds: float = 0.0
    supersteps: int = 0
    derivations: int = 0
    stats: Dict[str, Any] = field(default_factory=dict)

    def relations(self) -> List[str]:
        """Relations with at least one derived row, plus every head
        predicate of the query (so empty results are visible as zero
        counts rather than silently missing)."""
        derived = set(self.derived.relations())
        derived.update(self.stats.get("head_predicates", ()))
        return sorted(derived)

    def rows(self, relation: str) -> List[Row]:
        """All derived tuples of one relation, in the canonical total
        order (``repro.pql.serialize.row_sort_key``) that pagination
        cursors and the CLI/server serializers depend on."""
        return ordered_rows(self.derived.all_rows(relation))

    def count(self, relation: str) -> int:
        return self.derived.num_rows(relation)

    def vertices(self, relation: str) -> Set[Any]:
        return {row[0] for row in self.derived.all_rows(relation)}

    def rows_at(self, relation: str, vertex: Any) -> List[Row]:
        return sorted(self.derived.rows(relation, vertex), key=row_sort_key)

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
