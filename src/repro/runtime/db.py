"""Database views backing the three PQL evaluation modes.

The evaluator core (:mod:`repro.pql.eval`) is backend-agnostic; these classes
define what "the partition of relation R at vertex v" means per mode:

* :class:`StoreDatabase` — offline evaluation over a captured
  :class:`~repro.provenance.store.ProvenanceStore` plus the static input
  graph (``edge`` / ``vertex`` are virtual relations answered from the
  adjacency structure) plus derived facts.
* :class:`OnlineDatabase` — online evaluation: local transient provenance
  facts, derived facts, and *remote* partitions that hold only what
  neighbors piggybacked onto analytic messages (the paper's locality
  restriction — a vertex can see exactly what was shipped to it).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.graph.digraph import DiGraph
from repro.pql.eval import Database, Row, TupleStore, _Partition
from repro.provenance.store import ProvenanceStore


_STATIC = frozenset(("edge", "vertex"))


class _StaticRelations:
    """Virtual ``edge`` / ``vertex`` relations answered from the graph."""

    def __init__(self, graph: Optional[DiGraph]) -> None:
        self.graph = graph

    def rows(self, relation: str, vertex: Any) -> Iterable[Row]:
        if self.graph is None or vertex not in self.graph:
            return ()
        if relation == "edge":
            return [(vertex, t) for t, _ in self.graph.out_edges(vertex)]
        if relation == "vertex":
            return ((vertex,),)
        return ()

    def all_rows(self, relation: str) -> Iterator[Row]:
        if self.graph is None:
            return
        if relation == "edge":
            for u, v, _value in self.graph.edges():
                yield (u, v)
        elif relation == "vertex":
            for v in self.graph.vertices():
                yield (v,)

    @staticmethod
    def handles(relation: str) -> bool:
        return relation in _STATIC


class StoreDatabase(Database):
    """Offline view: captured store + static graph + derived facts."""

    def __init__(
        self,
        store: ProvenanceStore,
        graph: Optional[DiGraph] = None,
        head_predicates: Optional[Set[str]] = None,
    ) -> None:
        super().__init__()
        self.store = store
        self.static = _StaticRelations(graph)
        self.head_predicates = head_predicates or set()

    def rows(self, relation: str, vertex: Any) -> Iterable[Row]:
        if _StaticRelations.handles(relation):
            return self.static.rows(relation, vertex)
        stored = self.store.partition(relation, vertex)
        if relation in self.head_predicates:
            derived = self.derived.rows(relation, vertex)
            if stored and derived:
                return stored | derived
            return derived or stored
        return stored

    def rows_at(self, relation: str, vertex: Any, time: Any) -> Iterable[Row]:
        if _StaticRelations.handles(relation):
            return self.static.rows(relation, vertex)
        stored = self.store.partition_at(relation, vertex, time)
        if relation in self.head_predicates:
            # Derived partitions are not time-sliced; returning a superset
            # is safe because the scan re-checks the time attribute.
            derived = self.derived.rows(relation, vertex)
            if stored and derived:
                return stored | derived
            return derived or stored
        return stored

    def all_rows(self, relation: str) -> Iterator[Row]:
        if _StaticRelations.handles(relation):
            yield from self.static.all_rows(relation)
            return
        yield from self.store.rows(relation)
        if relation in self.head_predicates:
            yield from self.derived.all_rows(relation)


class OnlineDatabase(Database):
    """Online view for one wrapper run.

    ``frame`` holds the facts only the superstep being evaluated reads
    (``frame_relations``: the stream relations plus every auto-captured
    relation whose history window is 0) as plain row lists, replaced per
    vertex and never stored; ``local`` holds the auto-captured facts a later
    superstep may still read, ``remote`` the tables neighbors shipped to
    each vertex, and ``derived`` (from the base class) the query's IDB
    facts.
    """

    def __init__(
        self,
        graph: Optional[DiGraph],
        head_predicates: Set[str],
        frame_relations: Set[str],
    ) -> None:
        super().__init__()
        self.local = TupleStore()
        # (receiver, relation, sender) -> what sender shipped to receiver.
        self.remote: Dict[Tuple[Any, str, Any], _Partition] = {}
        self.static = _StaticRelations(graph)
        self.head_predicates = head_predicates
        self.frame_relations = frame_relations
        self.frame: Dict[str, List[Row]] = {}
        self.current_site: Any = None

    # -- runtime hooks ------------------------------------------------------
    def begin_vertex(self, site: Any) -> Dict[str, List[Row]]:
        """Evaluate at ``site`` from now on; returns its empty frame."""
        self.current_site = site
        self.frame = frame = {}
        return frame

    def merge_remote(
        self, receiver: Any, sender: Any, relation: str, rows: Iterable[Row]
    ) -> None:
        """Fold a shipped table into ``receiver``'s inbox (read-only on
        ``rows``: one table may ride on several envelopes)."""
        part = self.remote.get((receiver, relation, sender))
        if part is None:
            part = self.remote[(receiver, relation, sender)] = _Partition()
        present, order = part.rows, part.order
        for row in rows:
            if row not in present:
                present.add(row)
                order.append(row)

    # -- Database interface ----------------------------------------------
    def candidates(self, relation: str, vertex: Any, time: Any) -> Iterable[Row]:
        """One flat dispatch: the frame list, the site's stored partition
        (its ``time`` slice when one is bound and kept), or — for any vertex
        other than the evaluating one — only what that vertex shipped here
        (the paper's locality restriction)."""
        if relation in _STATIC:
            return self.static.rows(relation, vertex)
        if vertex != self.current_site:
            part = self.remote.get((self.current_site, relation, vertex))
        elif relation in self.frame_relations:
            rows = self.frame.get(relation, ())
            if relation in self.head_predicates:  # capture into a core relation
                return list(rows) + list(self.derived.rows(relation, vertex))
            return rows
        else:
            part = self.local.partition(relation, vertex)
            if relation in self.head_predicates:
                derived = self.derived.partition(relation, vertex)
                if part is None:
                    part = derived
                elif derived is not None:
                    # Derived partitions are unsliced; the scan re-checks
                    # the time attribute, so a superset is safe.
                    return list(part.slice(time)) + list(derived.rows)
        if part is None:
            return ()
        return part.slice(time)

    def all_rows(self, relation: str) -> Iterator[Row]:
        # Online rules are never evaluated in free mode; only static setup
        # uses all_rows, and static relations are handled by the graph.
        if _StaticRelations.handles(relation):
            yield from self.static.all_rows(relation)
            return
        yield from self.local.all_rows(relation)
        if relation in self.head_predicates:
            yield from self.derived.all_rows(relation)
