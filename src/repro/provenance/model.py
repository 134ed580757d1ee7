"""The provenance data model (Section 3 of the paper).

Provenance of a vertex-centric run is a set of relations partitioned across
the vertices of the input graph — the paper's *compact representation* of the
provenance graph. Each relation has a schema; the library registers the core
relations of Table 1:

========================  =============================================
``superstep(x, i)``       vertex x was active at superstep i
``value(x, d, i)``        vertex x had value d at superstep i
``evolution(x, j, i)``    x active at j and i, j the predecessor of i
``send_message(x, y, m, i)``     x sent m to y at superstep i
``receive_message(x, y, m, i)``  x received m from y at superstep i
``edge_value(x, y, w, i)``       edge x->y had value w at superstep i
========================  =============================================

plus the static input relations ``vertex(x)`` / ``edge(x, y)`` and the
transient *stream* relations capture rules read (``vertex_value``, ``send``,
``receive``) which exist only during the superstep that produced them.

Schemas carry two pieces of metadata the evaluators rely on:

* ``time_index`` — which attribute is the superstep, enabling the layer
  slicing of Definition 5.1;
* ``topology`` — whether the relation's first two attributes form a
  communication edge and in which direction data can be shipped along it
  (``receive``: chronologically forward, ``send``/``edge``: backward).
  Captured user relations inherit topology from their defining rules
  (e.g. Query 11's ``prov_edges(x, y) :- edge(x, y)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.errors import ProvenanceError

# Relation kinds.
STATIC = "static"  # input graph, known before superstep 0
STREAM = "stream"  # transient facts of the currently executing superstep
PROV = "prov"  # accumulated provenance relations
DERIVED = "derived"  # IDB relations defined by query rules

# Topology flags (direction remote tables can be shipped).
TOPO_RECEIVE = "receive"  # x received from y: y's data flows forward to x
TOPO_SEND = "send"  # x sent to y: y's data flows backward to x
TOPO_EDGE = "edge"  # static out-edge x->y: backward shipping like send


@dataclass(frozen=True)
class RelationSchema:
    """Schema of one provenance relation.

    ``location_index`` is always 0 in this system (the paper's location
    specifier is the first term of every predicate) but is kept explicit so
    readers of downstream code don't have to know the convention.
    """

    name: str
    arity: int
    kind: str = DERIVED
    time_index: Optional[int] = None
    topology: Optional[str] = None
    location_index: int = 0

    def check(self, row: Tuple[Any, ...]) -> None:
        if len(row) != self.arity:
            raise ProvenanceError(
                f"relation {self.name}: expected arity {self.arity}, "
                f"got tuple of length {len(row)}: {row!r}"
            )

    def time_of(self, row: Tuple[Any, ...]) -> Optional[int]:
        if self.time_index is None:
            return None
        return row[self.time_index]

    def location_of(self, row: Tuple[Any, ...]) -> Any:
        return row[self.location_index]


CORE_SCHEMAS: Dict[str, RelationSchema] = {
    s.name: s
    for s in [
        RelationSchema("vertex", 1, STATIC),
        RelationSchema("edge", 2, STATIC, topology=TOPO_EDGE),
        RelationSchema("superstep", 2, PROV, time_index=1),
        RelationSchema("value", 3, PROV, time_index=2),
        RelationSchema("evolution", 3, PROV, time_index=2),
        RelationSchema("send_message", 4, PROV, time_index=3, topology=TOPO_SEND),
        RelationSchema(
            "receive_message", 4, PROV, time_index=3, topology=TOPO_RECEIVE
        ),
        RelationSchema("edge_value", 4, PROV, time_index=3),
        RelationSchema("vertex_value", 2, STREAM),
        RelationSchema("send", 3, STREAM, topology=TOPO_SEND),
        RelationSchema("receive", 3, STREAM, topology=TOPO_RECEIVE),
    ]
}

#: Provenance relations the online runtime can auto-populate on demand.
AUTO_CAPTURED = {
    "superstep",
    "value",
    "evolution",
    "send_message",
    "receive_message",
    "edge_value",
}


class SchemaRegistry:
    """Mutable registry: core schemas plus query-defined relations."""

    def __init__(self) -> None:
        self._schemas: Dict[str, RelationSchema] = dict(CORE_SCHEMAS)

    def __contains__(self, name: str) -> bool:
        return name in self._schemas

    def get(self, name: str) -> RelationSchema:
        try:
            return self._schemas[name]
        except KeyError:
            raise ProvenanceError(f"unknown relation {name!r}") from None

    def maybe_get(self, name: str) -> Optional[RelationSchema]:
        return self._schemas.get(name)

    def register(self, schema: RelationSchema) -> None:
        existing = self._schemas.get(schema.name)
        if existing is not None and existing != schema:
            raise ProvenanceError(
                f"conflicting schema for relation {schema.name!r}: "
                f"{existing} vs {schema}"
            )
        self._schemas[schema.name] = schema

    def register_all(self, schemas: Iterable[RelationSchema]) -> None:
        """Register a batch of schemas (same conflict rules as
        :meth:`register`)."""
        for schema in schemas:
            self.register(schema)

    def names(self) -> Iterable[str]:
        return self._schemas.keys()


#: Exact types ``freeze`` returns as they are, tested before anything else
#: (payloads and values are mostly plain numbers).
_ATOMS = frozenset((str, bytes, int, float, bool, type(None)))


def freeze(value: Any) -> Any:
    """Convert a runtime value into a hashable, set-storable form.

    Message payloads and vertex values can be lists, dicts or numpy arrays;
    provenance relations use set semantics, so facts must be hashable.
    """
    if type(value) in _ATOMS:
        return value
    if isinstance(value, (str, bytes, int, float, bool)) or value is None:
        return value
    if isinstance(value, tuple):
        return tuple(freeze(v) for v in value)
    if isinstance(value, (list, set, frozenset)):
        return tuple(freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((freeze(k), freeze(v)) for k, v in value.items()))
    tolist = getattr(value, "tolist", None)
    if tolist is not None:  # numpy array
        return freeze(tolist())
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)
