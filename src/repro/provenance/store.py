"""The provenance store — the compact provenance graph of Section 3.

Physically the store is layer-major, like its sealed form: per relation,
per *layer* (the superstep; ``None`` for a time-less relation, whose one
layer is the static slab), per vertex, a *bucket* of rows in insertion
order. Logically it is still the paper's compact representation (Figure
4): one node per input vertex annotated with relation partitions, rather
than one node per (vertex, superstep) pair — ``partition`` answers a
vertex's rows over every layer.

The store tracks serialized byte sizes incrementally (Tables 3/4 report
capture sizes) and supports spilling sealed layers to disk through
:class:`~repro.provenance.spill.SpillManager` — the stand-in for the paper's
asynchronous HDFS offload. A seal snapshots one layer's buckets as they
are, so a slab's row order is the store's insertion order.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    AbstractSet, Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple,
)

from repro.errors import ProvenanceError
from repro.provenance.model import RelationSchema, SchemaRegistry
from repro.sizemodel import RowSizer

Row = Tuple[Any, ...]
#: One vertex's rows of one (relation, layer): a dict keyed by row, so one
#: insert both deduplicates and keeps insertion order.
Bucket = Dict[Row, None]

#: Shared immutable empty result for partition/slice misses. Misses are the
#: common case on sparse relations; allocating a fresh ``set()`` per miss
#: was measurable in the offline query hot path.
_EMPTY_ROWS: frozenset = frozenset()


class ProvenanceStore:
    """The captured provenance of one analytic run.

    Organized ``relation -> layer -> vertex -> bucket``: a capture writes
    one superstep at a time and layered evaluation and the seal read one
    layer at a time (§5.1, Lemma 5.3). Rows are returned as read-only
    set views of their buckets, iterating in insertion order.
    """

    def __init__(self, registry: Optional[SchemaRegistry] = None) -> None:
        self.registry = registry or SchemaRegistry()
        self._data: Dict[str, Dict[Any, Dict[Any, Bucket]]] = {}
        self._bytes: Dict[str, int] = {}
        self._num_rows = 0
        self._max_superstep = -1
        # layer -> its row count over every relation
        self._layer_rows: Dict[Any, int] = {}
        # Attribute intern pool: repeated string attributes (vertex labels,
        # message tags) collapse to one object each, so the buckets hold
        # references instead of copies. Only ``str`` is interned: CPython
        # already caches small ints (the vertex ids), floats are mostly
        # distinct in provenance (values, payloads) and would bloat the
        # pool, and ``1 == 1.0 == True`` share a hash, so a mixed pool
        # could swap types and change the size model's answer.
        self._intern_pool: Dict[str, str] = {}
        # Memoized per-relation sizers, byte-exact against the recursive
        # ``estimate_bytes`` (the size-model oracle the tests check them
        # against).
        self._sizers: Dict[str, RowSizer] = {}
        # Read-side views of a relation, built on first read and dropped by
        # the next write to it: column_batches' relation -> layer -> batch,
        # and partition's relation -> vertex -> rows over every layer.
        self._batches: Dict[str, Dict[Any, ListBatch]] = {}
        self._vertex_views: Dict[str, Dict[Any, Bucket]] = {}

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _sizer_for(self, relation: str):
        sizer = self._sizers.get(relation)
        if sizer is None:
            sizer = self._sizers[relation] = RowSizer()
        return sizer.best()

    def add(self, relation: str, row: Row) -> bool:
        """Insert a fact; returns True if new. The vertex is row's first
        attribute (the location specifier)."""
        return self.add_batch(relation, (row,)) == 1

    def add_batch(self, relation: str, rows: Iterable[Row]) -> int:
        """Insert ``rows`` in order; returns the number that were new.

        The schema, size model and intern columns resolve once per batch
        and the layer once per run of rows that share one (a capture flush
        is all one superstep); each row then takes one bucket insert — the
        len-delta dedup hashes the row tuple once.
        """
        iterator = iter(rows)
        try:
            first = next(iterator)
        except StopIteration:
            return 0
        schema = self.registry.get(relation)
        self._batches.pop(relation, None)
        self._vertex_views.pop(relation, None)
        arity = schema.arity
        time_index = schema.time_index
        location = schema.location_index
        sizer = self._sizer_for(relation)
        layers = self._data.setdefault(relation, {})
        layer_rows = self._layer_rows
        # Intern columns are learned from the batch's first row, so
        # string-free batches (most provenance relations are all-numeric)
        # skip the pool entirely; rows whose columns deviate from the
        # learned shape just miss the optimization.
        pool = self._intern_pool
        intern_cols = tuple(i for i, v in enumerate(first) if type(v) is str)
        added = counted = batch_bytes = 0
        max_t = self._max_superstep
        layer: Any = None
        by_vertex: Optional[Dict[Any, Bucket]] = None
        for row in chain((first,), iterator):
            if len(row) != arity:
                schema.check(row)  # raises the canonical arity error
            for i in intern_cols:
                v = row[i]
                if type(v) is str:
                    canon = pool.setdefault(v, v)
                    if canon is not v:
                        row = row[:i] + (canon,) + row[i + 1:]
            t = row[time_index] if time_index is not None else None
            if by_vertex is None or t != layer:
                if by_vertex is not None:
                    layer_rows[layer] = layer_rows.get(layer, 0) + added - counted
                    counted = added
                layer = t
                by_vertex = layers.get(t)
                if by_vertex is None:
                    by_vertex = layers[t] = {}
                if t is not None and t > max_t:
                    max_t = t
            vertex = row[location]
            bucket = by_vertex.get(vertex)
            if bucket is None:
                bucket = by_vertex[vertex] = {}
            before = len(bucket)
            bucket[row] = None
            if len(bucket) != before:
                added += 1
                batch_bytes += sizer(row)
        layer_rows[layer] = layer_rows.get(layer, 0) + added - counted
        if added:
            self._num_rows += added
            self._bytes[relation] = self._bytes.get(relation, 0) + batch_bytes
            self._max_superstep = max_t
        return added

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def relations(self) -> List[str]:
        return list(self._data.keys())

    def has_relation(self, relation: str) -> bool:
        return relation in self._data

    def partition(self, relation: str, vertex: Any) -> AbstractSet[Row]:
        """``vertex``'s rows of ``relation`` over every layer, layer by
        layer. A relation with more than one layer answers from a
        per-vertex view, gathered in one pass over the layers on the
        vertex's first read and kept until the next write to the
        relation."""
        layers = self._data.get(relation)
        if not layers:
            return _EMPTY_ROWS
        if len(layers) == 1:
            (by_vertex,) = layers.values()
            rows = by_vertex.get(vertex)
        else:
            view = self._vertex_views.setdefault(relation, {})
            rows = view.get(vertex)
            if rows is None:
                rows = view[vertex] = {}
                for by_vertex in layers.values():
                    bucket = by_vertex.get(vertex)
                    if bucket is not None:
                        rows.update(bucket)
        return rows.keys() if rows else _EMPTY_ROWS

    def partition_at(self, relation: str, vertex: Any,
                     superstep: int) -> AbstractSet[Row]:
        """``vertex``'s rows of ``relation`` in one layer (every row of a
        time-less relation)."""
        layers = self._data.get(relation)
        if not layers:
            return _EMPTY_ROWS
        if self.registry.get(relation).time_index is None:
            superstep = None
        rows = layers.get(superstep, {}).get(vertex)
        return rows.keys() if rows is not None else _EMPTY_ROWS

    def rows(self, relation: str) -> Iterator[Row]:
        for by_vertex in self._data.get(relation, {}).values():
            for bucket in by_vertex.values():
                yield from bucket

    def vertices(self, relation: Optional[str] = None) -> Set[Any]:
        relations = (self._data.values() if relation is None
                     else [self._data.get(relation, {})])
        out: Set[Any] = set()
        for layers in relations:
            for by_vertex in layers.values():
                out.update(by_vertex)
        return out

    def layer(self, superstep: Any) -> Dict[str, Dict[Any, AbstractSet[Row]]]:
        """One layer, relation -> vertex -> rows (``None``: the time-less
        relations) — read-only views of the buckets, in insertion order."""
        return {
            relation: {v: bucket.keys() for v, bucket in layers[superstep].items()}
            for relation, layers in self._data.items() if superstep in layers
        }

    def layer_sites(self, superstep: int) -> Set[Any]:
        """Vertices carrying at least one fact in one layer."""
        sites: Set[Any] = set()
        for layers in self._data.values():
            sites.update(layers.get(superstep, ()))
        return sites

    def layer_rows(self, superstep: int) -> int:
        """Row count of one layer."""
        return self._layer_rows.get(superstep, 0)

    def execution_nodes(self) -> Set[Tuple[Any, int]]:
        """The nodes of the unfolded provenance graph: every
        ``(vertex, superstep)`` pair that carries at least one fact."""
        return {
            (vertex, t)
            for layers in self._data.values()
            for t, by_vertex in layers.items() if t is not None
            for vertex in by_vertex
        }

    def column_batches(
        self, relation: str, supersteps: Optional[Iterable[Any]] = None,
    ) -> List[ListBatch]:
        """List-backed batches over the layers' buckets: one per entry of
        ``supersteps``, or every layer in superstep order when ``None``, and
        a time-less relation's one layer either way — the sealed view's slab
        selection. A layer's batch is built on its first read and kept until
        the next write to the relation."""
        layers = self._data.get(relation)
        if not layers:
            return []
        schema = self.registry.get(relation)
        if schema.time_index is None:
            supersteps = [None]
        elif supersteps is None:
            supersteps = sorted(layers)
        built = self._batches.setdefault(relation, {})
        out: List[ListBatch] = []
        for t in supersteps:
            batch = built.get(t)
            if batch is None:
                by_vertex = layers.get(t)
                if by_vertex is None:
                    continue
                batch = built[t] = ListBatch(schema.arity, by_vertex.items())
            out.append(batch)
        return out

    @property
    def max_superstep(self) -> int:
        """Highest superstep seen across time-indexed relations (-1: none)."""
        return self._max_superstep

    @property
    def num_layers(self) -> int:
        return self._max_superstep + 1

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self._num_rows

    def total_bytes(self) -> int:
        return sum(self._bytes.values())

    def relation_bytes(self) -> Dict[str, int]:
        return dict(self._bytes)

    def counts(self) -> Dict[str, int]:
        return {
            relation: sum(len(bucket) for by_vertex in layers.values()
                          for bucket in by_vertex.values())
            for relation, layers in self._data.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProvenanceStore(relations={len(self._data)}, "
            f"rows={self._num_rows}, bytes={self.total_bytes()})"
        )


class ColumnBatch:
    """One relation's rows in one slab as typed column vectors.

    The unit the vectorized evaluator consumes: *all* rows of one relation
    inside one ARSC slab — a whole layer (or the static slab) at once.
    Columns are decoded lazily and independently — ``values``/``codes``
    touch exactly one column's segment, which is what makes late
    materialization real (a column no kernel asks for is never decoded).
    ``groups`` maps each vertex to its contiguous ``(start, count)`` row
    range, so a location join needs no location column at all. ``note``
    is the owning view's budget check, invoked after every decode so
    out-of-core memory budgets fire mid-batch, not per query.
    """

    __slots__ = ("_slab", "relation", "count", "_lanes", "_note")

    def __init__(self, slab: Any, relation: str, note: Any) -> None:
        self._slab = slab
        self.relation = relation
        self.count = slab.row_count(relation)
        self._lanes = slab.lanes(relation)
        self._note = note

    @property
    def arity(self) -> int:
        return len(self._lanes)

    def lane(self, pos: int) -> str:
        return self._lanes[pos]

    def groups(self) -> Dict[Any, Tuple[int, int]]:
        """``vertex -> (start, count)`` in row order — decodes only the
        group-key segment."""
        out = self._slab.groups(self.relation)
        self._note()
        return out

    def values(self, pos: int) -> Any:
        """Decoded values of one column (str lanes gather through the
        memoized dictionary; fixed lanes are zero-copy)."""
        out = self._slab.column_slice(self.relation, pos, 0, self.count)
        self._note()
        return out

    def codes(self, pos: int) -> Optional[Any]:
        """The raw u32 dictionary-code view for a str lane (``None`` for
        every other lane) — the operand for pushed-down string equality."""
        if self._lanes[pos] != "str":
            return None
        out = self._slab.vector(self.relation, pos)
        self._note()
        return out

    def code_of(self, pos: int, value: Any) -> Optional[int]:
        """Dictionary code of ``value`` in this slab's column (``None``
        when absent: the literal matches nothing here)."""
        code = self._slab.str_code(self.relation, pos, value)
        self._note()
        return code


class ListBatch:
    """The :class:`ColumnBatch` protocol over in-memory rows: one layer's
    ``(vertex, rows)`` pairs, each vertex's rows contiguous in the order
    given (a store bucket's is insertion order, as in its sealed slab).
    Every lane is ``"obj"`` (plain Python values), so ``codes`` /
    ``code_of`` are never asked for; a column is gathered on its first
    ``values`` call."""

    __slots__ = ("arity", "count", "_rows", "_groups", "_columns")

    def __init__(self, arity: int,
                 partitions: Iterable[Tuple[Any, Iterable[Row]]]) -> None:
        self.arity = arity
        self._rows: List[Row] = []
        self._groups: Dict[Any, Tuple[int, int]] = {}
        self._columns: Dict[int, List[Any]] = {}
        for vertex, rows in partitions:  # every partition / slice is non-empty
            self._groups[vertex] = (len(self._rows), len(rows))
            self._rows.extend(rows)
        self.count = len(self._rows)

    def lane(self, pos: int) -> str:
        return "obj"

    def groups(self) -> Dict[Any, Tuple[int, int]]:
        return self._groups

    def values(self, pos: int) -> List[Any]:
        if pos not in self._columns:
            self._columns[pos] = [row[pos] for row in self._rows]
        return self._columns[pos]


class SealedStoreView:
    """Out-of-core read view over a sealed store.

    Implements :class:`ProvenanceStore`'s read protocol (``partition`` /
    ``partition_at`` / ``rows`` / ``layer_sites`` / ``layer_rows`` /
    ``column_batches`` / accounting) on top of a
    :class:`~repro.provenance.spill.SpillManager`'s ARSC slabs
    (:mod:`repro.provenance.columnar`), so the offline evaluators and the
    query server run against sealed captures **without rebuilding a
    store**: opening reads only slab footers, and queries decode exactly
    the columns their plans touch.

    Layout facts the view exploits:

    * a layer slab ``t`` holds exactly the facts whose superstep is ``t``,
      so ``partition_at`` is a single-slab group lookup;
    * time-less relations live only in the static slab;
    * one partition is one contiguous row range per slab, and partition
      (vertex) keys are their own tiny segment — site discovery decodes no
      row columns at all.

    ``memory_budget_bytes`` bounds the evaluator's *load unit*: what one
    slab's lazy reader *actually decodes* — exceeding the budget on any
    single slab raises :class:`MemoryError`. That is why captures whose
    layers outgrow the budget stay queryable: a plan that touches few
    columns decodes few bytes.
    """

    def __init__(
        self, spill: Any, memory_budget_bytes: Optional[int] = None,
    ) -> None:
        self._spill = spill
        # Slab handles by key (superstep, or "static"; None: no such
        # slab). The manager shares them between views and closes them all
        # on release_slabs(), so they are only valid for ``_epoch``.
        self._slabs: Dict[Any, Any] = {}
        self._epoch: int = spill.release_epoch
        static = self._static
        meta = static.meta
        if meta is None:
            raise ProvenanceError(
                f"{static.path}: static slab carries no schema meta — "
                "not a sealed provenance store"
            )
        self.registry = SchemaRegistry()
        self.registry.register_all(meta["schemas"].values())
        self._num_layers: int = meta["num_layers"]
        self._sealed: List[int] = sorted(spill.sealed_layers())
        self.memory_budget_bytes = memory_budget_bytes
        self._relation_names: Optional[List[str]] = None

    # -- plumbing -------------------------------------------------------
    def _slab(self, key: Any) -> Optional[Any]:
        if self._epoch != self._spill.release_epoch:
            # Another view over this manager closed and took the shared
            # handles with it; reading a closed one would look like a
            # corrupt slab. Start over with fresh handles.
            self._epoch = self._spill.release_epoch
            self._slabs.clear()
        slab = self._slabs.get(key)
        if slab is None:
            if key not in self._slabs:
                try:
                    slab = self._spill.open_columnar_slab(key)
                except ProvenanceError:
                    if key == "static":
                        raise
                    slab = None
                self._slabs[key] = slab
        return slab

    @property
    def _static(self) -> Any:
        return self._slab("static")

    def _layer_views(self) -> Iterator[Any]:
        for superstep in self._sealed:
            slab = self._slab(superstep)
            if slab is not None:
                yield slab

    def _all_views(self) -> Iterator[Any]:
        yield self._static
        yield from self._layer_views()

    @property
    def decoded_bytes(self) -> int:
        """Uncompressed segment bytes materialized so far — the honest
        memory cost of everything queries have touched."""
        return sum(slab.decoded_bytes for slab in self._all_open())

    @property
    def peak_slab_decoded_bytes(self) -> int:
        """The largest per-slab decode so far — the columnar load unit
        (what ``peak_slab_bytes`` reports for out-of-core runs)."""
        return max(slab.decoded_bytes for slab in self._all_open())

    def _note(self) -> None:
        budget = self.memory_budget_bytes
        if budget is None:
            return
        for slab in self._all_open():
            if slab.decoded_bytes > budget:
                raise MemoryError(
                    f"slab {slab.path} decoded {slab.decoded_bytes} bytes "
                    f"of column segments, exceeding the memory budget "
                    f"({budget})"
                )

    def _all_open(self) -> List[Any]:
        self._slab("static")  # always counted; re-fetches after a release
        return [slab for slab in self._slabs.values() if slab is not None]

    def _schema(self, relation: str) -> Optional[RelationSchema]:
        # Mirror the in-memory store: asking about a relation nothing ever
        # registered (e.g. a message relation the capture never saw) is an
        # empty read, not an error.
        try:
            return self.registry.get(relation)
        except ProvenanceError:
            return None

    # -- reading --------------------------------------------------------
    def relations(self) -> List[str]:
        names = self._relation_names
        if names is None:
            names = []
            seen: Set[str] = set()
            for slab in self._all_views():
                for relation in slab.relations():
                    if relation not in seen:
                        seen.add(relation)
                        names.append(relation)
            self._relation_names = names
        return list(names)

    def has_relation(self, relation: str) -> bool:
        return relation in self.relations()

    def partition(self, relation: str, vertex: Any) -> Set[Row]:
        schema = self._schema(relation)
        if schema is None:
            return _EMPTY_ROWS
        if schema.time_index is None:
            rows = self._static.group_rows(relation, vertex)
            self._note()
            return rows if rows else _EMPTY_ROWS
        out: Optional[Set[Row]] = None
        for slab in self._layer_views():
            if not slab.has_relation(relation):
                continue
            rows = slab.group_rows(relation, vertex)
            if rows:
                out = rows if out is None else out | rows
        self._note()
        return out if out is not None else _EMPTY_ROWS

    def partition_at(
        self, relation: str, vertex: Any, superstep: int
    ) -> Set[Row]:
        schema = self._schema(relation)
        if schema is None:
            return _EMPTY_ROWS
        if schema.time_index is None:
            rows = self._static.group_rows(relation, vertex)
            self._note()
            return rows if rows else _EMPTY_ROWS
        slab = self._slab(superstep)
        if slab is None or not slab.has_relation(relation):
            return _EMPTY_ROWS
        rows = slab.group_rows(relation, vertex)
        self._note()
        return rows if rows else _EMPTY_ROWS

    def column_batches(
        self, relation: str, supersteps: Optional[Iterable[Any]] = None,
    ) -> List[ColumnBatch]:
        """One relation as whole-slab column batches — the vectorized
        evaluator's scan source. Slab selection mirrors ``partition_at``
        (one layer slab per entry of ``supersteps``) / ``partition``
        (``supersteps is None``: every layer) exactly, so enumerating the
        batches' rows of a vertex equals the row-path candidate set.
        Nothing is decoded here; columns and group keys decode on demand."""
        schema = self._schema(relation)
        if schema is None:
            return []
        if schema.time_index is None:
            slabs: Iterable[Any] = [self._static]
        elif supersteps is not None:
            slabs = [self._slab(superstep) for superstep in supersteps]
        else:
            slabs = self._layer_views()
        return [
            ColumnBatch(slab, relation, self._note) for slab in slabs
            if slab is not None and slab.has_relation(relation)
        ]

    def rows(self, relation: str) -> Iterator[Row]:
        for slab in self._all_views():
            if slab.has_relation(relation):
                yield from slab.all_rows(relation)
        self._note()

    def vertices(self, relation: Optional[str] = None) -> Set[Any]:
        out: Set[Any] = set()
        for slab in self._all_views():
            names = [relation] if relation is not None else slab.relations()
            for name in names:
                if slab.has_relation(name):
                    out.update(slab.groups(name))
        self._note()
        return out

    def layer_sites(self, superstep: int) -> Set[Any]:
        """Vertices carrying at least one fact in one layer — group keys
        only, no row columns decoded."""
        slab = self._slab(superstep)
        sites: Set[Any] = set()
        if slab is not None:
            for relation in slab.relations():
                sites.update(slab.groups(relation))
        self._note()
        return sites

    def layer_rows(self, superstep: int) -> int:
        """Row count of one layer, straight from slab footers."""
        slab = self._slab(superstep)
        return slab.total_rows() if slab is not None else 0

    def execution_nodes(self) -> Set[Tuple[Any, int]]:
        nodes: Set[Tuple[Any, int]] = set()
        for superstep in self._sealed:
            for vertex in self.layer_sites(superstep):
                nodes.add((vertex, superstep))
        return nodes

    @property
    def max_superstep(self) -> int:
        return self._num_layers - 1

    @property
    def num_layers(self) -> int:
        return self._num_layers

    # -- accounting -----------------------------------------------------
    @property
    def num_rows(self) -> int:
        return sum(slab.total_rows() for slab in self._all_views())

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for slab in self._all_views():
            for relation in slab.relations():
                out[relation] = (
                    out.get(relation, 0) + slab.row_count(relation)
                )
        return out

    def total_bytes(self) -> int:
        """Uncompressed payload bytes of every slab — the cost of decoding
        everything, known from footers alone. This is what naive
        evaluation's memory budget compares against."""
        return sum(slab.raw_bytes() for slab in self._all_views())

    def relation_bytes(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for slab in self._all_views():
            for relation in slab.relations():
                out[relation] = (
                    out.get(relation, 0) + slab.raw_bytes(relation)
                )
        return out

    def close(self) -> None:
        """Release the manager's shared slab handles (drops mmaps and
        caches); other views over the same manager re-fetch theirs."""
        self._slabs.clear()
        self._spill.release_slabs()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SealedStoreView(layers={self._num_layers}, "
            f"decoded_bytes={self.decoded_bytes})"
        )
