"""The provenance store — the compact provenance graph of Section 3.

Physically the store is: per relation, per vertex, a set of tuples, with
time-sliced indexing for relations that carry a superstep attribute. This is
exactly the paper's compact representation (Figure 4): one node per input
vertex annotated with relation partitions, rather than one node per
(vertex, superstep) pair.

The store tracks serialized byte sizes incrementally (Tables 3/4 report
capture sizes) and supports spilling sealed layers to disk through
:class:`~repro.provenance.spill.SpillManager` — the stand-in for the paper's
asynchronous HDFS offload.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import ProvenanceError
from repro.provenance.model import RelationSchema, SchemaRegistry
from repro.sizemodel import RowSizer

Row = Tuple[Any, ...]

#: Shared immutable empty result for partition/slice misses. Misses are the
#: common case on sparse relations; allocating a fresh ``set()`` per miss
#: was measurable in the offline query hot path.
_EMPTY_ROWS: frozenset = frozenset()


class RelationPartition:
    """Tuples of one relation at one vertex, sliced by superstep."""

    __slots__ = ("schema", "rows", "by_time")

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        self.rows: Set[Row] = set()
        # superstep -> rows; only maintained for time-indexed relations.
        self.by_time: Optional[Dict[int, Set[Row]]] = (
            {} if schema.time_index is not None else None
        )

    def add(self, row: Row) -> bool:
        """Insert; return True if the row is new."""
        if row in self.rows:
            return False
        self.rows.add(row)
        if self.by_time is not None:
            t = row[self.schema.time_index]
            bucket = self.by_time.get(t)
            if bucket is None:
                self.by_time[t] = {row}
            else:
                bucket.add(row)
        return True

    def at_time(self, superstep: int) -> Set[Row]:
        if self.by_time is None:
            return self.rows
        return self.by_time.get(superstep, _EMPTY_ROWS)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)


class ProvenanceStore:
    """The captured provenance of one analytic run.

    Organized relation-major (``relation -> vertex -> partition``) because
    query evaluation touches a few relations across many vertices.
    """

    def __init__(self, registry: Optional[SchemaRegistry] = None) -> None:
        self.registry = registry or SchemaRegistry()
        self._data: Dict[str, Dict[Any, RelationPartition]] = {}
        self._bytes: Dict[str, int] = {}
        self._num_rows = 0
        self._max_superstep = -1
        # Attribute intern pool: repeated string attributes (vertex labels,
        # message tags) collapse to one object each, so the row sets hold
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
        # column_batches: relation -> superstep (None: all) -> its batch
        self._batches: Dict[str, Dict[Any, ListBatch]] = {}

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _intern_row(self, row: Row, pool: Dict[str, str]) -> Row:
        out = None
        for i, v in enumerate(row):
            if type(v) is str:
                canon = pool.setdefault(v, v)
                if canon is not v:
                    if out is None:
                        out = list(row)
                    out[i] = canon
        return row if out is None else tuple(out)

    def _sizer_for(self, relation: str):
        sizer = self._sizers.get(relation)
        if sizer is None:
            sizer = self._sizers[relation] = RowSizer()
        return sizer.best()

    def add(self, relation: str, row: Row) -> bool:
        """Insert a fact; returns True if new. The vertex is row's first
        attribute (the location specifier)."""
        schema = self.registry.get(relation)
        schema.check(row)
        self._batches.clear()
        row = self._intern_row(row, self._intern_pool)
        vertex = schema.location_of(row)
        partitions = self._data.setdefault(relation, {})
        partition = partitions.get(vertex)
        if partition is None:
            partition = RelationPartition(schema)
            partitions[vertex] = partition
        if not partition.add(row):
            return False
        self._num_rows += 1
        size = self._sizer_for(relation)(row)
        self._bytes[relation] = self._bytes.get(relation, 0) + size
        t = schema.time_of(row)
        if t is not None and t > self._max_superstep:
            self._max_superstep = t
        return True

    def add_batch(self, relation: str, rows: Iterable[Row]) -> int:
        """Batched insert — the capture fast lane.

        Semantically identical to calling :meth:`add` per row (same dedup,
        same errors, same accounting), but the schema lookup, arity check
        setup, partition-dict resolution and size-model dispatch happen
        once per batch instead of once per row. Returns the number of rows
        that were new.
        """
        iterator = iter(rows)
        try:
            first = next(iterator)
        except StopIteration:
            return 0
        schema = self.registry.get(relation)
        self._batches.clear()
        arity = schema.arity
        time_index = schema.time_index
        location = schema.location_index
        sizer = self._sizer_for(relation)
        partitions = self._data.setdefault(relation, {})
        get_partition = partitions.get
        # Intern columns are learned from the batch's first row, so
        # string-free batches (most provenance relations are all-numeric)
        # skip the pool entirely; rows whose columns deviate from the
        # learned shape just miss the optimization.
        pool = self._intern_pool
        intern_cols = tuple(i for i, v in enumerate(first) if type(v) is str)
        added = 0
        batch_bytes = 0
        max_t = self._max_superstep
        # The dedup/insert below inlines RelationPartition.add — the
        # len-delta dedup hashes the row tuple once instead of twice and
        # skips a method call per row, which is measurable at capture
        # rates. Two copies of the loop: the first drops the intern scan
        # and the time-index branch for the overwhelmingly common batch
        # shape (all-numeric rows of a time-indexed relation). Keep all
        # three in sync with RelationPartition.add.
        if not intern_cols and time_index is not None:
            for row in chain((first,), iterator):
                if len(row) != arity:
                    schema.check(row)  # raises the canonical arity error
                vertex = row[location]
                partition = get_partition(vertex)
                if partition is None:
                    partition = partitions[vertex] = RelationPartition(schema)
                partition_rows = partition.rows
                before = len(partition_rows)
                partition_rows.add(row)
                if len(partition_rows) == before:
                    continue  # duplicate
                added += 1
                batch_bytes += sizer(row)
                t = row[time_index]
                by_time = partition.by_time
                bucket = by_time.get(t)
                if bucket is None:
                    by_time[t] = {row}
                else:
                    bucket.add(row)
                if t > max_t:
                    max_t = t
        else:
            for row in chain((first,), iterator):
                if len(row) != arity:
                    schema.check(row)  # raises the canonical arity error
                for i in intern_cols:
                    v = row[i]
                    if type(v) is str:
                        canon = pool.setdefault(v, v)
                        if canon is not v:
                            row = row[:i] + (canon,) + row[i + 1:]
                vertex = row[location]
                partition = get_partition(vertex)
                if partition is None:
                    partition = partitions[vertex] = RelationPartition(schema)
                partition_rows = partition.rows
                before = len(partition_rows)
                partition_rows.add(row)
                if len(partition_rows) == before:
                    continue  # duplicate
                added += 1
                batch_bytes += sizer(row)
                if time_index is not None:
                    t = row[time_index]
                    by_time = partition.by_time
                    bucket = by_time.get(t)
                    if bucket is None:
                        by_time[t] = {row}
                    else:
                        bucket.add(row)
                    if t > max_t:
                        max_t = t
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

    def partition(self, relation: str, vertex: Any) -> Set[Row]:
        partitions = self._data.get(relation)
        if not partitions:
            return _EMPTY_ROWS
        part = partitions.get(vertex)
        return part.rows if part is not None else _EMPTY_ROWS

    def partition_at(self, relation: str, vertex: Any, superstep: int) -> Set[Row]:
        partitions = self._data.get(relation)
        if not partitions:
            return _EMPTY_ROWS
        part = partitions.get(vertex)
        return part.at_time(superstep) if part is not None else _EMPTY_ROWS

    def rows(self, relation: str) -> Iterator[Row]:
        for part in self._data.get(relation, {}).values():
            yield from part.rows

    def vertices(self, relation: Optional[str] = None) -> Set[Any]:
        if relation is not None:
            return set(self._data.get(relation, {}))
        out: Set[Any] = set()
        for partitions in self._data.values():
            out.update(partitions)
        return out

    def _layer_slices(self, superstep: int) -> Iterator[Tuple[str, Any, Set[Row]]]:
        """``(relation, vertex, rows)`` of every non-empty slice of a layer."""
        for relation, partitions in self._data.items():
            if self.registry.get(relation).time_index is not None:
                for vertex, part in partitions.items():
                    if superstep in part.by_time:
                        yield relation, vertex, part.by_time[superstep]

    def layer(self, superstep: int) -> Dict[str, Dict[Any, Set[Row]]]:
        """All time-indexed facts of one layer, relation -> vertex -> rows."""
        out: Dict[str, Dict[Any, Set[Row]]] = {}
        for relation, vertex, rows in self._layer_slices(superstep):
            out.setdefault(relation, {})[vertex] = rows
        return out

    def layer_sites(self, superstep: int) -> Set[Any]:
        """Vertices carrying at least one fact in one layer."""
        return {vertex for _rel, vertex, _rows in self._layer_slices(superstep)}

    def layer_rows(self, superstep: int) -> int:
        """Row count of one layer."""
        return sum(len(rows) for _rel, _v, rows in self._layer_slices(superstep))

    def execution_nodes(self) -> Set[Tuple[Any, int]]:
        """The nodes of the unfolded provenance graph: every
        ``(vertex, superstep)`` pair that carries at least one fact."""
        nodes: Set[Tuple[Any, int]] = set()
        for relation, partitions in self._data.items():
            schema = self.registry.get(relation)
            if schema.time_index is None:
                continue
            for vertex, part in partitions.items():
                if part.by_time is not None:
                    for t in part.by_time:
                        nodes.add((vertex, t))
        return nodes

    def column_batches(
        self, relation: str, supersteps: Optional[Iterable[Any]] = None,
    ) -> List[ListBatch]:
        """List-backed batches: one per entry of ``supersteps`` (each
        vertex's ``partition_at`` slice) or the whole relation when ``None``
        — the sealed view's slab selection, in the row path's order. The
        first read builds every layer; batches live until the next write."""
        partitions = self._data.get(relation)
        if not partitions:
            return []
        schema = self.registry.get(relation)
        layers = self._batches.get(relation)
        if layers is None:  # published only once complete
            slices: Dict[Any, List[Tuple[Any, Set[Row]]]] = {}
            for v, part in partitions.items():
                for t, rows in (part.by_time or {}).items():
                    slices.setdefault(t, []).append((v, rows))
            layers = self._batches[relation] = {
                t: ListBatch(schema.arity, s) for t, s in slices.items()}
        if supersteps is None or schema.time_index is None:
            if None not in layers:
                layers[None] = ListBatch(schema.arity, [
                    (v, part.rows) for v, part in partitions.items()])
            supersteps = [None]
        return [layers[t] for t in supersteps if t in layers]

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
            relation: sum(len(p) for p in partitions.values())
            for relation, partitions in self._data.items()
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
    """The :class:`ColumnBatch` protocol over the in-memory store's row
    sets, each vertex's rows contiguous in partition iteration order. Every
    lane is ``"obj"`` (plain Python values), so ``codes`` / ``code_of`` are
    never asked for; a column is gathered on its first ``values`` call."""

    __slots__ = ("arity", "count", "_rows", "_groups", "_columns")

    def __init__(self, arity: int,
                 partitions: List[Tuple[Any, Set[Row]]]) -> None:
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
