"""The provenance store — the compact provenance graph of Section 3.

Physically the store is layer-major and columnar, like its sealed form:
per relation, per *layer* (the superstep; ``None`` for a time-less
relation, whose one layer is the static slab), a :class:`Layer` of column
lists and a vertex group table. Logically it is still the paper's compact
representation (Figure 4): one node per input vertex annotated with
relation partitions — ``partition`` answers a vertex's rows over every
layer. A layer *is* what evaluation reads (``column_batches``) and what a
seal encodes (:class:`~repro.provenance.spill.SpillManager`), so a slab's
row order is the store's; byte sizes (Tables 3/4) are priced per column.
The store is one :class:`Relations`, the container that also holds every
query's derived facts and the online runtime's transient ones.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from itertools import compress, count
from operator import ne, sub
from typing import (
    AbstractSet, Any, Dict, Iterable, Iterator, List, Optional, Sequence,
    Set, Tuple,
)

from repro.errors import ProvenanceError
from repro.provenance.columnar import DecodeCharge, SlabColumns
from repro.provenance.model import RelationSchema, SchemaRegistry
from repro.sizemodel import column_bytes, row_prefix_bytes

Row = Tuple[Any, ...]
Span = Tuple[int, int]

#: Shared immutable empty result for partition/slice misses. Misses are the
#: common case on sparse relations; allocating a fresh ``set()`` per miss
#: was measurable in the offline query hot path.
_EMPTY_ROWS: frozenset = frozenset()
_NONE = object()  # equals no vertex


def _layer_order(item: Tuple[Any, Any]) -> Tuple[bool, Any]:
    """A ``(key, layer)`` item's rank: the ``None`` layer first, then by
    superstep."""
    return (item[0] is not None, 0 if item[0] is None else item[0])


def _distinct(columns: Sequence[List[Any]], probe: Sequence[int],
              start: int, end: int) -> bool:
    """Are rows ``start:end`` pairwise distinct? Sufficient test: one
    column whose values there are — no row tuple is built."""
    n = end - start
    for pos in probe:
        if len(set(columns[pos][start:end])) == n:
            return True
    return False


class Layer:
    """One relation's rows of one layer, as the :class:`ColumnBatch`
    protocol over memory: ``columns`` holds one list per attribute,
    ``count`` values each, in arrival order, and the group table maps each
    vertex (in first-arrival order) to its ``(start, count)`` range.

    A vertex whose rows arrive in more than one append gets more ranges
    and *scatters* the layer; the next read or seal permutes it
    vertex-major, each vertex's rows in arrival order. The permuted
    columns are new lists, so a seal handed the old ones still reads what
    it was given.

    An append skips rows the layer holds. A new vertex's run needs no row
    tuple for that when it is one row or one of its columns has no
    repeats; any other run is checked against the vertex's row set, built
    from the columns on first need and kept up to date after.
    """

    __slots__ = ("columns", "count", "_groups", "_more", "_keys")

    def __init__(self, arity: int) -> None:
        self.columns: List[List[Any]] = [[] for _ in range(arity)]
        self.count = 0
        self._groups: Dict[Any, Span] = {}  # each vertex's first range
        self._more: Dict[Any, List[Span]] = {}  # ranges after the first
        self._keys: Dict[Any, Dict[Row, None]] = {}  # row sets, see above

    @classmethod
    def of(cls, chunk: SlabColumns) -> "Layer":
        """A layer holding ``chunk`` as it is — its vertices one range
        each, their rows distinct: the graph's ``edge`` / ``vertex``
        relations, an aggregate head's groups, a stored inbox."""
        layer = cls(0)
        layer.columns, layer.count, layer._groups = (
            list(chunk.columns), chunk.count, chunk.groups)
        return layer

    # -- the column batch protocol ---------------------------------------
    @property
    def arity(self) -> int:
        return len(self.columns)

    def lane(self, pos: int) -> str:
        return "obj"

    def groups(self) -> Dict[Any, Span]:
        self.settle()
        return self._groups

    def values(self, pos: int) -> List[Any]:
        self.settle()
        return self.columns[pos]

    # -- writing -----------------------------------------------------------
    def append(self, columns: List[List[Any]],
               spans: Iterable[Tuple[Any, int]], probe: Sequence[int],
               ) -> Tuple[int, bool]:
        """Append the rows of ``columns`` the layer does not hold yet;
        ``spans`` gives each vertex's rows as one ``(vertex, count)`` run,
        in row order, each vertex once. Returns how many rows took the
        row-set check and whether this append scattered the layer.
        ``probe`` names the columns worth testing for repeats (not the
        location or the time)."""
        first = self._groups
        keep: Optional[List[int]] = None  # surviving rows, once one is dropped
        kept_spans: List[Tuple[Any, int]] = []
        keyed = start = 0
        for vertex, n in spans:
            end = start + n
            if vertex not in first and (n == 1 or _distinct(columns, probe,
                                                            start, end)):
                kept = n
                if keep is not None:
                    keep.extend(range(start, end))
            else:
                keyed += n
                seen = self.row_set(vertex)
                ids = []
                for i, row in enumerate(
                        zip(*[col[start:end] for col in columns]), start):
                    size = len(seen)
                    seen[row] = None
                    if len(seen) != size:
                        ids.append(i)
                kept = len(ids)
                if keep is None and kept != n:
                    keep = list(range(start))
                if keep is not None:
                    keep += ids
            if kept:
                kept_spans.append((vertex, kept))
            start = end
        if keep is not None:
            columns = [list(map(col.__getitem__, keep)) for col in columns]
        return keyed, self.extend(columns, kept_spans)

    def extend(self, columns: Sequence[List[Any]],
               spans: Iterable[Tuple[Any, int]]) -> bool:
        """Append rows with no check: ``spans`` gives each vertex's rows as
        ``(vertex, count)`` runs, in row order. The caller knows they are
        new, and no row set of theirs is built (:meth:`append` keeps its
        own). Returns whether this append scattered the layer."""
        first, more = self._groups, self._more
        was_scattered = bool(more)
        at = self.count
        for vertex, n in spans:
            if vertex in first:
                more.setdefault(vertex, []).append((at, n))
            else:
                first[vertex] = (at, n)
            at += n
        if at != self.count:
            for mine, col in zip(self.columns, columns):
                mine.extend(col)
            self.count = at
        return bool(more) and not was_scattered

    def settle(self) -> None:
        """Permute a scattered layer into vertex-major order."""
        more = self._more
        if not more:
            return
        ids: List[int] = []
        groups: Dict[Any, Span] = {}
        for vertex, span in self._groups.items():
            at = len(ids)
            for start, n in (span, *more.get(vertex, ())):
                ids.extend(range(start, start + n))
            groups[vertex] = (at, len(ids) - at)
        self.columns = [list(map(col.__getitem__, ids))
                        for col in self.columns]
        self._groups, self._more = groups, {}

    # -- reading -----------------------------------------------------------
    def rows_of(self, vertex: Any) -> List[Row]:
        """``vertex``'s rows in arrival order."""
        span = self._groups.get(vertex)
        if span is None:
            return []
        out: List[Row] = []
        for start, n in (span, *self._more.get(vertex, ())):
            out += zip(*[col[start:start + n] for col in self.columns])
        return out

    def row_set(self, vertex: Any) -> Dict[Row, None]:
        """``vertex``'s rows as an insertion-ordered dict (do not write)."""
        rows = self._keys.get(vertex)
        if rows is None:
            rows = self._keys[vertex] = dict.fromkeys(self.rows_of(vertex))
        return rows

    def nbytes(self) -> int:
        """The rows' serialized size under :mod:`repro.sizemodel`, priced
        per column."""
        return row_prefix_bytes(self.count) + sum(map(column_bytes,
                                                      self.columns))

    def snapshot(self) -> SlabColumns:
        """What a seal encodes, read in place with no row copied: the
        column lists, ``count`` and the group table — vertex-major, so
        each vertex is one range."""
        self.settle()
        return SlabColumns(self.columns, self.count, self._groups)


class Relations:
    """Relations held as :class:`Layer`\\ s, ``relation -> layer -> Layer``,
    the one container of this package: the capture store
    (:class:`ProvenanceStore`), a query's derived facts and the online
    runtime's transient facts. A layer is keyed by the superstep its rows
    arrived at — ``None`` for rows that arrived at none (setup, naive and
    reference evaluation) — and the layers of a relation iterate as
    :meth:`column_batches` lists them, the ``None`` layer first and then in
    superstep order, whatever order they arrived in.

    The read API — :meth:`relations`, :meth:`rows`, :meth:`count`,
    :meth:`partition`, :meth:`column_batches`, the layer and accounting
    reads — is written once, over the layer protocol: results, layer
    programs and the offline drivers read any container alike, a sealed
    store (:class:`SealedStoreView`, whose layers are slab-backed
    :class:`ColumnBatch`\\ es) included.

    :meth:`insert` gives a relation set semantics over all its layers (a
    time-less head such as ``touched(X)`` may be derived again at every
    superstep) and counts each vertex's rows (:meth:`sizes`, what a
    watermark prices). An aggregate head is replaced by group
    (:meth:`set_groups`) and held as one layer.
    """

    def __init__(self) -> None:
        self._data: Dict[str, Dict[Any, Layer]] = {}
        # relation -> vertex -> rows over every layer, built on first read
        # and dropped by the next write to the relation
        self._vertex_views: Dict[str, Dict[Any, Dict[Row, None]]] = {}
        # relation -> the rows inserted; each vertex's row count (sizes)
        self._seen: Dict[str, Set[Row]] = {}
        self._sizes: Dict[str, Dict[Any, int]] = {}
        # aggregate relation -> group key -> row
        self._groups: Dict[str, Dict[Row, Row]] = {}
        self._max_superstep = -1  # the highest layer key held

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def insert(self, relation: str, rows: Iterable[Row],
               layer: Any = None) -> List[Row]:
        """Add the ``rows`` the relation does not hold, in any layer, to
        ``layer``; returns them in order."""
        seen = self._seen.setdefault(relation, set())
        # each row not held yet, once (set.add returns None)
        fresh = [row for row in rows if not (row in seen or seen.add(row))]
        if not fresh:
            return fresh
        spans = getattr(rows, "spans", None)  # rows given as columns
        if spans is not None and len(fresh) == len(rows):
            columns = rows.columns
        else:  # a span starts where a row's vertex is not the previous one's
            columns = [list(col) for col in zip(*fresh)]
            locs = columns[0]
            starts = list(compress(count(), map(ne, locs, [_NONE, *locs])))
            spans = list(zip(map(locs.__getitem__, starts),
                             map(sub, [*starts[1:], len(locs)], starts)))
        sizes = self._sizes.get(relation)
        if sizes is not None:
            for v, n in spans:
                sizes[v] = sizes.get(v, 0) + n
        target = self._data.get(relation, {}).get(layer)
        if target is None:
            target = self._hold(relation, layer, Layer(len(columns)))
        target.extend(columns, spans)
        self._vertex_views.pop(relation, None)
        return fresh

    def set_groups(self, relation: str,
                   pairs: Iterable[Tuple[Row, Row]]) -> int:
        """Set each ``(group key, row)`` of an aggregate relation, replacing
        the group's row; returns how many groups changed."""
        groups = self._groups.setdefault(relation, {})
        changed = 0
        for key, row in pairs:
            if groups.get(key) == row:
                continue
            groups[key] = row
            changed += 1
        if changed:
            by_vertex: Dict[Any, List[Row]] = {}
            for row in groups.values():
                by_vertex.setdefault(row[0], []).append(row)
            self.put(relation, None, Layer.of(SlabColumns.of_rows(by_vertex)))
        return changed

    def put(self, relation: str, key: Any, layer: Layer) -> None:
        """Hold ``layer`` — rows no other layer holds — as layer ``key``."""
        self._hold(relation, key, layer)
        self._vertex_views.pop(relation, None)
        self._sizes.pop(relation, None)

    def _hold(self, relation: str, key: Any, layer: Any) -> Any:
        """Hold ``layer`` as the relation's layer ``key`` and return it. A
        relation's layers iterate the way :meth:`column_batches` lists
        them — the ``None`` layer, then superstep order — whatever order
        they arrive in."""
        layers = self._data.setdefault(relation, {})
        last = next(reversed(layers), None)
        fresh = layers and key not in layers
        layers[key] = layer
        if key is not None:
            self._max_superstep = max(self._max_superstep, key)
        if fresh and (key is None or last is not None and key < last):
            ordered = sorted(layers.items(), key=_layer_order)
            layers.clear()
            layers.update(ordered)
        return layer

    def drop_before(self, relation: str, key: Any) -> int:
        """Drop the layers keyed below ``key``; returns their row count."""
        layers = self._data.get(relation)
        if not layers:
            return 0
        self._vertex_views.pop(relation, None)
        self._sizes.pop(relation, None)
        return sum(layers.pop(t).count for t in [t for t in layers if t < key])

    # ------------------------------------------------------------------
    # reading — over the layer protocol that a Layer and a sealed
    # ColumnBatch both serve: ``count``, ``arity``, ``groups()``,
    # ``values(pos)``, ``rows_of(vertex)``, ``nbytes()`` and ``snapshot()``
    # ------------------------------------------------------------------
    def relations(self) -> List[str]:
        return [relation for relation, layers in self._data.items() if layers]

    def has_relation(self, relation: str) -> bool:
        return bool(self._data.get(relation))

    def partition(self, relation: str, vertex: Any) -> AbstractSet[Row]:
        """``vertex``'s rows of ``relation`` over every layer, layer by
        layer — gathered in one pass over the layers on the vertex's first
        read and kept until the next write to the relation."""
        layers = self._data.get(relation)
        if not layers:
            return _EMPTY_ROWS
        view = self._vertex_views.setdefault(relation, {})
        rows = view.get(vertex)
        if rows is None:  # published whole: readers may share the view
            rows = {}
            for layer in layers.values():
                rows.update(dict.fromkeys(layer.rows_of(vertex)))
            view[vertex] = rows
        return rows.keys() if rows else _EMPTY_ROWS

    def partition_at(self, relation: str, vertex: Any,
                     superstep: Any) -> AbstractSet[Row]:
        """``vertex``'s rows of ``relation`` in one layer — for a relation
        held only in the ``None`` layer (a time-less one), in that."""
        layers = self._data.get(relation)
        if not layers:
            return _EMPTY_ROWS
        layer = layers.get(superstep, layers.get(None))
        rows = layer.rows_of(vertex) if layer is not None else ()
        return dict.fromkeys(rows).keys() if rows else _EMPTY_ROWS

    def rows(self, relation: str) -> Iterator[Row]:
        for layer in self._data.get(relation, {}).values():
            yield from zip(*map(layer.values, range(layer.arity)))

    def vertices(self, relation: Optional[str] = None) -> Set[Any]:
        relations = (self._data.values() if relation is None
                     else [self._data.get(relation, {})])
        return {vertex for layers in relations for layer in layers.values()
                for vertex in layer.groups()}

    def count(self, relation: str) -> int:
        return sum(layer.count
                   for layer in self._data.get(relation, {}).values())

    def counts(self) -> Dict[str, int]:
        return {relation: self.count(relation) for relation in self._data}

    def sizes(self, relation: str) -> Dict[Any, int]:
        """Each vertex's row count (read only), counted on first ask and
        kept up to date by :meth:`insert`."""
        sizes = self._sizes.get(relation)
        if sizes is None:
            sizes = self._sizes[relation] = {}
            for layer in self._data.get(relation, {}).values():
                for v, (_start, n) in layer.groups().items():
                    sizes[v] = sizes.get(v, 0) + n
        return sizes

    def column_batches(self, relation: str,
                       supersteps: Optional[Iterable[Any]] = None,
                       through: Any = None) -> List[Layer]:
        """The layers as column batches: the ``None`` layer, then those
        of ``supersteps`` (every one when ``None``, in superstep order) —
        with a ``through``, of those only the ``None`` layer and the
        layers up to that superstep. A layer that arrived at a superstep
        holds only rows whose time attribute is that superstep, if the
        relation has one: an anchored rule writes its anchor there."""
        layers = self._data.get(relation)
        if not layers:
            return []
        if supersteps is None:
            supersteps = sorted(t for t in layers if t is not None)
        out = []
        for key in dict.fromkeys((None, *supersteps)):
            layer = layers.get(key)
            if layer is not None and (through is None or key is None
                                      or key <= through):
                out.append(layer)
        return out

    def layer_columns(self, superstep: Any) -> Dict[str, SlabColumns]:
        """One layer of every relation (``None``: the time-less ones) as
        what a seal encodes, in relation order."""
        return {relation: layers[superstep].snapshot()
                for relation, layers in self._data.items()
                if superstep in layers}

    def layer_sites(self, superstep: Any) -> Set[Any]:
        """Vertices carrying at least one fact in one layer (group keys
        only)."""
        return set().union(*[layers[superstep].groups()
                             for layers in self._data.values()
                             if superstep in layers])

    def layer_rows(self, superstep: Any) -> int:
        """Row count of one layer."""
        return sum(layers[superstep].count for layers in self._data.values()
                   if superstep in layers)

    def execution_nodes(self) -> Set[Tuple[Any, int]]:
        """The nodes of the unfolded provenance graph: every
        ``(vertex, superstep)`` pair that carries at least one fact."""
        return {
            (vertex, t)
            for layers in self._data.values()
            for t, layer in layers.items() if t is not None
            for vertex in layer.groups()
        }

    @property
    def max_superstep(self) -> int:
        """The highest superstep a layer is keyed by (-1: none)."""
        return self._max_superstep

    @property
    def num_layers(self) -> int:
        return self._max_superstep + 1

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return sum(self.counts().values())

    def total_bytes(self) -> int:
        return sum(self.relation_bytes().values())

    def relation_bytes(self) -> Dict[str, int]:
        return {relation: sum(layer.nbytes() for layer in layers.values())
                for relation, layers in self._data.items()}


class ProvenanceStore(Relations):
    """The captured provenance of one analytic run.

    Organized ``relation -> layer ->`` :class:`Layer`: a capture writes
    one superstep at a time and layered evaluation and the seal read one
    layer at a time (§5.1, Lemma 5.3). Rows are returned as read-only
    set views, iterating in insertion order.

    ``dedup_rows`` counts the rows that took a layer's keyed check (see
    :class:`Layer`), ``permuted_layers`` the appends that scattered a
    layer, so that its next read or seal permutes it.
    """

    def __init__(self, registry: Optional[SchemaRegistry] = None) -> None:
        super().__init__()
        self.registry = registry or SchemaRegistry()
        self.dedup_rows = 0
        self.permuted_layers = 0
        # Attribute intern pool: repeated string attributes (vertex labels,
        # message tags) collapse to one object each, so the columns hold
        # references instead of copies. Only ``str`` is interned: CPython
        # already caches small ints (the vertex ids), floats are mostly
        # distinct in provenance (values, payloads) and would bloat the
        # pool, and ``1 == 1.0 == True`` share a hash, so a mixed pool
        # could swap types and change the size model's answer.
        self._intern_pool: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def add(self, relation: str, row: Row) -> bool:
        """Insert a fact; returns True if new. The vertex is row's first
        attribute (the location specifier)."""
        return self.add_batch(relation, (row,)) == 1

    def add_batch(self, relation: str, rows: Iterable[Row]) -> int:
        """Insert ``rows`` in order; returns the number that were new.

        The row entry: each layer's rows are grouped by vertex (first-seen
        order), transposed into columns and appended like
        :meth:`append_columns` appends."""
        rows = rows if isinstance(rows, list) else list(rows)
        if not rows:
            return 0
        schema = self.registry.get(relation)
        arity, location = schema.arity, schema.location_index
        time_index = schema.time_index
        # layer -> vertex -> rows, both in first-seen order
        split: Dict[Any, Dict[Any, List[Row]]] = {}
        for row in rows:
            if len(row) != arity:
                schema.check(row)  # raises the canonical arity error
            t = row[time_index] if time_index is not None else None
            by_vertex = split.get(t)
            if by_vertex is None:
                by_vertex = split[t] = {}
            vertex = row[location]
            part = by_vertex.get(vertex)
            if part is None:
                by_vertex[vertex] = [row]
            else:
                part.append(row)
        added = 0
        for t, by_vertex in split.items():
            chunk = SlabColumns.of_rows(by_vertex)
            spans = [(vertex, n) for vertex, (_, n) in chunk.groups.items()]
            added += self._append(relation, schema, t, chunk.columns, spans)
        return added

    def append_columns(self, relation: str, columns: List[List[Any]],
                       spans: Sequence[Tuple[Any, int]]) -> int:
        """Append rows given as columns (one list per attribute, equal
        lengths) — each vertex's rows one ``(vertex, count)`` span, in row
        order; returns the number that were new. Rows of several layers,
        or a vertex with several spans, go through :meth:`add_batch`."""
        if not spans:
            return 0
        schema = self.registry.get(relation)
        if len(columns) != schema.arity:
            schema.check(tuple(col[0] for col in columns))
        time_index = schema.time_index
        t = None
        if time_index is not None:
            times = columns[time_index]
            t = times[0]
            if times.count(t) != len(times):
                return self.add_batch(relation, zip(*columns))
        if len({vertex for vertex, _n in spans}) != len(spans):
            return self.add_batch(relation, zip(*columns))
        return self._append(relation, schema, t, columns, spans)

    def _append(self, relation: str, schema: RelationSchema, t: Any,
                columns: List[List[Any]], spans: Sequence[Any]) -> int:
        pool = self._intern_pool
        columns = [[pool.setdefault(v, v) if type(v) is str else v
                    for v in col] if type(col[0]) is str else col
                   for col in columns]
        layer = self._data.get(relation, {}).get(t)
        if layer is None:
            layer = self._hold(relation, t, Layer(schema.arity))
        probe = [pos for pos in range(schema.arity)
                 if pos not in (schema.location_index, schema.time_index)]
        before = layer.count
        keyed, scattered = layer.append(columns, spans, probe)
        self.dedup_rows += keyed
        self.permuted_layers += scattered
        if layer.count != before:
            self._vertex_views.pop(relation, None)
        return layer.count - before

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def layer(self, superstep: Any) -> Dict[str, Dict[Any, AbstractSet[Row]]]:
        """One layer, relation -> vertex -> rows (``None``: the time-less
        relations) — read-only views, in insertion order."""
        out = {}
        for relation, layers in self._data.items():
            layer = layers.get(superstep)
            if layer is not None:
                out[relation] = {v: layer.row_set(v).keys()
                                 for v in layer.groups()}
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProvenanceStore(relations={len(self._data)}, "
            f"rows={self.num_rows}, bytes={self.total_bytes()})"
        )


class ColumnBatch:
    """One relation's rows in one slab as typed column vectors — a sealed
    store's layer.

    The unit the vectorized evaluator consumes: *all* rows of one relation
    inside one ARSC slab — a whole layer (or the static slab) at once.
    Columns are decoded lazily and independently — ``values``/``codes``
    touch exactly one column's segment, which is what makes late
    materialization real (a column no kernel asks for is never decoded).
    ``groups`` maps each vertex to its contiguous ``(start, count)`` row
    range, so a location join needs no location column at all. ``count``,
    the lanes and what each read decodes come from the footer.

    The batch holds its slab's key (``key``: the superstep, ``None`` for
    the static slab), not the slab: each read fetches the view's current
    handle and charges the segments it reads to the calling thread's run
    (:meth:`SealedStoreView.charged`), so out-of-core memory budgets fire
    mid-batch, not per query.
    """

    __slots__ = ("_view", "key", "relation", "count", "_lanes", "_keys",
                 "_columns")

    def __init__(self, view: "SealedStoreView", key: Any, relation: str,
                 slab: Any) -> None:
        self._view = view
        self.key = key
        self.relation = relation
        self.count = slab.row_count(relation)
        self._lanes = slab.lanes(relation)
        self._keys, self._columns = slab.segments(relation)

    @property
    def arity(self) -> int:
        return len(self._lanes)

    def lane(self, pos: int) -> str:
        return self._lanes[pos]

    def _read(self, segments: Sequence[Tuple[Any, int]], method: str,
              *args: Any) -> Any:
        """Charge ``segments`` to this thread's run, then the slab
        reader's ``method`` for this relation."""
        view = self._view
        slab = view._slab(self.key)
        charge = getattr(view._runs, "charge", None)
        if charge is not None:
            charge.charge(slab.path, segments)
        return getattr(slab, method)(self.relation, *args)

    def groups(self) -> Dict[Any, Tuple[int, int]]:
        """``vertex -> (start, count)`` in row order — decodes only the
        group-key segment."""
        return self._read(self._keys, "groups")

    def values(self, pos: int) -> Any:
        """Decoded values of one column (str lanes gather through the
        memoized dictionary; fixed lanes are zero-copy)."""
        return self._read(self._columns[pos], "column_slice", pos, 0,
                          self.count)

    def codes(self, pos: int) -> Optional[Any]:
        """The raw u32 dictionary-code view for a str lane (``None`` for
        every other lane) — the operand for pushed-down string equality."""
        if self._lanes[pos] != "str":
            return None
        return self._read(self._columns[pos][:1], "vector", pos)

    def code_of(self, pos: int, value: Any) -> Optional[int]:
        """Dictionary code of ``value`` in this slab's column (``None``
        when absent: the literal matches nothing here)."""
        segments = self._columns[pos][1:] if type(value) is str else ()
        return self._read(segments, "str_code", pos, value)

    def rows_of(self, vertex: Any) -> List[Row]:
        """``vertex``'s rows, decoded from its one row range."""
        span = self.groups().get(vertex)
        if span is None:
            return []
        return list(zip(*[self._read(self._columns[pos], "column_slice",
                                     pos, *span)
                          for pos in range(self.arity)]))

    def nbytes(self) -> int:
        """Uncompressed payload bytes, from the footer — the cost of
        decoding the whole batch."""
        return self._view._slab(self.key).raw_bytes(self.relation)

    def snapshot(self) -> SlabColumns:
        """A column copy, as the encoder and :meth:`Layer.of` take it:
        each column a list (a ``pkl`` column is pickled as the object it
        is handed)."""
        return SlabColumns(
            [list(self.values(pos)) for pos in range(self.arity)],
            self.count, dict(self.groups()))


class SealedStoreView(Relations):
    """Out-of-core read view over a sealed store: a :class:`Relations`
    whose layers are :class:`ColumnBatch`\\ es over a
    :class:`~repro.provenance.spill.SpillManager`'s ARSC slabs
    (:mod:`repro.provenance.columnar`) — superstep ``t``'s slab is layer
    ``t``, the static slab (the time-less relations) is the ``None``
    layer. The offline evaluators and the query server run against sealed
    captures **without rebuilding a store**: opening reads only slab
    footers, and queries decode exactly the columns their plans touch.

    A view is its manager's *read session* (:meth:`SpillManager.view
    <repro.provenance.spill.SpillManager.view>`): built once, on first
    use, and shared by every query over the manager until
    ``release_slabs()`` or a seal replaces it. Its slab handles keep what
    they decode, so a warm query decodes nothing again.

    What the view adds to the container is what a slab store needs of its
    own: the layer map and schemas from the footers, fresh slab handles
    after the manager released them, and per-run decode accounting.
    :meth:`charged` opens a run on the calling thread: its reads are
    charged to a :class:`~repro.provenance.columnar.DecodeCharge`, each
    segment once, whatever the session decoded before. Its
    ``memory_budget_bytes`` bounds the evaluator's *load unit*: what one
    slab's lazy reader decodes for the run — exceeding it on any single
    slab raises :class:`MemoryError`. That is why captures whose layers
    outgrow the budget stay queryable: a plan that touches few columns
    decodes few bytes. Reads outside a run are charged to nothing.

    The layer map is built here and never written after, and each thread
    keeps its own run, so evaluator threads may share the view.
    """

    def __init__(self, spill: Any) -> None:
        super().__init__()
        self._spill = spill
        self._runs = threading.local()  # .charge: this thread's run
        # Slab handles by layer key. The manager owns them and closes them
        # all on release_slabs(), so they are only valid for ``_epoch``.
        self._slabs: Dict[Any, Any] = {}
        self._epoch: int = spill.release_epoch
        static = self._slab(None)
        meta = static.meta
        if meta is None:
            raise ProvenanceError(
                f"{static.path}: static slab carries no schema meta — "
                "not a sealed provenance store"
            )
        self.registry = SchemaRegistry()
        self.registry.register_all(meta["schemas"].values())
        self._max_superstep = meta["num_layers"] - 1
        # relations in the order the schemas list them — the sealed
        # store's own, and the name objects the static footer holds
        layers: Dict[str, Dict[Any, ColumnBatch]] = {
            relation: {} for relation in meta["schemas"]}
        for key in [None, *spill.sealed_layers()]:
            slab = self._slab(key)
            for relation in slab.relations():
                layers.setdefault(relation, {})[key] = ColumnBatch(
                    self, key, relation, slab)
        self._data = {relation: held for relation, held in layers.items()
                      if held}

    def _slab(self, key: Any) -> Any:
        if self._epoch != self._spill.release_epoch:
            # The manager released its handles under this view (a view
            # held past release_slabs()); reading a closed one would look
            # like a corrupt slab. Start over with fresh handles.
            self._epoch = self._spill.release_epoch
            self._slabs.clear()
        slab = self._slabs.get(key)
        if slab is None:
            slab = self._slabs[key] = self._spill.open_columnar_slab(
                "static" if key is None else key)
        return slab

    @contextmanager
    def charged(self, memory_budget_bytes: Optional[int] = None,
                ) -> Iterator[DecodeCharge]:
        """Charge this thread's reads of the view to one run, until the
        block ends; yields the run's :class:`DecodeCharge`."""
        outer = getattr(self._runs, "charge", None)
        charge = self._runs.charge = DecodeCharge(memory_budget_bytes)
        try:
            yield charge
        finally:
            self._runs.charge = outer

    def close(self) -> None:
        """End the manager's read session: release its slab handles
        (mmaps and everything decoded). The next read, through this view
        or a new one, reopens them."""
        self._vertex_views.clear()
        self._spill.release_slabs()
