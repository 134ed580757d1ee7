"""The column store against a row-bucket oracle.

``ProvenanceStore`` holds each (relation, layer) as column lists plus a
vertex group table, and permutes a layer vertex-major when one vertex's
rows arrived in more than one append. The store it replaced held
``relation -> layer -> vertex -> {row: None}`` buckets, whose iteration
order is what a seal writes. :class:`BucketStore` below is that store, in
a few lines; hypothesis replays the same append sequences into both —
interleaved vertices, repeated rows, several layers, a time-less relation,
values of every lane, and rows that arrive after their layer was sealed —
and every read, the column batches and the sealed slabs must agree.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.provenance.columnar import ColumnarSlab, encode_columnar_slab
from repro.provenance.model import RelationSchema, SchemaRegistry
from repro.provenance.spill import SpillManager
from repro.provenance.store import ProvenanceStore
from repro.sizemodel import estimate_bytes
from tests.conftest import slab_chunks

#: A time-less relation (its one layer is the static slab).
LINK = RelationSchema("link", 2)


class BucketStore:
    """The oracle: ``relation -> layer -> vertex -> bucket``, a bucket an
    insertion-ordered dict keyed by row. A relation's rows are read layer
    by layer in superstep order, the time-less layer first, as every store
    lists them."""

    def __init__(self, registry):
        self.registry = registry
        self.data = {}

    def add_batch(self, relation, rows):
        schema = self.registry.get(relation)
        added = 0
        for row in rows:
            t = None if schema.time_index is None else row[schema.time_index]
            layers = self.data.setdefault(relation, {})
            bucket = layers.setdefault(t, {}).setdefault(row[0], {})
            if row not in bucket:
                bucket[row] = None
                added += 1
        return added

    def layers(self, relation):
        held = self.data.get(relation, {})
        return [held[t] for t in sorted(
            held, key=lambda t: (t is not None, 0 if t is None else t))]

    def partition(self, relation, vertex):
        out = {}
        for by_vertex in self.layers(relation):
            out.update(by_vertex.get(vertex, {}))
        return list(out)

    def rows(self, relation):
        return [row for by_vertex in self.layers(relation)
                for bucket in by_vertex.values() for row in bucket]

    def chunks(self, t):
        """Layer ``t`` as a seal's row-shaped chunks."""
        return {relation: {v: list(bucket) for v, bucket in layers[t].items()}
                for relation, layers in self.data.items() if t in layers}


def _registry():
    registry = SchemaRegistry()
    registry.register(LINK)
    return registry


_vertex = st.integers(min_value=0, max_value=4)
_time = st.integers(min_value=0, max_value=2)
_value = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=2 ** 63, max_value=2 ** 64),  # outside i64
    st.floats(width=32),  # NaN and infinities included
    st.booleans(),
    st.none(),
    st.sampled_from(["a", "b", "\ud800", "\udfff"]),  # surrogates
    st.tuples(st.integers(min_value=0, max_value=2), st.booleans()),
)
_rows = {
    "value": st.lists(st.tuples(_vertex, _value, _time), max_size=12),
    "send_message": st.lists(
        st.tuples(_vertex, _vertex, _value, _time), max_size=12),
    "link": st.lists(st.tuples(_vertex, _vertex), max_size=12),
}
_append = st.sampled_from(sorted(_rows)).flatmap(
    lambda relation: st.tuples(st.just(relation), st.booleans(),
                               _rows[relation]))
#: ("append", relation, as columns?, rows) or ("seal", layer)
_op = st.one_of(
    _append.map(lambda a: ("append",) + a),
    _time.map(lambda t: ("seal", t)),
)


def _as_columns(rows):
    """``rows`` as columns and runs of one vertex (a vertex may repeat)."""
    spans = []
    for row in rows:
        if spans and spans[-1][0] == row[0]:
            spans[-1][1] += 1
        else:
            spans.append([row[0], 1])
    return [list(column) for column in zip(*rows)], spans


def _apply(op, store, oracle):
    _, relation, columnar, rows = op
    if columnar and rows:
        columns, spans = _as_columns(rows)
        added = store.append_columns(relation, columns, spans)
    else:
        added = store.add_batch(relation, rows)
    assert added == oracle.add_batch(relation, rows)


def _slab(path):
    with open(path, "rb") as fh:
        return fh.read()


def _check_reads(store, oracle):
    for relation in ("value", "send_message", "link"):
        assert list(store.rows(relation)) == oracle.rows(relation)
        for vertex in range(5):
            assert list(store.partition(relation, vertex)) == \
                oracle.partition(relation, vertex)
        layers = oracle.data.get(relation, {})
        for t, by_vertex in layers.items():
            if t is not None:
                for vertex in range(5):
                    assert list(store.partition_at(relation, vertex, t)) == \
                        list(by_vertex.get(vertex, ()))
            (batch,) = store.column_batches(relation, [t])
            rows = list(zip(*[batch.values(pos)
                              for pos in range(batch.arity)]))
            assert batch.count == len(rows)
            start, groups = 0, []
            for vertex, bucket in by_vertex.items():
                groups.append((vertex, (start, len(bucket))))
                assert rows[start:start + len(bucket)] == list(bucket)
                start += len(bucket)
            assert list(batch.groups().items()) == groups
    counts = {relation: len(oracle.rows(relation)) for relation in oracle.data}
    assert store.counts() == counts
    assert store.num_rows == sum(counts.values())
    assert store.relations() == list(oracle.data)
    for t in range(3):
        assert store.layer_rows(t) == sum(
            len(bucket) for layers in oracle.data.values()
            for bucket in layers.get(t, {}).values())
    assert store.relation_bytes() == {
        relation: sum(map(estimate_bytes, oracle.rows(relation)))
        for relation in oracle.data}
    assert store.total_bytes() == sum(store.relation_bytes().values())


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(_op, max_size=8))
def test_column_store_matches_row_buckets(ops):
    """Every read, every column batch and every sealed layer slab of the
    column store equals the row-bucket store's after the same appends. A
    layer sealed and then appended to before the writer finished seals
    what it held at the seal."""
    _replay(ops)


def test_layers_read_in_superstep_order():
    """One batch holding a row of superstep 1 before one of superstep 0:
    ``rows()`` and ``partition()`` list superstep 0's first, as
    ``column_batches()`` and a sealed store do."""
    ops = [("append", "value", False, [(0, 0, 1), (0, None, 0)])]
    _replay(ops)
    store = ProvenanceStore(_registry())
    _apply(ops[0], store, BucketStore(_registry()))
    assert list(store.rows("value")) == [(0, None, 0), (0, 0, 1)]
    assert list(store.partition("value", 0)) == [(0, None, 0), (0, 0, 1)]


def _replay(ops):
    store, oracle = ProvenanceStore(_registry()), BucketStore(_registry())
    with SpillManager(store) as spill:
        sealed = None  # (layer, its chunks at the seal)
        for op in ops:
            if op[0] == "seal":
                t = op[1]
                if t in oracle.data.get("value", {}) or \
                        t in oracle.data.get("send_message", {}):
                    sealed = (t, oracle.chunks(t))
                    spill.seal_layer(t)
                continue
            _apply(op, store, oracle)
            if sealed is not None:
                t, chunks = sealed
                sealed = None
                assert _slab(spill.slab_path(t)) == \
                    encode_columnar_slab(chunks, "zlib")[0]
        _check_reads(store, oracle)
        spill.seal_all()
        for t in range(store.num_layers):
            path = spill.slab_path(t)
            chunks = oracle.chunks(t)
            if chunks:
                spill.seal_layer(t)  # late rows: a re-seal
                assert _slab(path) == encode_columnar_slab(chunks, "zlib")[0]
        static = ColumnarSlab(os.path.join(spill.directory, "static.slab"))
        with static:
            decoded = slab_chunks(static)
        decoded.pop("\x00meta")
        assert repr(decoded) == repr(oracle.chunks(None))


def test_rows_of_one_vertex_in_two_appends_are_permuted():
    """A vertex whose rows arrive in two appends scatters its layer; the
    next read permutes it vertex-major, and a repeated row takes the
    row-set check and is dropped."""
    store = ProvenanceStore(_registry())
    store.append_columns("link", [[0, 0, 1], [1, 2, 0]], [(0, 2), (1, 1)])
    assert (store.permuted_layers, store.dedup_rows) == (0, 0)
    assert store.add_batch("link", [(0, 3), (0, 1)]) == 1
    assert (store.permuted_layers, store.dedup_rows) == (1, 2)
    (batch,) = store.column_batches("link")
    assert batch.groups() == {0: (0, 3), 1: (3, 1)}
    assert batch.values(1) == [1, 2, 3, 0]
    store.add("link", (1, 4))
    assert store.permuted_layers == 2
    assert list(store.partition("link", 1)) == [(1, 0), (1, 4)]
    assert batch.groups() == {0: (0, 3), 1: (3, 2)}


def test_seals_read_what_they_were_handed_while_appends_continue():
    """A seal reads a layer's column lists and group table in place; the
    capture then keeps appending to that layer, scattering it and so
    permuting it on the next read. Every slab still holds its layer as it
    was at its seal."""
    store, oracle = ProvenanceStore(), BucketStore(SchemaRegistry())
    sealed = {}
    with SpillManager(store) as spill:
        for t in range(30):
            # the new layer, and the one sealed last round
            for layer in (t, t - 1) if t else (t,):
                rows = [(v, (v * 7 + t) % 11, float(t), layer)
                        for v in range(40) for _ in range(3)]
                _apply(("append", "send_message", t % 2 == 0, rows),
                       store, oracle)
            sealed[t] = oracle.chunks(t)
            spill.seal_layer(t)
            store.column_batches("send_message", [t - 1])  # permute
        for t, chunks in sealed.items():
            assert _slab(spill.slab_path(t)) == \
                encode_columnar_slab(chunks, "zlib")[0]
