"""Unit tests for the evaluation database views: what a layer program
reads through them."""

import pytest

from repro.engine.engine import SendLog
from repro.graph.digraph import from_edge_list
from repro.pql.analysis import compile_query
from repro.pql.eval import MODE_ANCHORED, MODE_LOCATED
from repro.pql.parser import parse
from repro.pql.udf import FunctionRegistry
from repro.pql.vectorized import VectorContext
from repro.provenance.store import Layer, ProvenanceStore
from repro.runtime.db import Inbox, OnlineDatabase, StoreDatabase


def inbox_of(entries, sites, superstep):
    """The :class:`Inbox` the barrier delivers for a send log of
    ``(sender, targets, payloads)`` entries."""
    log = SendLog.of(entries)
    return Inbox(log.group_by_receiver()[1], sites, superstep, log)


@pytest.fixture
def store():
    s = ProvenanceStore()
    s.add("value", (0, 1.0, 0))
    s.add("value", (0, 2.0, 1))
    s.add("superstep", (0, 0))
    return s


@pytest.fixture
def graph():
    return from_edge_list([(0, 1), (1, 2)])


def derive(db, src, sites, anchor=None):
    """The head rows the program's last rule derives over ``db`` at
    ``sites`` — anchored at ``anchor`` when one is given, else located."""
    crule = compile_query(parse(src)).rules[-1]
    db.vector_ctx = VectorContext()
    mode = MODE_LOCATED if anchor is None else MODE_ANCHORED
    return sorted(db.vector_ctx.evaluate(
        crule, mode, sites, anchor, db, FunctionRegistry()))


def layer_of(arity, *rows):
    """A frame: ``rows``, one per vertex, in order."""
    layer = Layer(arity)
    layer.extend(list(zip(*rows)), [(row[0], 1) for row in rows])
    return layer


def shipped(db, relation, receiver, sender):
    """The rows of ``sender``'s ``relation`` ``receiver`` was shipped."""
    (through,) = db.shipped_through([receiver], [sender])
    return [] if through is None else [
        row for layer in db.shipped_layers(relation, None, through)
        for row in layer.rows_of(sender)]


VALUE = "v(X, D, I) :- value(X, D, I)."
#: ``derivedrel`` is a head so the last rule can read it as one
DERIVED = "derivedrel(X, Y) :- superstep(X, Y). r(X, Y) :- derivedrel(X, Y)."


class TestStoreDatabase:
    def test_reads_store_partitions(self, store, graph):
        db = StoreDatabase(store, graph)
        assert derive(db, VALUE, [0]) == [(0, 1.0, 0), (0, 2.0, 1)]
        assert derive(db, VALUE, [5]) == []

    def test_time_sliced_reads(self, store, graph):
        db = StoreDatabase(store, graph)
        assert derive(db, VALUE, [0], anchor=1) == [(0, 2.0, 1)]

    def test_virtual_edge_relation(self, store, graph):
        db = StoreDatabase(store, graph)
        (edges,) = db.static.column_batches("edge")
        assert edges.groups() == {0: (0, 1), 1: (1, 1)}
        assert (edges.values(0), edges.values(1)) == ([0, 1], [1, 2])
        assert db.static.column_batches("edge") == [edges]  # built once
        (vertices,) = db.static.column_batches("vertex")
        assert vertices.values(0) == [0, 1, 2]
        # a static rule reads the whole relation; a located scan, a group
        assert derive(db, "o(X, Y) :- edge(X, Y).", [None]) == [
            (0, 1), (1, 2)]
        assert derive(db, "o(X, Y) :- superstep(X, I), edge(X, Y).",
                      [0, 2]) == [(0, 1)]
        assert derive(db, "o(X) :- superstep(X, I), vertex(X).",
                      [0, 7]) == [(0,)]

    def test_edge_relation_without_graph(self, store):
        db = StoreDatabase(store, None)
        assert db.static.column_batches("edge") == []
        assert derive(db, "o(X, Y) :- edge(X, Y).", [0]) == []

    def test_derived_union_for_head_predicates(self, store, graph):
        db = StoreDatabase(store, graph, head_predicates={"value"})
        db.add_rows("value", [(0, 9.0, 2)])
        rows = derive(db, VALUE, [0])
        assert (0, 9.0, 2) in rows and (0, 1.0, 0) in rows

    def test_derived_separate_for_non_heads(self, store, graph):
        db = StoreDatabase(store, graph, head_predicates=set())
        db.add_rows("derivedrel", [(0, 1)])
        assert derive(db, DERIVED, [0]) == []  # not a head: invisible as EDB
        assert set(db.derived.partition("derivedrel", 0)) == {(0, 1)}


class TestCandidates:
    """The rows a located scan matches, over every store."""

    def test_store_scan_and_slice(self, graph):
        store = ProvenanceStore()
        store.add_batch("value", [(0, float(i), i) for i in range(40)])
        db = StoreDatabase(store, graph)
        assert len(derive(db, VALUE, [0])) == 40
        # a bound time reads exactly that superstep's layer
        assert derive(db, VALUE, [0], anchor=3) == [(0, 3.0, 3)]
        assert derive(db, VALUE, [0], anchor=99) == []
        assert derive(db, VALUE, [7]) == []  # no such partition
        assert derive(db, "o(X, Y, I) :- superstep(X, I), edge(X, Y).",
                      [0], anchor=3) == []
        store.add("superstep", (0, 3))
        assert derive(db, "o(X, Y, I) :- superstep(X, I), edge(X, Y).",
                      [0], anchor=3) == [(0, 1, 3)]

    def test_head_predicate_reads_store_and_overlay(self, graph):
        store = ProvenanceStore()
        store.add_batch("value", [(0, 1.0, 0), (0, 2.0, 1)])
        db = StoreDatabase(store, graph, head_predicates={"value"})
        db.add_rows("value", [(0, 9.0, 1)])
        # the overlay is unsliced: the scan checks its time position
        assert derive(db, VALUE, [0], anchor=1) == [(0, 2.0, 1), (0, 9.0, 1)]
        assert derive(db, VALUE, [0]) == [(0, 1.0, 0), (0, 2.0, 1),
                                          (0, 9.0, 1)]


class TestOnlineDatabase:
    """The online view: a site's own relations, and another vertex's only
    up to what it shipped (its layers through its last message)."""

    def make(self, graph, shipped=()):
        return OnlineDatabase(graph, head_predicates={"derivedrel"},
                              frame_relations={"vertex_value"},
                              shipped=shipped)

    def test_local_vs_remote_partitions(self, graph):
        db = self.make(graph, shipped=["value"])
        db.keep("value", 0, layer_of(3, (0, 1.0, 0), (1, 5.0, 0)))
        db.store.begin(0, {}, None)
        (own,) = db.store.column_batches("value")
        # the whole layer: a site looks its own group up in it
        assert own.groups() == {0: (0, 1), 1: (1, 1)}
        assert derive(db, VALUE, [0], anchor=0) == [(0, 1.0, 0)]

        def seen(receiver, sender):
            return shipped(db, "value", receiver, sender)

        # vertex 1's facts are NOT visible remotely unless shipped
        assert seen(0, 1) == []
        assert db.ship(SendLog.of([(1, [0], ["m"])]), 0) == 1
        assert seen(0, 1) == [(1, 5.0, 0)]
        # a row 1 holds after its last message to 0 stays invisible ...
        db.keep("value", 1, layer_of(3, (1, 6.0, 1)))
        assert seen(0, 1) == [(1, 5.0, 0)]
        # ... until it messages 0 again; a repeat message carries nothing
        assert db.ship(SendLog.of([(1, [0, 0], ["m", "m"])]), 1) == 1
        assert seen(0, 1) == [(1, 5.0, 0), (1, 6.0, 1)]
        assert seen(2, 1) == []  # never messaged 2

    def test_remote_reads_go_through_the_watermark(self, graph):
        """A rule reading a sender's rows gets exactly what was shipped."""
        db = OnlineDatabase(graph, head_predicates=set(),
                            frame_relations={"receive_message"},
                            shipped=["value"])
        db.keep("value", 0, layer_of(3, (1, 5.0, 0)))
        db.ship(SendLog.of([(1, [0], ["m"])]), 0)
        db.keep("value", 1, layer_of(3, (1, 6.0, 1)))
        db.store.begin(2, {}, inbox_of([(1, [0, 2], ["m", "m"])], [0, 2], 2))
        rule = "o(X, D) :- receive_message(X, Y, M, I), value(Y, D, J)."
        assert derive(db, rule, [0, 2], anchor=2) == [(0, 5.0)]
        point = "o(X) :- receive_message(X, Y, M, I), value(Y, 6.0, J)."
        assert derive(db, point, [0, 2], anchor=2) == []
        db.ship(SendLog.of([(1, [0], ["m"])]), 1)
        assert derive(db, rule, [0, 2], anchor=2) == [(0, 5.0), (0, 6.0)]
        assert derive(db, point, [0, 2], anchor=2) == [(0,)]

    def test_frames_live_one_superstep(self, graph):
        db = self.make(graph)
        db.store.begin(0, {"vertex_value": layer_of(2, (0, 1.0))}, None)
        (frame,) = db.store.column_batches("vertex_value")
        assert frame.groups() == {0: (0, 1)} and frame.values(1) == [1.0]
        db.store.begin(1, {"vertex_value": layer_of(2)}, None)
        assert db.store.column_batches("vertex_value") == []
        assert db.local.relations() == []

    def test_derived_visible_locally(self, graph):
        db = self.make(graph)
        db.add_rows("derivedrel", [(0, 7)])
        assert derive(db, DERIVED, [0]) == [(0, 7)]

    def test_static_relations(self, graph):
        db = self.make(graph)
        (edges,) = db.static.column_batches("edge")
        assert edges.groups() == {0: (0, 1), 1: (1, 1)}
        # the graph is no vertex's to ship: a remote edge scan reads it
        db.store.begin(0, {"vertex_value": layer_of(2, (0, 1.0))}, None)
        assert derive(db, "o(X, Z) :- vertex_value(X, V), edge(X, Y), "
                          "edge(Y, Z).", [0]) == [(0, 2)]

    def test_timed_local_reads(self, graph):
        db = self.make(graph)
        db.keep("value", 0, layer_of(3, (0, 1.0, 0)))
        db.keep("value", 1, layer_of(3, (0, 2.0, 1)))
        db.store.begin(1, {}, None)
        (layer,) = db.store.column_batches("value", [1])
        assert layer.values(1) == [2.0]
        # unbound: every layer, in superstep order
        assert [batch.values(1) for batch in
                db.store.column_batches("value")] == [[1.0], [2.0]]

    def test_unsliced_read_is_the_whole_partition(self, graph):
        db = self.make(graph)
        db.add_rows("derivedrel", [(0, i) for i in range(40)])
        assert derive(db, DERIVED, [0]) == [(0, i) for i in range(40)]
        assert db.shipped_through([1], [0]) == [None]  # nothing shipped


class TestSuperstepBatches:
    """The superstep as column batches: what layer programs read online."""

    def test_frames_and_stored_slices(self, graph):
        db = OnlineDatabase(graph, head_predicates=set(),
                            frame_relations={"superstep"})
        db.keep("value", 3, layer_of(3, *[(v, float(v), 3) for v in (2, 1, 0)]))
        db.store.begin(4, {"superstep": layer_of(2, (2, 4), (0, 4))}, None)
        (frame,) = db.store.column_batches("superstep", [4])
        assert frame.groups() == {2: (0, 1), 0: (1, 1)}  # compute order
        assert db.store.column_batches("superstep", [3]) == []
        # stored rows: the layer of superstep 3, every vertex's group
        (layer,) = db.store.column_batches("value", [3])
        assert layer.groups() == {2: (0, 1), 1: (1, 1), 0: (2, 1)}
        assert layer.values(1) == [2.0, 1.0, 0.0]
        assert db.store.column_batches("value", [5]) == []

    def test_inbox_is_receive_message(self, graph):
        """``receive_message`` at superstep 7 is the send log of superstep
        6, grouped by receiver in site order."""
        db = OnlineDatabase(graph, head_predicates=set(),
                            frame_relations={"receive_message"})
        twice = [1]
        log = [(2, [0, 0], [twice, twice]), (1, [0], [[1]]), (0, [2], [5.0])]
        db.store.begin(7, {}, inbox_of(log, [0, 2], 7))
        (batch,) = db.store.column_batches("receive_message", [7])
        assert batch.count == 4 and batch.groups() == {0: (0, 3), 2: (3, 1)}
        assert batch.values(1) == [2, 2, 1, 0]
        assert batch.values(2) == [(1,), (1,), (1,), 5.0]  # frozen on demand
        assert batch.values(3) == [7] * 4
        # a stored receive_message holds each distinct message once
        assert db.store.inbox.rows(0) == [(0, 2, (1,), 7), (0, 1, (1,), 7)]
