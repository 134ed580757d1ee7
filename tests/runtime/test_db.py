"""Unit tests for the evaluation database views."""

import pytest

from repro.graph.digraph import from_edge_list
from repro.provenance.store import ProvenanceStore
from repro.runtime.db import Inbox, OnlineDatabase, StoreDatabase


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


class TestStoreDatabase:
    def test_reads_store_partitions(self, store, graph):
        db = StoreDatabase(store, graph)
        assert db.rows("value", 0) == {(0, 1.0, 0), (0, 2.0, 1)}
        assert db.rows("value", 5) == set()

    def test_time_sliced_reads(self, store, graph):
        db = StoreDatabase(store, graph)
        assert db.rows_at("value", 0, 1) == {(0, 2.0, 1)}

    def test_virtual_edge_relation(self, store, graph):
        db = StoreDatabase(store, graph)
        assert list(db.rows("edge", 0)) == [(0, 1)]
        assert sorted(db.all_rows("edge")) == [(0, 1), (1, 2)]
        assert list(db.rows("vertex", 1)) == [(1,)]

    def test_edge_relation_without_graph(self, store):
        db = StoreDatabase(store, None)
        assert list(db.rows("edge", 0)) == []
        assert list(db.all_rows("edge")) == []

    def test_derived_union_for_head_predicates(self, store, graph):
        db = StoreDatabase(store, graph, head_predicates={"value"})
        db.add("value", (0, 9.0, 2))
        rows = set(db.rows("value", 0))
        assert (0, 9.0, 2) in rows and (0, 1.0, 0) in rows

    def test_derived_separate_for_non_heads(self, store, graph):
        db = StoreDatabase(store, graph, head_predicates=set())
        db.add("custom", (0, 1))
        assert db.rows("custom", 0) == set()  # not a head: invisible as EDB
        assert db.derived.rows("custom", 0) == {(0, 1)}


def read(db, relation, vertex, time=None):
    return db.candidates(relation, vertex, time)


class TestCandidates:
    """The one read a located scan makes, over every store."""

    def test_store_scan_and_slice(self, graph):
        store = ProvenanceStore()
        store.add_batch("value", [(0, float(i), i) for i in range(40)])
        db = StoreDatabase(store, graph)
        assert len(read(db, "value", 0)) == 40
        # a bound time reads exactly that superstep's bucket
        assert read(db, "value", 0, time=3) == {(0, 3.0, 3)}
        assert read(db, "value", 0, time=99) == frozenset()
        assert read(db, "value", 7) == frozenset()  # no such partition
        assert list(read(db, "edge", 0, time=3)) == [(0, 1)]

    def test_head_predicate_reads_store_and_overlay(self, graph):
        store = ProvenanceStore()
        store.add_batch("value", [(0, 1.0, 0), (0, 2.0, 1)])
        db = StoreDatabase(store, graph, head_predicates={"value"})
        db.add("value", (0, 9.0, 1))
        # the overlay is unsliced: a superset the scan re-checks
        assert set(read(db, "value", 0, time=1)) == {(0, 2.0, 1),
                                                      (0, 9.0, 1)}
        assert set(read(db, "value", 0)) == {(0, 1.0, 0), (0, 2.0, 1),
                                              (0, 9.0, 1)}


class TestOnlineDatabase:
    """The row path's reads at ``db.current_site`` (rules without a layer
    program)."""

    def make(self, graph, shipped=()):
        return OnlineDatabase(graph, head_predicates={"derivedrel"},
                              frame_relations={"vertex_value"},
                              shipped=shipped)

    def test_local_vs_remote_partitions(self, graph):
        db = self.make(graph, shipped=["value"])
        db.local.add("value", 0, (0, 1.0, 0))
        db.local.add("value", 1, (1, 5.0, 0))
        db.current_site = 0
        assert read(db, "value", 0) == {(0, 1.0, 0)}
        # vertex 1's facts are NOT visible remotely unless shipped
        assert list(read(db, "value", 1)) == []
        assert db.ship([(1, [0], ["m"])]) == 1
        assert list(read(db, "value", 1)) == [(1, 5.0, 0)]
        # a row 1 holds after its last message to 0 stays invisible ...
        db.local.add("value", 1, (1, 6.0, 1))
        assert list(read(db, "value", 1)) == [(1, 5.0, 0)]
        # ... until it messages 0 again; a repeat message carries nothing
        assert db.ship([(1, [0, 0], ["m", "m"])]) == 1
        assert list(read(db, "value", 1)) == [(1, 5.0, 0), (1, 6.0, 1)]
        db.current_site = 2
        assert list(read(db, "value", 1)) == []  # never messaged 2

    def test_frames_live_one_superstep(self, graph):
        db = self.make(graph)
        db.store.begin(0, [0, 1], {"vertex_value": {0: [(0, 1.0)]}}, None)
        db.current_site = 0
        assert read(db, "vertex_value", 0) == [(0, 1.0)]
        db.current_site = 1
        assert list(read(db, "vertex_value", 1)) == []
        db.store.begin(1, [0], {"vertex_value": {}}, None)
        db.current_site = 0
        assert list(read(db, "vertex_value", 0)) == []
        assert db.local.relations() == []

    def test_derived_visible_locally(self, graph):
        db = self.make(graph)
        db.current_site = 0
        db.add("derivedrel", (0, 7))
        assert set(read(db, "derivedrel", 0)) == {(0, 7)}

    def test_static_relations(self, graph):
        db = self.make(graph)
        db.current_site = 0
        assert list(read(db, "edge", 0)) == [(0, 1)]
        assert read(db, "edge", 1, time=3) == [(1, 2)]  # any vertex's edges

    def test_timed_local_reads(self, graph):
        db = self.make(graph)
        db.local.add_timed("value", 0, (0, 1.0, 0), 0)
        db.local.add_timed("value", 0, (0, 2.0, 1), 1)
        db.current_site = 0
        assert list(read(db, "value", 0, time=1)) == [(0, 2.0, 1)]
        assert len(read(db, "value", 0)) == 2

    def test_unsliced_read_is_the_whole_partition(self, graph):
        db = self.make(graph)
        for i in range(40):
            db.add("derivedrel", (0, i))
        db.current_site = 0
        assert read(db, "derivedrel", 0) == {(0, i) for i in range(40)}
        assert list(read(db, "derivedrel", 1)) == []  # nothing shipped


class TestSuperstepBatches:
    """The superstep as column batches: what layer programs read online."""

    def test_frames_and_stored_slices(self, graph):
        db = OnlineDatabase(graph, head_predicates=set(),
                            frame_relations={"superstep"})
        for v in (0, 1, 2):
            db.local.add_timed("value", v, (v, float(v), 3), 3)
        db.store.begin(4, [2, 0], {"superstep": {2: [(2, 4)], 0: [(0, 4)]}},
                       None)
        (frame,) = db.store.column_batches("superstep", [4])
        assert frame.groups() == {2: (0, 1), 0: (1, 1)}  # compute order
        assert db.store.column_batches("superstep", [3]) == []
        # stored rows: the slices of this superstep's sites only
        (layer,) = db.store.column_batches("value", [3])
        assert layer.groups() == {2: (0, 1), 0: (1, 1)}
        assert layer.values(1) == [2.0, 0.0]
        assert db.store.column_batches("value", [5]) == []

    def test_inbox_is_receive_message(self, graph):
        """``receive_message`` at superstep 7 is the send log of superstep
        6, grouped by receiver in site order."""
        db = OnlineDatabase(graph, head_predicates=set(),
                            frame_relations={"receive_message"})
        twice = [1]
        log = [(2, [0, 0], [twice, twice]), (1, [0], [[1]]), (0, [2], [5.0])]
        db.store.begin(7, [0, 2], {}, Inbox(log, [0, 2], 7))
        (batch,) = db.store.column_batches("receive_message", [7])
        assert batch.count == 4 and batch.groups() == {0: (0, 3), 2: (3, 1)}
        assert batch.values(1) == [2, 2, 1, 0]
        assert batch.values(2) == [(1,), (1,), (1,), 5.0]  # frozen on demand
        assert batch.values(3) == [7] * 4
        # the row path reads each distinct message once
        db.current_site = 0
        assert read(db, "receive_message", 0) == [(0, 2, (1,), 7),
                                                  (0, 1, (1,), 7)]
