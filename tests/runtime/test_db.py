"""Unit tests for the evaluation database views."""

import pytest

from repro.graph.digraph import from_edge_list
from repro.provenance.store import ProvenanceStore
from repro.runtime.db import OnlineDatabase, StoreDatabase


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
    """The one read a located scan makes, over every backend."""

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
    def make(self, graph):
        return OnlineDatabase(graph, head_predicates={"derivedrel"},
                              frame_relations={"vertex_value"})

    def test_local_vs_remote_partitions(self, graph):
        db = self.make(graph)
        db.local.add("value", 0, (0, 1.0, 0))
        db.local.add("value", 1, (1, 5.0, 0))
        db.begin_vertex(0)
        assert read(db, "value", 0) == {(0, 1.0, 0)}
        # vertex 1's facts are NOT visible remotely unless shipped
        assert list(read(db, "value", 1)) == []
        db.merge_remote(0, 1, "value", [(1, 5.0, 0)])
        assert set(read(db, "value", 1)) == {(1, 5.0, 0)}

    def test_remote_partitions_keyed_by_receiver(self, graph):
        db = self.make(graph)
        db.merge_remote(0, 1, "t", [(1, "x")])
        db.begin_vertex(2)
        assert list(read(db, "t", 1)) == []  # vertex 2 received nothing
        db.begin_vertex(0)
        assert set(read(db, "t", 1)) == {(1, "x")}

    def test_frame_reset_per_vertex(self, graph):
        db = self.make(graph)
        frame = db.begin_vertex(0)
        frame["vertex_value"] = [(0, 1.0)]
        assert read(db, "vertex_value", 0) == [(0, 1.0)]
        assert db.begin_vertex(1) == {}
        assert list(read(db, "vertex_value", 1)) == []
        assert db.local.relations() == []

    def test_derived_visible_locally(self, graph):
        db = self.make(graph)
        db.begin_vertex(0)
        db.add("derivedrel", (0, 7))
        assert set(read(db, "derivedrel", 0)) == {(0, 7)}

    def test_static_relations(self, graph):
        db = self.make(graph)
        db.begin_vertex(0)
        assert list(read(db, "edge", 0)) == [(0, 1)]
        assert read(db, "edge", 1, time=3) == [(1, 2)]  # any vertex's edges

    def test_timed_local_reads(self, graph):
        db = self.make(graph)
        db.local.add_timed("value", 0, (0, 1.0, 0), 0)
        db.local.add_timed("value", 0, (0, 2.0, 1), 1)
        db.begin_vertex(0)
        assert list(read(db, "value", 0, time=1)) == [(0, 2.0, 1)]
        assert len(read(db, "value", 0)) == 2

    def test_unsliced_read_is_the_whole_partition(self, graph):
        db = self.make(graph)
        for i in range(40):
            db.add("derivedrel", (0, i))
        db.begin_vertex(0)
        assert read(db, "derivedrel", 0) == {(0, i) for i in range(40)}
        assert list(read(db, "derivedrel", 1)) == []  # nothing shipped
