"""Unit tests for the compact provenance store."""

import pytest

from repro.errors import ProvenanceError
from repro.provenance.store import _EMPTY_ROWS, ProvenanceStore


@pytest.fixture
def store() -> ProvenanceStore:
    s = ProvenanceStore()
    s.add("value", (0, 1.5, 0))
    s.add("value", (0, 1.2, 1))
    s.add("value", (1, 9.0, 1))
    s.add("superstep", (0, 0))
    s.add("superstep", (0, 1))
    s.add("send_message", (0, 1, "m", 0))
    return s


class TestWrites:
    def test_add_dedupes(self, store):
        assert not store.add("value", (0, 1.5, 0))
        assert store.num_rows == 6

    def test_arity_checked(self, store):
        with pytest.raises(ProvenanceError):
            store.add("value", (0, 1.5))

    def test_unknown_relation_rejected(self, store):
        with pytest.raises(ProvenanceError):
            store.add("mystery", (0,))

    def test_add_batch_counts_new(self, store):
        added = store.add_batch("value", [(0, 1.5, 0), (2, 3.0, 0)])
        assert added == 1


class TestReads:
    def test_partition(self, store):
        assert store.partition("value", 0) == {(0, 1.5, 0), (0, 1.2, 1)}
        assert store.partition("value", 99) == set()
        assert store.partition("missing", 0) == set()

    def test_partition_at(self, store):
        assert store.partition_at("value", 0, 1) == {(0, 1.2, 1)}
        assert store.partition_at("value", 0, 7) == set()

    def test_rows(self, store):
        assert sorted(store.rows("superstep")) == [(0, 0), (0, 1)]

    def test_vertices(self, store):
        assert store.vertices("value") == {0, 1}
        assert store.vertices() == {0, 1}

    def test_layer_slices_by_time(self, store):
        layer1 = store.layer(1)
        assert layer1["value"] == {0: {(0, 1.2, 1)}, 1: {(1, 9.0, 1)}}
        assert layer1["superstep"] == {0: {(0, 1)}}
        assert "send_message" not in layer1

    def test_max_superstep_and_layers(self, store):
        assert store.max_superstep == 1
        assert store.num_layers == 2

    def test_execution_nodes(self, store):
        nodes = store.execution_nodes()
        assert (0, 0) in nodes and (0, 1) in nodes and (1, 1) in nodes

    def test_miss_slices_share_one_frozenset(self, store):
        # Partition/slice misses are the common case on sparse relations;
        # they must all return the one immutable empty set, not allocate.
        miss = store.partition_at("value", 0, 10_000)
        assert miss is _EMPTY_ROWS
        assert store.partition("value", 77) is _EMPTY_ROWS
        assert store.partition_at("value", 77, 0) is _EMPTY_ROWS
        assert isinstance(miss, frozenset)
        with pytest.raises(AttributeError):
            miss.add((1, 2.0, 3))


class TestAccounting:
    def test_bytes_positive_and_monotone(self, store):
        before = store.total_bytes()
        store.add("value", (5, 1.0, 0))
        assert store.total_bytes() > before

    def test_relation_bytes(self, store):
        per_rel = store.relation_bytes()
        assert set(per_rel) == {"value", "superstep", "send_message"}
        assert all(v > 0 for v in per_rel.values())

    def test_counts(self, store):
        assert store.counts() == {
            "value": 3,
            "superstep": 2,
            "send_message": 1,
        }

    def test_empty_store(self):
        s = ProvenanceStore()
        assert s.num_rows == 0
        assert s.total_bytes() == 0
        assert s.num_layers == 0
        assert s.max_superstep == -1
