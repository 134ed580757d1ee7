"""Batched ingestion tests: add_batch equivalence with per-row add,
attribute interning, and size-model exactness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProvenanceError
from repro.provenance.store import ProvenanceStore
from repro.sizemodel import estimate_bytes

ROWS = [
    (0, 1.5, 0),
    (0, 1.2, 1),
    (1, 9.0, 1),
    (0, 1.5, 0),  # duplicate
    (2, 0.25, 2),
]


def _store_dict(store):
    return {
        relation: sorted(store.rows(relation), key=repr)
        for relation in sorted(store.relations())
    }


class TestBatchEquivalence:
    def test_matches_per_row_add(self):
        batched = ProvenanceStore()
        added = batched.add_batch("value", ROWS)
        perrow = ProvenanceStore()
        count = sum(perrow.add("value", row) for row in ROWS)
        assert added == count == 4
        assert _store_dict(batched) == _store_dict(perrow)
        assert batched.total_bytes() == perrow.total_bytes()
        assert batched.num_rows == perrow.num_rows
        assert batched.max_superstep == perrow.max_superstep
        assert batched.counts() == perrow.counts()

    def test_time_slicing_matches(self):
        store = ProvenanceStore()
        store.add_batch("value", ROWS)
        assert store.partition_at("value", 0, 1) == {(0, 1.2, 1)}
        assert store.layer(2)["value"] == {2: {(2, 0.25, 2)}}

    def test_empty_batch_is_noop(self):
        store = ProvenanceStore()
        assert store.add_batch("value", []) == 0
        # An empty iterable never touches the registry, even for unknown
        # relations.
        assert store.add_batch("mystery", []) == 0
        assert store.num_rows == 0

    def test_arity_error_raised(self):
        store = ProvenanceStore()
        with pytest.raises(ProvenanceError):
            store.add_batch("value", [(0, 1.5, 0), (1, 2.0)])

    def test_unknown_relation_rejected(self):
        store = ProvenanceStore()
        with pytest.raises(ProvenanceError):
            store.add_batch("mystery", [(0,)])


class TestInterning:
    def test_string_attributes_share_objects(self):
        store = ProvenanceStore()
        prefix = "he"
        tag_a, tag_b = prefix + "llo", prefix + "llo"  # distinct objects
        assert tag_a is not tag_b
        store.add_batch("send_message", [(0, 1, tag_a, 0), (2, 3, tag_b, 0)])
        tags = {row[2] for row in store.rows("send_message")}
        assert tags == {"hello"}
        stored = [row[2] for row in store.rows("send_message")]
        assert stored[0] is stored[1]

    def test_per_row_add_interns_too(self):
        store = ProvenanceStore()
        store.add("send_message", (0, 1, "x" * 40, 0))
        store.add("send_message", (2, 3, "x" * 40, 0))
        stored = [row[2] for row in store.rows("send_message")]
        assert stored[0] is stored[1]


_scalar = st.one_of(
    st.integers(min_value=-10, max_value=10),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=6),
    st.booleans(),
    st.none(),
)
_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5), _scalar,
              st.integers(min_value=0, max_value=4)),
    max_size=40,
)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(rows=_rows)
    def test_interned_equals_plain(self, rows):
        """The batch lane (intern columns learned from the first row)
        equals the plain per-row path, and both price rows exactly as the
        ``estimate_bytes`` size model does."""
        batched = ProvenanceStore()
        batched.add_batch("value", rows)
        perrow = ProvenanceStore()
        for row in rows:
            perrow.add("value", row)
        assert _store_dict(batched) == _store_dict(perrow)
        expected = sum(estimate_bytes(row) for row in set(rows))
        assert batched.total_bytes() == perrow.total_bytes() == expected
        assert batched.num_rows == perrow.num_rows

    @settings(max_examples=50, deadline=None)
    @given(rows=_rows)
    def test_size_model_exact(self, rows):
        store = ProvenanceStore()
        store.add_batch("value", rows)
        expected = sum(estimate_bytes(row) for row in set(rows))
        assert store.total_bytes() == expected
