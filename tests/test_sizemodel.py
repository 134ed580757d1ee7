"""Unit tests for the serialized-size model."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import from_edge_list
from repro.sizemodel import (
    column_bytes,
    estimate_bytes,
    exact_kind,
    graph_bytes,
    row_prefix_bytes,
)


class TestEstimateBytes:
    def test_scalars(self):
        assert estimate_bytes(5) == 8
        assert estimate_bytes(1.5) == 8
        assert estimate_bytes(True) == 1
        assert estimate_bytes(None) == 1

    def test_strings(self):
        assert estimate_bytes("") == 4
        assert estimate_bytes("abcd") == 8
        assert estimate_bytes(b"xy") == 6

    def test_containers(self):
        assert estimate_bytes((1, 2)) == 4 + 16
        assert estimate_bytes([1, 2, 3]) == 4 + 24
        assert estimate_bytes({"k": 1}) == 4 + (4 + 1) + 8

    def test_nested(self):
        assert estimate_bytes(((1,), (2, 3))) == 4 + (4 + 8) + (4 + 16)

    def test_numpy(self):
        arr = np.zeros(4, dtype=np.float64)
        assert estimate_bytes(arr) == 4 + 32

    def test_unknown_object_uses_repr(self):
        class Thing:
            def __repr__(self):
                return "thing"

        assert estimate_bytes(Thing()) == 4 + 5

    def test_deterministic(self):
        v = (1, "abc", (2.5, None))
        assert estimate_bytes(v) == estimate_bytes(v)


#: Values of every exact type a captured column holds, and the ones that
#: must not pass for them: ``bool`` for ``int``, ints outside i64, NaN,
#: ``None``, surrogate strings, bytes, tuples, a numpy scalar.
_values = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=2 ** 63, max_value=2 ** 70),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(alphabet=st.sampled_from("ab\ud800\udfff\u00e9"), max_size=4),
    st.binary(max_size=3),
    st.tuples(st.integers(min_value=0, max_value=3), st.booleans()),
    st.floats(width=32).map(np.float32),
)


class TestColumnBytes:
    def test_exact_kind_is_exact(self):
        assert exact_kind([1, 2]) is int
        assert exact_kind([True, False]) is bool
        assert exact_kind([1, True]) is None
        assert exact_kind([1.0, np.float64(2.0)]) is None
        assert exact_kind([]) is None

    def test_homogeneous_columns(self):
        assert column_bytes([1, 2 ** 70, -3]) == 24
        assert column_bytes([0.5, float("nan")]) == 16
        assert column_bytes(["", "abc"]) == 4 + 7
        assert column_bytes([True, None]) == 2

    @settings(max_examples=200, deadline=None)
    @given(columns=st.integers(min_value=1, max_value=4).flatmap(
        lambda arity: st.lists(
            st.lists(_values, min_size=arity, max_size=arity), max_size=12)))
    def test_equals_the_row_model(self, columns):
        """Pricing per column equals ``estimate_bytes`` per value, and
        rows of those columns cost what ``estimate_bytes`` says a row
        tuple costs."""
        rows = [tuple(values) for values in columns]
        for column in zip(*rows):
            assert column_bytes(list(column)) == sum(
                map(estimate_bytes, column))
        by_column = [list(column) for column in zip(*rows)]
        assert row_prefix_bytes(len(rows)) + sum(
            map(column_bytes, by_column)) == sum(map(estimate_bytes, rows))

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from([int, float, bool, str]),
           values=st.lists(_values, max_size=8))
    def test_mixed_columns(self, kind, values):
        """A column of one type with any other value mixed in."""
        column = [kind()] + values
        assert column_bytes(column) == sum(map(estimate_bytes, column))


class TestGraphBytes:
    def test_counts_vertices_and_edges(self):
        g = from_edge_list([(0, 1), (1, 2)])
        # 4 + 3*8 vertices + 2 edges * (16 + value)
        expected = 4 + 24 + 2 * (16 + 1)  # value None = 1 byte
        assert graph_bytes(g) == expected

    def test_weighted_edges_cost_more(self):
        g1 = from_edge_list([(0, 1)])
        g2 = from_edge_list([(0, 1)])
        g2.set_edge_value(0, 1, 3.14)
        assert graph_bytes(g2) > graph_bytes(g1)

    def test_scales_with_size(self):
        small = from_edge_list([(i, i + 1) for i in range(10)])
        large = from_edge_list([(i, i + 1) for i in range(100)])
        assert graph_bytes(large) > graph_bytes(small) * 5
