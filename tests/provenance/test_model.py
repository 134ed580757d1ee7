"""Unit tests for the provenance schema model and value freezing."""

import numpy as np
import pytest

from repro.errors import ProvenanceError
from repro.provenance.model import (
    AUTO_CAPTURED,
    CORE_SCHEMAS,
    PROV,
    STATIC,
    STREAM,
    TOPO_EDGE,
    TOPO_RECEIVE,
    TOPO_SEND,
    RelationSchema,
    SchemaRegistry,
    freeze,
)


class TestCoreSchemas:
    def test_table1_relations_present(self):
        for name in (
            "superstep",
            "value",
            "evolution",
            "send_message",
            "receive_message",
            "edge_value",
        ):
            assert name in CORE_SCHEMAS
            assert CORE_SCHEMAS[name].kind == PROV

    def test_stream_relations(self):
        for name in ("vertex_value", "send", "receive"):
            assert CORE_SCHEMAS[name].kind == STREAM

    def test_static_relations(self):
        assert CORE_SCHEMAS["vertex"].kind == STATIC
        assert CORE_SCHEMAS["edge"].kind == STATIC

    def test_topologies(self):
        assert CORE_SCHEMAS["receive_message"].topology == TOPO_RECEIVE
        assert CORE_SCHEMAS["send_message"].topology == TOPO_SEND
        assert CORE_SCHEMAS["edge"].topology == TOPO_EDGE
        assert CORE_SCHEMAS["value"].topology is None

    def test_time_indexes(self):
        assert CORE_SCHEMAS["superstep"].time_index == 1
        assert CORE_SCHEMAS["value"].time_index == 2
        assert CORE_SCHEMAS["send_message"].time_index == 3
        assert CORE_SCHEMAS["edge"].time_index is None

    def test_auto_captured_are_prov(self):
        for name in AUTO_CAPTURED:
            assert CORE_SCHEMAS[name].kind == PROV


class TestSchema:
    def test_check_arity(self):
        schema = RelationSchema("r", 2)
        schema.check((1, 2))
        with pytest.raises(ProvenanceError):
            schema.check((1, 2, 3))

    def test_time_and_location_of(self):
        schema = RelationSchema("r", 3, time_index=2)
        assert schema.time_of((7, "x", 4)) == 4
        assert schema.location_of((7, "x", 4)) == 7
        assert RelationSchema("q", 1).time_of((0,)) is None


class TestRegistry:
    def test_core_preloaded(self):
        reg = SchemaRegistry()
        assert "value" in reg
        assert reg.get("value").arity == 3

    def test_register_custom(self):
        reg = SchemaRegistry()
        schema = RelationSchema("prov_edges", 2, topology=TOPO_EDGE)
        reg.register(schema)
        assert reg.get("prov_edges") is schema

    def test_register_idempotent(self):
        reg = SchemaRegistry()
        schema = RelationSchema("r", 2)
        reg.register(schema)
        reg.register(RelationSchema("r", 2))  # identical: fine

    def test_register_conflict_raises(self):
        reg = SchemaRegistry()
        reg.register(RelationSchema("r", 2))
        with pytest.raises(ProvenanceError):
            reg.register(RelationSchema("r", 3))

    def test_unknown_relation(self):
        reg = SchemaRegistry()
        with pytest.raises(ProvenanceError):
            reg.get("nope")
        assert reg.maybe_get("nope") is None


class TestFreeze:
    def test_scalars_pass_through(self):
        for v in (1, 2.5, "s", b"b", True, None):
            assert freeze(v) == v

    def test_scalars_keep_their_identity_and_type(self):
        class Label(str):
            pass

        class Rank(int):
            pass

        for v in (10 ** 30, 2.5, "text", b"b", False, None, Label("x"),
                  Rank(3)):
            assert freeze(v) is v

    def test_list_and_set_become_tuples(self):
        assert freeze([1, 2]) == (1, 2)
        assert freeze({1}) == (1,)

    def test_nested(self):
        assert freeze([1, [2, 3]]) == (1, (2, 3))

    def test_dict_sorted(self):
        assert freeze({"b": 1, "a": 2}) == (("a", 2), ("b", 1))

    def test_numpy_array(self):
        frozen = freeze(np.array([1.0, 2.0]))
        assert frozen == (1.0, 2.0)
        hash(frozen)

    def test_result_always_hashable(self):
        hash(freeze({"k": [1, {2: np.array([3])}]}))

    def test_unhashable_object_falls_back_to_repr(self):
        class Weird:
            __hash__ = None

            def __repr__(self):
                return "weird"

        assert freeze(Weird()) == "weird"
