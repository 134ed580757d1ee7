"""Tests for the JSON-lines provenance export."""

import io
import json
import math

import pytest

from repro.analytics.sssp import SSSP
from repro.core import queries as Q
from repro.errors import ProvenanceError
from repro.graph.generators import chain_graph
from repro.provenance.export import export_jsonl, export_path
from repro.provenance.model import RelationSchema, TOPO_EDGE
from repro.provenance.store import ProvenanceStore
from repro.runtime.online import run_online
from tests.conftest import expected_facts


@pytest.fixture
def store():
    g = chain_graph(4)
    for i in range(3):
        g.set_edge_value(i, i + 1, 1.0)
    return run_online(
        g, SSSP(source=0), Q.CAPTURE_FULL_QUERY, capture=True
    ).store


def exported(store):
    """The export as parsed JSON: (header, fact lines)."""
    buf = io.StringIO()
    written = export_jsonl(store, buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert written == len(lines) - 1
    return lines[0], lines[1:]


class TestRoundTrip:
    def test_store_roundtrip(self, store):
        header, facts = exported(store)
        assert len(facts) == store.num_rows
        assert facts == expected_facts(store)
        assert header["num_layers"] == store.num_layers
        assert header["schemas"] == {
            relation: {
                "arity": store.registry.get(relation).arity,
                "kind": store.registry.get(relation).kind,
                "time_index": store.registry.get(relation).time_index,
                "topology": store.registry.get(relation).topology,
            }
            for relation in store.relations()
        }

    def test_schemas_preserved(self, tmp_path):
        s = ProvenanceStore()
        s.registry.register(RelationSchema("prov_edges", 2, topology=TOPO_EDGE))
        s.add("prov_edges", (0, 1))
        path = str(tmp_path / "p.jsonl")
        assert export_path(s, path) == 1
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            facts = [json.loads(line) for line in fh]
        assert header["schemas"]["prov_edges"]["topology"] == TOPO_EDGE
        assert header["schemas"]["prov_edges"]["arity"] == 2
        assert facts == [{"r": "prov_edges", "t": [0, 1]}]

    def test_infinity_roundtrip(self):
        s = ProvenanceStore()
        s.add("value", (0, math.inf, 0))
        s.add("value", (1, -math.inf, 0))
        _header, facts = exported(s)
        assert facts == expected_facts(s) == [
            {"r": "value", "t": [0, {"$": "inf"}, 0]},
            {"r": "value", "t": [1, {"$": "-inf"}, 0]},
        ]

    def test_tuple_payloads_roundtrip(self):
        s = ProvenanceStore()
        s.add("edge_value", (0, 1, (4.0, 3.5, 0.5), 2))
        _header, facts = exported(s)
        assert facts == expected_facts(s) == [
            {"r": "edge_value", "t": [0, 1, [4.0, 3.5, 0.5], 2]},
        ]


class TestValidation:
    def test_header_is_json(self, store):
        buf = io.StringIO()
        export_jsonl(store, buf)
        buf.seek(0)
        header = json.loads(buf.readline())
        assert header["format"] == "repro-provenance"
        assert "value" in header["schemas"]

    def test_nan_rejected(self):
        s = ProvenanceStore()
        s.add("value", (0, float("nan"), 0))
        with pytest.raises(ProvenanceError, match="NaN"):
            export_jsonl(s, io.StringIO())
