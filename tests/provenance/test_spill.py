"""Unit tests for layer spilling (the HDFS offload stand-in)."""

import os

import pytest

from repro.errors import ProvenanceError
from repro.provenance.model import RelationSchema, TOPO_EDGE
from repro.provenance.spill import SpillManager, rebuild_store
from repro.provenance.store import ProvenanceStore
from tests.conftest import slab_chunks


@pytest.fixture
def store() -> ProvenanceStore:
    s = ProvenanceStore()
    s.registry.register(RelationSchema("prov_edges", 2, topology=TOPO_EDGE))
    s.add("value", (0, 1.0, 0))
    s.add("value", (0, 2.0, 1))
    s.add("value", (1, 3.0, 1))
    s.add("superstep", (0, 0))
    s.add("prov_edges", (0, 1))
    return s


class TestSpill:
    def test_seal_and_load_layer(self, store, tmp_path):
        with SpillManager(store, directory=str(tmp_path)) as spill:
            size = spill.seal_layer(1)
            assert size > 0
            layer = slab_chunks(spill.open_columnar_slab(1))
            assert layer["value"][0] == [(0, 2.0, 1)]
            assert layer["value"][1] == [(1, 3.0, 1)]

    def test_load_unsealed_raises(self, store, tmp_path):
        with SpillManager(store, directory=str(tmp_path)) as spill:
            with pytest.raises(ProvenanceError):
                spill.open_columnar_slab(0)

    def test_static_slab_holds_timeless_and_schemas(self, store, tmp_path):
        with SpillManager(store, directory=str(tmp_path)) as spill:
            spill.seal_static()
            static = slab_chunks(spill.open_columnar_slab("static"))
            meta = static["\x00meta"]
            assert static["prov_edges"][0] == [(0, 1)]
            assert meta["schemas"]["prov_edges"].topology == TOPO_EDGE
            assert meta["num_layers"] == 2

    def test_seal_all_and_rebuild(self, store, tmp_path):
        with SpillManager(store, directory=str(tmp_path)) as spill:
            total = spill.seal_all()
            assert total == spill.bytes_spilled > 0
            rebuilt = rebuild_store(spill)
        assert rebuilt.num_rows == store.num_rows
        assert rebuilt.partition("value", 0) == store.partition("value", 0)
        assert rebuilt.partition("prov_edges", 0) == {(0, 1)}
        assert rebuilt.registry.get("prov_edges").topology == TOPO_EDGE

    def test_close_removes_slabs(self, store, tmp_path):
        spill = SpillManager(store, directory=str(tmp_path))
        spill.seal_all()
        paths = [spill.slab_path(i) for i in range(store.num_layers)]
        assert all(os.path.exists(p) for p in paths)
        spill.close()
        assert not any(os.path.exists(p) for p in paths)
