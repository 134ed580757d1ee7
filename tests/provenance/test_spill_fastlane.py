"""Spill tests: the seal/rebuild round trip, what a seal leaves behind,
and failure semantics."""

import gc
import os
import weakref

import pytest

from repro.errors import ProvenanceError
from repro.provenance.model import RelationSchema, TOPO_EDGE
from repro.provenance import spill as spill_module
from repro.provenance.spill import SpillManager, rebuild_store
from repro.provenance.store import ProvenanceStore
from tests.conftest import slab_chunks


def _populated_store() -> ProvenanceStore:
    s = ProvenanceStore()
    s.registry.register(RelationSchema("prov_edges", 2, topology=TOPO_EDGE))
    for v in range(8):
        for t in range(3):
            s.add("value", (v, float(v) / (t + 1), t))
            s.add("superstep", (v, t))
        s.add("send_message", (v, (v + 1) % 8, "tag", 0))
        s.add("prov_edges", (v, (v + 1) % 8))
    return s


def _store_dict(store):
    return {
        relation: sorted(store.rows(relation), key=repr)
        for relation in sorted(store.relations())
    }


class TestRoundTripMatrix:
    def test_seal_all_rebuild_identity(self, tmp_path):
        store = _populated_store()
        with SpillManager(store, directory=str(tmp_path)) as spill:
            total = spill.seal_all()
            assert total == spill.bytes_spilled > 0
            rebuilt = rebuild_store(spill)
        assert _store_dict(rebuilt) == _store_dict(store)
        assert rebuilt.total_bytes() == store.total_bytes()
        assert rebuilt.registry.get("prov_edges").topology == TOPO_EDGE

    def test_layer_readback(self, tmp_path):
        store = _populated_store()
        with SpillManager(store, directory=str(tmp_path)) as spill:
            for t in range(store.num_layers):
                spill.seal_layer(t)
            layer = slab_chunks(spill.open_columnar_slab(1))
            assert layer["value"][0] == [(0, 0.0, 1)]

    def test_sealed_manager_is_collectable(self, tmp_path):
        # Nothing outlives a seal to hold the manager (and its store):
        # a capture loop must not leak one store per capture.
        store = _populated_store()
        spill = SpillManager(store, directory=str(tmp_path))
        spill.seal_layer(0)
        spill.seal_all()
        spill.seal_layer(1)  # a re-seal after seal_all
        spill.seal_all()
        ref = weakref.ref(spill)
        del spill
        gc.collect()
        assert ref() is None


def _torn_open(path, mode):
    """``open`` for the spill module whose files take half of a write,
    then fail: a disk that fills up mid-slab."""
    fh = open(path, mode)

    class Torn:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            fh.close()

        def write(self, blob):
            fh.write(blob[:len(blob) // 2])
            raise OSError("disk full")

    return Torn()


class TestSealFailure:
    """A seal writes ``<slab>.tmp`` and renames it over the slab: a failed
    seal raises at that call and leaves the old slab or none, never a
    torn one."""

    def test_failed_write_raises_at_that_seal(self, tmp_path, monkeypatch):
        spill = SpillManager(_populated_store(), directory=str(tmp_path))
        monkeypatch.setattr(spill_module, "open", _torn_open, raising=False)
        with pytest.raises(ProvenanceError,
                           match=r"layer-000000\.slab.*disk full"):
            spill.seal_layer(0)
        assert os.listdir(tmp_path) == []  # no slab, no .tmp
        assert list(spill.sealed_layers()) == []
        assert spill.bytes_spilled == 0 and spill.slab_digests == {}
        spill.close()

    def test_failed_reseal_keeps_the_old_slab(self, tmp_path, monkeypatch):
        store = _populated_store()
        spill = SpillManager(store, directory=str(tmp_path))
        spill.seal_all()
        path = spill.slab_path(1)
        with open(path, "rb") as fh:
            before = fh.read()
        digests = dict(spill.slab_digests)
        store.add("value", (0, 9.0, 1))  # a late row: layer 1 is re-sealed
        monkeypatch.setattr(spill_module, "open", _torn_open, raising=False)
        with pytest.raises(ProvenanceError, match="disk full"):
            spill.seal_layer(1)
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert not os.path.exists(path + ".tmp")
        assert spill.slab_digests == digests
        spill.close()

    def test_manager_stays_usable(self, tmp_path, monkeypatch):
        store = _populated_store()
        spill = SpillManager(store, directory=str(tmp_path))

        def boom(*args, **kwargs):
            raise ValueError("cannot encode")

        with monkeypatch.context() as patch:
            patch.setattr(spill_module, "encode_columnar_slab", boom)
            with pytest.raises(ProvenanceError, match="cannot encode"):
                spill.seal_static()
        total = spill.seal_all()
        assert total == spill.bytes_spilled > 0
        assert _store_dict(rebuild_store(spill)) == _store_dict(store)
        spill.close()  # raises nothing
        assert not os.path.exists(tmp_path / "static.slab")


class TestTolerantClose:
    def test_close_with_missing_slab_files(self, tmp_path):
        store = _populated_store()
        spill = SpillManager(store, directory=str(tmp_path))
        spill.seal_all()
        os.unlink(spill.slab_path(0))  # partially torn down externally
        spill.close()
        assert not os.path.exists(spill.slab_path(1))

    def test_close_before_any_seal(self, tmp_path):
        spill = SpillManager(_populated_store(), directory=str(tmp_path))
        spill.close()  # no static slab, no layers: must not raise
