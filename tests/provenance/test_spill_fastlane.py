"""Spill fast-lane tests: the seal/rebuild round trip, the asynchronous
writer, and failure semantics."""

import gc
import os
import weakref

import pytest

from repro.errors import ProvenanceError
from repro.provenance.model import RelationSchema, TOPO_EDGE
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

    def test_async_layer_readback_waits_for_writer(self, tmp_path):
        store = _populated_store()
        with SpillManager(store, directory=str(tmp_path)) as spill:
            for t in range(store.num_layers):
                spill.seal_layer_nowait(t)
            # opening a slab flushes implicitly; no explicit flush() needed.
            layer = slab_chunks(spill.open_columnar_slab(1))
            assert layer["value"][0] == [(0, 0.0, 1)]

    def test_seal_all_stops_the_writer(self, tmp_path):
        # An idle writer thread held the manager (and its store) for the
        # rest of the process: every capture in a loop leaked one store.
        store = _populated_store()
        spill = SpillManager(store, directory=str(tmp_path))
        spill.seal_layer_nowait(0)
        writer = spill._writer
        assert writer is not None and writer.is_alive()
        spill.seal_all()
        assert spill._writer is None and not writer.is_alive()
        spill.seal_layer_nowait(1)  # a re-seal starts a fresh writer
        assert spill._writer is not None
        spill.seal_all()
        assert spill._writer is None
        ref = weakref.ref(spill)
        del spill
        gc.collect()
        assert ref() is None


class TestWriterFailure:
    def _broken(self, tmp_path, monkeypatch):
        spill = SpillManager(_populated_store(), directory=str(tmp_path))

        def boom(job):
            raise OSError("disk detached")

        monkeypatch.setattr(spill, "_execute", boom)
        return spill

    def test_failure_surfaces_at_flush(self, tmp_path, monkeypatch):
        spill = self._broken(tmp_path, monkeypatch)
        spill.seal_layer_nowait(0)
        with pytest.raises(ProvenanceError, match="disk detached"):
            spill.flush()
        # The error is consumed once; the manager stays usable.
        spill.flush()
        spill.close()

    def test_failure_surfaces_at_next_seal(self, tmp_path, monkeypatch):
        spill = self._broken(tmp_path, monkeypatch)
        spill.seal_layer_nowait(0)
        spill._queue.join()  # let the writer record the failure
        with pytest.raises(ProvenanceError, match="disk detached"):
            spill.seal_layer_nowait(1)
        spill.close()

    def test_failure_surfaces_at_close(self, tmp_path, monkeypatch):
        spill = self._broken(tmp_path, monkeypatch)
        spill.seal_layer_nowait(0)
        spill._queue.join()
        with pytest.raises(ProvenanceError, match="disk detached"):
            spill.close()

    def test_later_jobs_skipped_after_failure(self, tmp_path, monkeypatch):
        store = _populated_store()
        spill = SpillManager(store, directory=str(tmp_path))
        real_execute = SpillManager._execute
        calls = []

        def first_fails(job):
            calls.append(job[0])
            if len(calls) == 1:
                raise OSError("disk detached")
            real_execute(spill, job)

        monkeypatch.setattr(spill, "_execute", first_fails)
        spill.seal_layer_nowait(0)
        spill.seal_layer_nowait(1)
        spill.seal_layer_nowait(2)
        with pytest.raises(ProvenanceError, match="disk detached"):
            spill.flush()
        # Jobs enqueued behind the failure were drained, not written.
        assert not os.path.exists(spill.slab_path(1))
        spill.close()


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
