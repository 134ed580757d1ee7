"""Tests for the run catalog: digest-verified admission, one open handle
per store, prepared-plan caching, and on-disk invalidation."""

import io
import os
import shutil
import tarfile
import time

import pytest

from repro.core import queries as Q
from repro.serve.catalog import AdmissionError, RunCatalog


def lineage_params(store):
    sigma = store.max_superstep
    alpha = min(x for x, i in store.rows("superstep") if i == sigma)
    return {"alpha": alpha, "sigma": sigma}


class TestAdmission:
    def test_register_verifies_and_opens(self, catalog, sssp_store):
        entry, created = catalog.register_path(sssp_store)
        assert created
        assert entry.store.num_rows > 0
        assert entry.run_id
        assert len(catalog) == 1

    def test_tampered_store_rejected(self, catalog, sssp_store, tmp_path):
        tampered = str(tmp_path / "tampered")
        shutil.copytree(sssp_store, tampered)
        slabs = [n for n in os.listdir(tampered) if n.endswith(".slab")]
        with open(os.path.join(tampered, slabs[0]), "ab") as fh:
            fh.write(b"corruption")
        with pytest.raises(AdmissionError) as excinfo:
            catalog.register_path(tampered)
        assert excinfo.value.problems
        assert len(catalog) == 0  # nothing admitted

    def test_not_a_store_rejected(self, catalog, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(AdmissionError):
            catalog.register_path(str(empty))

    def test_verify_can_be_disabled(self, catalog, sssp_store, tmp_path):
        """A store whose manifest digests no longer match its slabs is
        rejected, though the slabs themselves are still readable:
        admission always verifies, and there is no switch to turn it
        off."""
        import json
        drifted = str(tmp_path / "drifted")
        shutil.copytree(sssp_store, drifted)
        manifest_path = os.path.join(drifted, "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        for slab in manifest["slabs"].values():
            slab["sha256"] = "0" * 64
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(AdmissionError) as excinfo:
            catalog.register_path(drifted)
        assert excinfo.value.problems
        assert len(catalog) == 0
        with pytest.raises(TypeError):
            RunCatalog(verify=False)


class TestOneHandlePerStore:
    def test_same_path_returns_same_entry(self, catalog, sssp_store):
        first, created_first = catalog.register_path(sssp_store)
        second, created_second = catalog.register_path(sssp_store)
        assert created_first and not created_second
        assert first is second
        assert len(catalog) == 1

    def test_copied_directory_aliases_same_run(self, catalog, sssp_store,
                                               tmp_path):
        """The run id is content-derived, so a byte-identical copy maps
        to the already-open handle instead of a second store object."""
        copy = str(tmp_path / "copy")
        shutil.copytree(sssp_store, copy)
        original, _ = catalog.register_path(sssp_store)
        aliased, created = catalog.register_path(copy)
        assert aliased is original
        assert not created
        assert len(catalog) == 1

    def test_distinct_stores_get_distinct_entries(self, catalog, sssp_store,
                                                  pagerank_store):
        a, _ = catalog.register_path(sssp_store)
        b, _ = catalog.register_path(pagerank_store)
        assert a is not b
        assert a.run_id != b.run_id
        assert len(catalog) == 2
        assert catalog.get(a.run_id) is a
        assert catalog.get(b.run_id) is b


class TestPlanCache:
    def test_hit_after_miss(self, catalog, sssp_store):
        entry, _ = catalog.register_path(sssp_store)
        params = lineage_params(entry.store)
        with entry.eval_lock:
            _, outcome = entry.prepare(
                Q.BACKWARD_LINEAGE_FULL_QUERY, params, "layered")
            assert outcome == "miss"
            compiled, outcome = entry.prepare(
                Q.BACKWARD_LINEAGE_FULL_QUERY, params, "layered")
            assert outcome == "hit"
        assert entry.plan_hits == 1 and entry.plan_misses == 1
        assert compiled is not None

    def test_key_includes_params_and_mode(self, catalog, sssp_store):
        entry, _ = catalog.register_path(sssp_store)
        base = lineage_params(entry.store)
        variants = [
            (base, "layered"),
            ({**base, "sigma": 0}, "layered"),
            (base, "naive"),
        ]
        with entry.eval_lock:
            for params, mode in variants:
                _, outcome = entry.prepare(
                    Q.BACKWARD_LINEAGE_FULL_QUERY, params, mode)
                assert outcome == "miss"
        assert entry.plan_misses == len(variants)
        assert entry.plan_cache_len == len(variants)

    def test_lru_eviction(self, catalog, sssp_store, monkeypatch):
        from repro.serve import catalog as catalog_module

        entry, _ = catalog.register_path(sssp_store)
        monkeypatch.setattr(catalog_module, "PLAN_CACHE_SIZE", 2)
        with entry.eval_lock:
            for sigma in (0, 1, 2):
                entry.prepare(Q.BACKWARD_LINEAGE_FULL_QUERY,
                              {"alpha": 0, "sigma": sigma}, "layered")
            assert entry.plan_cache_len == 2
            # sigma=0 was evicted; re-preparing it is a miss again.
            _, outcome = entry.prepare(
                Q.BACKWARD_LINEAGE_FULL_QUERY,
                {"alpha": 0, "sigma": 0}, "layered")
            assert outcome == "miss"


class TestInvalidation:
    def test_mtime_change_same_content_is_cheap(self, catalog, sssp_store):
        entry, _ = catalog.register_path(sssp_store)
        manifest = os.path.join(sssp_store, "manifest.json")
        os.utime(manifest, ns=(time.time_ns(), time.time_ns()))
        assert entry.ensure_fresh() is False
        assert entry.reloads == 0

    def test_content_change_reloads_and_drops_plans(self, catalog,
                                                    sssp_store, tmp_path):
        # Work on a copy so the session-scoped store stays pristine.
        copy = str(tmp_path / "reseal")
        shutil.copytree(sssp_store, copy)
        entry, _ = catalog.register_path(copy)
        with entry.eval_lock:
            entry.prepare(Q.BACKWARD_LINEAGE_FULL_QUERY,
                          lineage_params(entry.store), "layered")
        assert entry.plan_cache_len == 1
        old_spill, old_session = entry.spill, entry.store
        manifest = os.path.join(copy, "manifest.json")
        with open(manifest) as fh:
            text = fh.read()
        # A cosmetic rewrite changes the digest without breaking
        # verification (whitespace is not part of slab digests).
        with open(manifest, "w") as fh:
            fh.write(text.replace("{", "{\n", 1))
        assert entry.ensure_fresh() is True
        assert entry.reloads == 1
        assert entry.plan_cache_len == 0
        assert entry.store.num_rows > 0
        # a new manager's session; the old manager's handles are closed
        assert entry.spill is not old_spill
        assert entry.store is not old_session
        assert entry.store is entry.store
        assert old_spill._open_slabs == {}

    def test_manifest_disappearing_is_admission_error(self, catalog,
                                                      sssp_store, tmp_path):
        copy = str(tmp_path / "gone")
        shutil.copytree(sssp_store, copy)
        entry, _ = catalog.register_path(copy)
        os.unlink(os.path.join(copy, "manifest.json"))
        with pytest.raises(AdmissionError):
            entry.ensure_fresh()


class TestUpload:
    def _tar_of(self, directory: str, prefix: str = "") -> bytes:
        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w") as tar:
            for name in sorted(os.listdir(directory)):
                tar.add(os.path.join(directory, name),
                        arcname=prefix + name)
        return buffer.getvalue()

    def test_upload_round_trip(self, sssp_store, tmp_path):
        catalog = RunCatalog(data_dir=str(tmp_path / "uploads"))
        entry, created = catalog.register_upload(self._tar_of(sssp_store))
        assert created
        assert entry.store.num_rows > 0
        assert entry.directory.startswith(str(tmp_path / "uploads"))

    def test_upload_nested_names_flattened(self, sssp_store, tmp_path):
        catalog = RunCatalog(data_dir=str(tmp_path / "uploads"))
        tar_bytes = self._tar_of(sssp_store, prefix="some/deep/dir/")
        entry, _ = catalog.register_upload(tar_bytes)
        assert entry.store.num_rows > 0

    def test_upload_traversal_rejected(self, sssp_store, tmp_path):
        catalog = RunCatalog(data_dir=str(tmp_path / "uploads"))
        tar_bytes = self._tar_of(sssp_store, prefix="../escape/")
        with pytest.raises(AdmissionError, match="unsafe"):
            catalog.register_upload(tar_bytes)

    def test_upload_garbage_rejected(self, tmp_path):
        catalog = RunCatalog(data_dir=str(tmp_path / "uploads"))
        with pytest.raises(AdmissionError):
            catalog.register_upload(b"this is not a tar archive")

    def test_upload_of_known_run_aliases(self, sssp_store, tmp_path):
        catalog = RunCatalog(data_dir=str(tmp_path / "uploads"))
        original, _ = catalog.register_path(sssp_store)
        uploaded, created = catalog.register_upload(self._tar_of(sssp_store))
        assert uploaded is original
        assert not created
        assert len(catalog) == 1
