"""Tests for the run ledger and audit verification (repro.obs.ledger)."""

import json
import os

import pytest

from repro.errors import ReproError
from repro.graph.generators import chain_graph, web_graph, with_random_weights
from repro.obs.ledger import (
    RunLedger,
    canonical_json,
    compare_records,
    dataset_fingerprint,
    digest_graph,
    digest_rows,
    digest_values,
    environment_fingerprint,
    make_record,
    manifest_digest,
    new_run_id,
    render_comparison,
    store_fingerprint,
    verify_record,
    verify_store,
)
from repro.provenance.spill import (
    MANIFEST_FILENAME,
    SpillManager,
    read_manifest,
)
from repro.provenance.store import ProvenanceStore


def _sealed_store(tmp_path, run_id=None):
    store = ProvenanceStore()
    store.add("value", (1, 0.5, 0))
    store.add("value", (2, 0.25, 1))
    spill = SpillManager(store, directory=str(tmp_path / "prov"))
    spill.run_id = run_id
    spill.seal_all()
    return spill


class TestDigests:
    def test_values_digest_is_order_insensitive(self):
        a = {1: 0.5, 2: 0.25, 3: 0.125}
        b = dict(reversed(list(a.items())))
        assert digest_values(a) == digest_values(b)
        assert digest_values(a) != digest_values({**a, 3: 0.0})

    def test_rows_digest_is_order_insensitive(self):
        a = {"r": [(1, 2), (3, 4)], "s": [(5,)]}
        b = {"s": [(5,)], "r": [(3, 4), (1, 2)]}
        assert digest_rows(a) == digest_rows(b)
        assert digest_rows(a) != digest_rows({"r": [(1, 2)], "s": [(5,)]})

    def test_graph_digest_tracks_content_not_construction(self):
        g1 = chain_graph(10)
        g2 = chain_graph(10)
        assert digest_graph(g1) == digest_graph(g2)
        g2.add_edge(0, 9)
        assert digest_graph(g1) != digest_graph(g2)

    def test_dataset_fingerprint_shape(self):
        g = with_random_weights(web_graph(20, seed=3), seed=3)
        fp = dataset_fingerprint(g, source="web-20")
        assert fp["vertices"] == 20
        assert fp["edges"] == g.num_edges
        assert len(fp["edges_sha256"]) == 64
        assert fp["source"] == "web-20"

    def test_canonical_json_is_key_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )


class TestRunIds:
    def test_same_content_same_id(self):
        a = new_run_id("capture", {"x": 1}, started_ns=123)
        b = new_run_id("capture", {"x": 1}, started_ns=123)
        assert a == b and a.startswith("r") and len(a) == 17

    def test_content_changes_id(self):
        base = new_run_id("capture", {"x": 1}, started_ns=123)
        assert new_run_id("capture", {"x": 2}, started_ns=123) != base
        assert new_run_id("query", {"x": 1}, started_ns=123) != base
        assert new_run_id("capture", {"x": 1}, started_ns=124) != base


class TestRunLedger:
    def test_append_and_read_roundtrip(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        record = ledger.append(make_record("run", analytic="sssp"))
        assert record["run_id"].startswith("r")
        assert os.path.exists(ledger.path)
        (back,) = ledger.records()
        assert back["run_id"] == record["run_id"]
        assert back["command"] == "run"
        assert back["environment"]["usable_cores"] >= 1

    def test_missing_ledger_reads_empty(self, tmp_path):
        assert RunLedger(str(tmp_path / "nope")).records() == []

    def test_get_by_prefix_and_latest(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        first = ledger.append(make_record("capture"))
        second = ledger.append(make_record("query",
                                           parent_run_id=first["run_id"]))
        assert ledger.get(first["run_id"][:8])["run_id"] == first["run_id"]
        assert ledger.latest()["run_id"] == second["run_id"]
        assert ledger.latest("capture")["run_id"] == first["run_id"]
        assert ledger.resolve("latest:query")["run_id"] == second["run_id"]
        with pytest.raises(ReproError):
            ledger.get("rdoesnotexist0000")

    def test_corrupt_line_raises(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        ledger.append(make_record("run"))
        with open(ledger.path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(ReproError, match="corrupt"):
            ledger.records()

    def test_environment_fingerprint_fields(self):
        env = environment_fingerprint()
        assert set(env) >= {"python", "platform", "usable_cores",
                            "package_version"}
        assert env["package_version"]


class TestManifestStamping:
    def test_seal_all_writes_manifest_with_digests(self, tmp_path):
        spill = _sealed_store(tmp_path, run_id="rcafe")
        manifest = read_manifest(spill.directory)
        assert manifest["run_id"] == "rcafe"
        assert set(manifest["slabs"]) == {
            "static.slab", "layer-000000.slab", "layer-000001.slab",
        }
        for entry in manifest["slabs"].values():
            assert len(entry["sha256"]) == 64
            assert entry["bytes"] > 0

    def test_open_reads_back_run_id_and_digests(self, tmp_path):
        spill = _sealed_store(tmp_path, run_id="rbeef")
        reopened = SpillManager.open(spill.directory)
        assert reopened.run_id == "rbeef"
        assert reopened.slab_digests == spill.slab_digests

    def test_close_removes_manifest(self, tmp_path):
        spill = _sealed_store(tmp_path)
        path = os.path.join(spill.directory, MANIFEST_FILENAME)
        assert os.path.exists(path)
        spill.close()
        assert not os.path.exists(path)


class TestVerification:
    def test_fresh_store_verifies_clean(self, tmp_path):
        spill = _sealed_store(tmp_path)
        problems, details = verify_store(spill.directory)
        assert problems == []
        assert set(details["recomputed"]) == set(spill.slab_digests)

    def test_tampered_slab_is_detected(self, tmp_path):
        spill = _sealed_store(tmp_path)
        slab = os.path.join(spill.directory, "layer-000000.slab")
        with open(slab, "r+b") as fh:
            fh.seek(8)
            fh.write(b"\xff\xff")
        problems, _ = verify_store(spill.directory)
        assert any("layer-000000.slab" in p and "drift" in p
                   for p in problems)

    def test_missing_and_foreign_slabs_are_detected(self, tmp_path):
        spill = _sealed_store(tmp_path)
        os.unlink(os.path.join(spill.directory, "layer-000001.slab"))
        with open(os.path.join(spill.directory, "layer-000099.slab"),
                  "wb") as fh:
            fh.write(b"rogue")
        problems, _ = verify_store(spill.directory)
        assert any("layer-000001.slab" in p and "missing" in p
                   for p in problems)
        assert any("layer-000099.slab" in p and "not in the manifest" in p
                   for p in problems)

    def test_unsealed_store_reports_no_manifest(self, tmp_path):
        directory = tmp_path / "empty"
        directory.mkdir()
        problems, _ = verify_store(str(directory))
        assert len(problems) == 1 and "manifest" in problems[0]

    def test_verify_record_follows_query_parent(self, tmp_path):
        spill = _sealed_store(tmp_path)
        ledger = RunLedger(str(tmp_path))
        capture = ledger.append(make_record("capture", results={
            "store": store_fingerprint(spill),
        }))
        query = ledger.append(make_record(
            "query", parent_run_id=capture["run_id"],
        ))
        assert verify_record(query, ledger) == []
        # break the parent's store; the query record now fails too
        with open(os.path.join(spill.directory, "static.slab"), "ab") as fh:
            fh.write(b"x")
        assert verify_record(query, ledger) != []

    def test_verify_record_flags_orphan_parent(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        query = ledger.append(make_record("query", parent_run_id="rgone"))
        problems = verify_record(query, ledger)
        assert any("rgone" in p for p in problems)

    def test_ledger_drift_vs_manifest(self, tmp_path):
        """Rewriting manifest + slab together still trips the ledger diff."""
        spill = _sealed_store(tmp_path)
        ledger = RunLedger(str(tmp_path))
        record = ledger.append(make_record("capture", results={
            "store": store_fingerprint(spill),
        }))
        # tamper, then re-stamp the manifest so it matches the tampered
        # slab (an attacker covering their tracks on disk)
        slab = os.path.join(spill.directory, "layer-000000.slab")
        with open(slab, "ab") as fh:
            fh.write(b"y")
        from repro.obs.ledger import digest_file

        manifest = read_manifest(spill.directory)
        manifest["slabs"]["layer-000000.slab"] = {
            "sha256": digest_file(slab), "bytes": os.path.getsize(slab),
        }
        with open(os.path.join(spill.directory, MANIFEST_FILENAME), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh)
        problems = verify_record(record, ledger)
        assert any("ledger drift" in p for p in problems)


class TestComparison:
    def _record(self, wall, messages, digest="d1"):
        return make_record(
            "run", wall_seconds=wall,
            metrics={"supersteps": 5, "messages": messages,
                     "wall_seconds": wall},
            results={"values_sha256": digest},
        )

    def test_within_threshold_is_ok(self):
        cmp = compare_records(self._record(1.0, 100),
                              self._record(1.05, 100), threshold=0.10)
        assert not cmp["regressed"]
        assert cmp["values_digests_match"] is True
        assert cmp["metrics"]["messages"]["delta"] == 0

    def test_over_threshold_regresses(self):
        cmp = compare_records(self._record(1.0, 100),
                              self._record(1.5, 120), threshold=0.10)
        assert cmp["regressed"]
        assert cmp["metrics"]["messages"]["ratio"] == pytest.approx(1.2)
        text = render_comparison(cmp)
        assert "REGRESSED" in text

    def test_digest_mismatch_is_reported(self):
        cmp = compare_records(self._record(1.0, 100, "d1"),
                              self._record(1.0, 100, "d2"))
        assert cmp["values_digests_match"] is False
        assert "DIFFER" in render_comparison(cmp)

    def test_manifest_digest_depends_only_on_hashes(self):
        slabs_a = {"x.slab": {"sha256": "aa", "bytes": 1}}
        slabs_b = {"x.slab": {"sha256": "aa", "bytes": 2}}
        assert manifest_digest(slabs_a) == manifest_digest(slabs_b)
        slabs_c = {"x.slab": {"sha256": "bb", "bytes": 1}}
        assert manifest_digest(slabs_a) != manifest_digest(slabs_c)


class TestLibraryOptIn:
    """There is no library opt-in (``EngineConfig`` has no ``ledger_dir``):
    the CLI and the server write the ledger records."""

    def test_no_ledger_dir_records_nothing(self, tmp_path):
        from repro.analytics.sssp import SSSP
        from repro.core import queries as Q
        from repro.core.ariadne import Ariadne

        g = with_random_weights(web_graph(20, seed=6), seed=6)
        ariadne = Ariadne(g, SSSP(source=0))
        ariadne.baseline()
        result = ariadne.capture(spill_directory=str(tmp_path / "prov"))
        result.spill.seal_all()
        ariadne.query_offline(result.store, Q.SSSP_WCC_STABILITY_QUERY)
        assert [p.name for p in tmp_path.iterdir()] == ["prov"]
        assert not list(tmp_path.rglob("ledger.jsonl"))
