"""The sealed store: query identity across drivers and access paths,
out-of-core behavior, migration of retired formats, and corrupt-slab
handling.

ARSC (:mod:`repro.provenance.columnar`) is the only slab format the
library writes or queries. Stores in the two retired formats (framed-pickle
ARSL, bare pickle) are built here by the test-side ``retire_store`` writer
(``tests/conftest.py``) and must be refused by name everywhere —
``repro store migrate`` included, which leaves them byte-identical. A
store sealed uncompressed by an earlier release still opens, and migrates
to a store indistinguishable from a directly sealed one. Queries 2 and 11 are capture-time queries (they read
transient stream relations and cannot run offline); their guarantee is the
chunk-level one asserted by ``test_rebuilt_store_identical``.
"""

import os
import shutil

import pytest

from repro.analytics.sssp import SSSP
from repro.cli import main
from repro.core import queries as Q
from repro.errors import ProvenanceError
from repro.graph.generators import web_graph, with_random_weights
from repro.obs import ledger as obsledger
from repro.provenance import inspect as pinspect
from repro.provenance.columnar import ColumnarSlab, encode_columnar_slab
from repro.provenance.spill import (
    SpillManager,
    migrate_store,
    open_store_view,
    read_manifest,
    rebuild_store,
    slab_paths,
)
from repro.provenance.store import ProvenanceStore, Relations, SealedStoreView
from repro.runtime.offline import (
    run_layered_from_spill,
    run_naive,
    run_naive_from_spill,
    run_reference,
)
from repro.runtime.online import run_online
from tests.conftest import slab_chunks

RETIRED = ("pickle", "legacy")


@pytest.fixture(scope="module")
def wgraph():
    return with_random_weights(
        web_graph(120, avg_degree=5, target_diameter=8, seed=41), seed=41
    )


@pytest.fixture(scope="module")
def full_store(wgraph):
    return run_online(
        wgraph, SSSP(source=0), Q.CAPTURE_FULL_QUERY, capture=True
    ).store


@pytest.fixture(scope="module")
def custom_store(wgraph):
    return run_online(
        wgraph, SSSP(source=0), Q.CAPTURE_BACKWARD_CUSTOM_QUERY, capture=True
    ).store


def _seal(store, directory):
    spill = SpillManager(store, directory=directory)
    spill.seal_all()
    return spill


@pytest.fixture(scope="module")
def sealed_dir(full_store, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("store"))
    _seal(full_store, directory)
    return directory


@pytest.fixture(scope="module")
def lineage_params(full_store):
    sigma = full_store.max_superstep
    alpha = next(x for x, i in full_store.rows("superstep") if i == sigma)
    return {"alpha": alpha, "sigma": sigma}


def _query10_digest(directory, wgraph, lineage_params):
    result = run_layered_from_spill(
        SpillManager.open(directory), Q.NAMED_QUERIES["query10"],
        wgraph, lineage_params,
    )
    return obsledger.digest_query_result(result)


def _store_rows(store):
    return {
        relation: sorted(store.rows(relation), key=repr)
        for relation in sorted(store.relations())
    }


# ---------------------------------------------------------------------------
# Queries 1-12, both from-spill drivers
# ---------------------------------------------------------------------------
def query_cases(lineage_params):
    return {
        "query1": dict(params={"eps": 0.1}, udfs=Q.apt_udfs(SSSP(source=0))),
        "query3": dict(params={"source": 0}),
        "query4": dict(),
        "query5": dict(),
        "query6": dict(),
        "query7": dict(),
        "query8": dict(params={"eps": 0.01}),
        "query9": dict(params={"alpha": 0,
                               "sigma": lineage_params["sigma"]}),
        "query10": dict(params=lineage_params),
    }


@pytest.mark.parametrize("qname", [
    "query1", "query3", "query4", "query5", "query6", "query7", "query8",
    "query9", "query10",
])
def test_query_matrix(qname, sealed_dir, full_store, wgraph, lineage_params):
    case = query_cases(lineage_params)[qname]
    query = Q.NAMED_QUERIES[qname]
    reference = run_reference(
        full_store, query, wgraph, case.get("params"), case.get("udfs"),
    )
    spill = SpillManager.open(sealed_dir)
    digests = set()
    for driver in (run_layered_from_spill, run_naive_from_spill):
        result = driver(
            spill, query, wgraph, case.get("params"), case.get("udfs"),
        )
        for relation in reference.relations():
            assert result.rows(relation) == reference.rows(relation), (
                f"{qname} {driver.__name__} {relation}"
            )
        assert result.stats["from_spill"]
        assert result.stats["store_format"] == "columnar"
        digests.add(obsledger.digest_query_result(result))
    assert len(digests) == 1, "results must be byte-identical across drivers"


def test_query12_custom_store(custom_store, wgraph, lineage_params, tmp_path):
    reference = run_reference(
        custom_store, Q.NAMED_QUERIES["query12"], wgraph, lineage_params,
    )
    assert reference.count("back_trace") >= 1
    spill = _seal(custom_store, str(tmp_path / "custom"))
    result = run_layered_from_spill(
        spill, Q.NAMED_QUERIES["query12"], wgraph, lineage_params,
    )
    for relation in reference.relations():
        assert result.rows(relation) == reference.rows(relation)


def test_rebuilt_store_identical(sealed_dir, full_store):
    """The capture queries' guarantee: a sealed store rebuilds the exact
    same content (same rows, same layers, same relations)."""
    rebuilt = rebuild_store(SpillManager.open(sealed_dir))
    assert rebuilt.num_layers == full_store.num_layers
    assert rebuilt.counts() == full_store.counts()
    assert _store_rows(rebuilt) == _store_rows(full_store)


def _slab_bytes(directory):
    static, layers = slab_paths(directory)
    return {os.path.basename(path): open(path, "rb").read()
            for path in [static, *layers.values()]}


@pytest.mark.parametrize("capture", ["full_store", "custom_store"])
def test_rebuilt_store_reseals_byte_identical(capture, request, tmp_path):
    """Seal -> rebuild -> seal writes the same slabs and manifest digests:
    a slab's row and vertex order is the store's insertion order, and a
    rebuild inserts in slab order. Query 11's custom store adds the static
    slab's time-less ``prov_edges``."""
    store = request.getfixturevalue(capture)
    first = str(tmp_path / "first")
    _seal(store, first)
    second = str(tmp_path / "second")
    _seal(rebuild_store(SpillManager.open(first)), second)
    assert _slab_bytes(second) == _slab_bytes(first)
    assert (read_manifest(second)["slabs"]
            == read_manifest(first)["slabs"])
    if capture == "custom_store":
        assert store.layer(None)["prov_edges"]  # a time-less relation


# ---------------------------------------------------------------------------
# out-of-core: Section 5.1's scalability argument
# ---------------------------------------------------------------------------
class TestOutOfCore:
    def test_layered_answers_where_naive_cannot_load(
            self, sealed_dir, full_store, wgraph, lineage_params):
        """Pick a budget above layered's load unit (one slab's decoded
        columns) but below the whole decoded store: layered answers Query
        10 correctly, naive fails cleanly before evaluating anything."""
        query = Q.NAMED_QUERIES["query10"]
        reference = run_reference(full_store, query, wgraph, lineage_params)

        spill = SpillManager.open(sealed_dir)
        unbudgeted = run_layered_from_spill(
            spill, query, wgraph, lineage_params,
        )
        peak_decoded = unbudgeted.stats["peak_slab_bytes"]
        assert unbudgeted.stats["decoded_bytes"] >= peak_decoded > 0
        view = open_store_view(spill)
        whole_store = view.total_bytes()
        view.close()
        # The substantive claim: the plan never touches receive_message's
        # columns, so even the hungriest slab decodes a fraction of the
        # store.
        assert peak_decoded < whole_store // 2
        budget = (peak_decoded + whole_store) // 2

        with pytest.raises(MemoryError, match="full provenance graph"):
            run_naive_from_spill(
                spill, query, wgraph, lineage_params,
                memory_budget_bytes=budget,
            )
        result = run_layered_from_spill(
            spill, query, wgraph, lineage_params, memory_budget_bytes=budget,
        )
        assert result.stats["peak_slab_bytes"] <= budget
        for relation in reference.relations():
            assert result.rows(relation) == reference.rows(relation)

    def test_layered_budget_too_small_raises(self, sealed_dir, wgraph,
                                             lineage_params):
        spill = SpillManager.open(sealed_dir)
        with pytest.raises(MemoryError, match="memory budget"):
            run_layered_from_spill(
                spill, Q.NAMED_QUERIES["query10"], wgraph, lineage_params,
                memory_budget_bytes=1,
            )

    def test_naive_budget_checks_decoded_bytes(
            self, sealed_dir, wgraph, lineage_params):
        """Regression: the spill driver used to compare the budget with
        the *compressed on-disk* size and then switch the real check off,
        so a budget between the two sizes let naive evaluation
        materialize more than it was allowed. There is one check now —
        ``run_naive``'s, against the decoded size — whichever way in."""
        spill = SpillManager.open(sealed_dir)
        view = open_store_view(spill)
        on_disk, decoded = spill.total_sealed_bytes(), view.total_bytes()
        assert on_disk < decoded  # zlib slabs
        budget = (on_disk + decoded) // 2
        query = Q.NAMED_QUERIES["query10"]
        with pytest.raises(MemoryError, match="full provenance graph"):
            run_naive(view, query, wgraph, lineage_params,
                      memory_budget_bytes=budget)
        view.close()
        with pytest.raises(MemoryError, match="full provenance graph"):
            run_naive_from_spill(spill, query, wgraph, lineage_params,
                                 memory_budget_bytes=budget)
        result = run_naive_from_spill(spill, query, wgraph, lineage_params,
                                      memory_budget_bytes=decoded)
        assert result.stats["loaded_bytes"] == decoded


# ---------------------------------------------------------------------------
# sealed view semantics
# ---------------------------------------------------------------------------
class TestSealedView:
    def test_view_matches_store(self, sealed_dir, full_store):
        spill = SpillManager.open(sealed_dir)
        view = open_store_view(spill)
        try:
            assert view.num_layers == full_store.num_layers
            assert view.relations() == full_store.relations()
            assert view.counts() == full_store.counts()
            assert view.execution_nodes() == full_store.execution_nodes()
            assert view.vertices() == full_store.vertices()
            for relation in full_store.relations():
                # a seal writes each layer vertex-major, as a read settles it
                assert list(view.rows(relation)) == list(
                    full_store.rows(relation))
                assert (view.vertices(relation)
                        == full_store.vertices(relation))
                for vertex in full_store.vertices(relation):
                    assert (view.partition(relation, vertex)
                            == full_store.partition(relation, vertex))
                    for superstep in (None, 0, full_store.max_superstep):
                        assert (view.partition_at(relation, vertex, superstep)
                                == full_store.partition_at(relation, vertex,
                                                           superstep))
            for superstep in range(full_store.num_layers):
                assert (view.layer_sites(superstep)
                        == full_store.layer_sites(superstep))
                assert (view.layer_rows(superstep)
                        == full_store.layer_rows(superstep))
            # the view prices raw slab payload, from the footers
            slabs = [spill.open_columnar_slab(key)
                     for key in ("static", *spill.sealed_layers())]
            assert view.total_bytes() == sum(s.raw_bytes() for s in slabs)
            assert view.relation_bytes() == {
                relation: sum(s.raw_bytes(relation) for s in slabs
                              if s.has_relation(relation))
                for relation in view.relations()}
        finally:
            view.close()
        rebuilt = rebuild_store(spill)
        assert _store_rows(rebuilt) == _store_rows(full_store)
        assert rebuilt.relations() == full_store.relations()
        assert rebuilt.relation_bytes() == full_store.relation_bytes()
        assert rebuilt.execution_nodes() == full_store.execution_nodes()

    def test_sizes_match_store(self, sealed_dir, full_store):
        """``sizes()`` reads the layer protocol's ``groups()``, so a sealed
        view counts each vertex's rows as the in-memory store does."""
        view = open_store_view(SpillManager.open(sealed_dir))
        try:
            for relation in full_store.relations():
                assert view.sizes(relation) == full_store.sizes(relation)
        finally:
            view.close()

    def test_one_read_protocol(self, sealed_dir, full_store):
        """The offline drivers take either store without probing for
        capabilities: both are one container, whose read members the
        sealed view inherits and does not redefine, and both serve column
        batches."""
        assert issubclass(ProvenanceStore, Relations)
        assert issubclass(SealedStoreView, Relations)
        shared = {
            "relations", "has_relation", "partition", "partition_at",
            "rows", "vertices", "count", "counts", "column_batches",
            "layer_columns", "layer_sites", "layer_rows",
            "execution_nodes", "max_superstep", "num_layers", "num_rows",
            "total_bytes", "relation_bytes",
        }
        assert shared <= set(vars(Relations))
        assert not shared & set(vars(SealedStoreView))
        assert not shared & set(vars(ProvenanceStore))
        assert ProvenanceStore().column_batches("value", [0]) == []
        rows = sum(map(len, full_store.layer(1)["value"].values()))
        view = open_store_view(SpillManager.open(sealed_dir))
        try:
            for store in (full_store, view):
                batches = store.column_batches("value", [1])
                assert [batch.count for batch in batches] == [rows]
        finally:
            view.close()

    def test_reattached_manager_close_keeps_the_store(self, sealed_dir,
                                                      tmp_path, capsys):
        """Regression: a manager from ``SpillManager.open`` does not own
        the sealed store, yet its ``close()`` — and so its ``with`` block —
        unlinked every slab and the manifest. The read-only CLI commands,
        which close theirs, must leave the store verifiable."""
        directory = str(tmp_path / "store")
        shutil.copytree(sealed_dir, directory)
        before = _snapshot(directory)
        with SpillManager.open(directory) as spill:
            assert open_store_view(spill).num_rows > 0
        assert _snapshot(directory) == before
        SpillManager.open(directory).release_slabs()
        assert obsledger.verify_store(directory)[0] == []
        for argv in (["query", "--store", directory, "--query", "query5"],
                     ["inspect", "--store", directory],
                     ["export", "--store", directory,
                      "--out", str(tmp_path / "export.jsonl")]):
            assert main(argv) == 0
            assert obsledger.verify_store(directory)[0] == []
        capsys.readouterr()

    def test_unknown_relation_is_empty_read(self, sealed_dir):
        view = open_store_view(SpillManager.open(sealed_dir))
        try:
            assert view.partition("never_captured", 0) == frozenset()
            assert view.partition_at("never_captured", 0, 1) == frozenset()
        finally:
            view.close()

    def test_second_view_survives_anothers_close(self, sealed_dir, full_store,
                                                 wgraph, lineage_params):
        """Regression: slab handles are shared per manager and a view's
        close() releases them all, so a query's ``finally: view.close()``
        used to leave every other view over the same manager reading
        closed mmaps ("corrupt segment ... incomplete or truncated
        stream" on a perfectly healthy slab)."""
        def query10():
            return run_layered_from_spill(
                handle, Q.NAMED_QUERIES["query10"], wgraph, lineage_params)

        handle = SpillManager.open(sealed_dir)
        first = query10()
        view = open_store_view(handle)
        expected = sorted(full_store.rows("superstep"))
        assert sorted(view.rows("superstep")) == expected
        warm = query10()
        assert sorted(view.rows("superstep")) == expected
        assert view.partition("value", 0) == full_store.partition("value", 0)
        view.close()
        # ... and the accounting on a held manager stays per query. The
        # session's handles stay warm across queries (``warm`` decoded
        # nothing), yet each query is charged every segment it reads, so
        # it reads as one over cold handles (``again``, after close()).
        again = query10()
        for key in ("decoded_bytes", "peak_slab_bytes"):
            assert again.stats[key] == warm.stats[key] == first.stats[key] > 0


# ---------------------------------------------------------------------------
# uncompressed ARSC: written by earlier releases, still read
# ---------------------------------------------------------------------------
def _reseal_raw(directory, names=None):
    """Re-encode a sealed store's slabs (all, or the basenames in
    ``names``) uncompressed, as earlier releases could seal them, and
    re-stamp the manifest."""
    static, layers = slab_paths(directory)
    paths = [static, *layers.values()]
    for path in paths:
        if names is not None and os.path.basename(path) not in names:
            continue
        with ColumnarSlab(path) as slab:
            chunks = slab_chunks(slab)
        blob, _raw = encode_columnar_slab(chunks, "raw")
        with open(path, "wb") as fh:
            fh.write(blob)
    restamp = SpillManager.open(directory)
    restamp.slab_digests = {
        os.path.basename(path): {"sha256": obsledger.digest_file(path),
                                 "bytes": os.path.getsize(path)}
        for path in paths
    }
    restamp.write_manifest()


def test_raw_sealed_store_reports_its_codec(sealed_dir, tmp_path, wgraph,
                                            lineage_params, capsys):
    """Regression: ``SpillManager.open`` never read the codec back, so a
    store sealed uncompressed (``--spill-compression raw``, before the
    switch was removed) reported ``zlib`` in ``repro inspect`` and in its
    ledger fingerprint while its slab footers said ``raw``. It must also
    keep answering like its zlib twin and pass ``audit verify``."""
    directory = str(tmp_path / "raw")
    shutil.copytree(sealed_dir, directory)
    _reseal_raw(directory)
    assert read_manifest(directory)["compression"] == "raw"

    spill = SpillManager.open(directory)
    assert spill.compression == "raw"
    header = pinspect.summarize_slabs(spill).splitlines()[0]
    spill.release_slabs()
    assert "compression=raw" in header
    assert obsledger.store_fingerprint(spill)["compression"] == "raw"
    assert (_query10_digest(directory, wgraph, lineage_params)
            == _query10_digest(sealed_dir, wgraph, lineage_params))
    assert main(["audit", "verify", "--store", directory]) == 0
    assert main(["inspect", "--store", directory]) == 0
    assert "compression=raw" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# retired formats: refused by name, migrate included; ARSC migrated in place
# ---------------------------------------------------------------------------
def _snapshot(directory):
    """Every file of a directory, name -> bytes."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestRetiredFormats:
    @pytest.fixture()
    def retired(self, sealed_dir, tmp_path, retire_store):
        def make(fmt, names=None):
            directory = str(tmp_path / f"store-{fmt}")
            shutil.copytree(sealed_dir, directory)
            retire_store(directory, fmt, names)
            return directory
        return make

    @pytest.fixture()
    def raw(self, sealed_dir, tmp_path):
        def make(names=None):
            directory = str(tmp_path / "store-raw")
            shutil.copytree(sealed_dir, directory)
            _reseal_raw(directory, names)
            return directory
        return make

    @pytest.mark.parametrize("fmt,needle", [
        ("pickle", r"framed-pickle \(ARSL\)"),
        ("legacy", "legacy bare-pickle"),
    ])
    def test_unmigrated_store_is_refused_by_name(self, fmt, needle, retired,
                                                 capsys):
        directory = retired(fmt)
        pattern = f"{needle} format, which this release cannot read"
        with pytest.raises(ProvenanceError, match=pattern):
            SpillManager.open(directory)
        for argv in (
            ["query", "--store", directory, "--query", "query5"],
            ["serve", "--store", directory, "--port", "0"],
            ["inspect", "--store", directory],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "cannot read" in err and "retired" in err

    @pytest.mark.parametrize("names", [None, ("layer-000001.slab",)],
                             ids=["whole", "one-slab"])
    @pytest.mark.parametrize("fmt", RETIRED)
    def test_migrate_refuses_retired_store(self, fmt, names, retired, capsys):
        """``repro store migrate`` fails like ``SpillManager.open`` on a
        store holding any retired slab, and leaves every file as it was."""
        directory = retired(fmt, names)
        before = _snapshot(directory)
        with pytest.raises(ProvenanceError, match="retired"):
            migrate_store(directory, run_id="rmigrated01")
        assert _snapshot(directory) == before
        assert main(["store", "migrate", directory]) == 2
        assert "retired" in capsys.readouterr().err
        assert _snapshot(directory) == before

    def test_migrate_matches_direct_seal(self, raw, sealed_dir, full_store,
                                         wgraph, lineage_params):
        directory = raw()
        report = migrate_store(directory, run_id="rmigrated01")
        report["spill"].release_slabs()
        assert report["compression"] == "zlib"
        assert report["bytes_after"] < report["bytes_before"]

        spill = SpillManager.open(directory)
        assert spill.run_id == "rmigrated01"
        assert spill.compression == "zlib"
        assert _store_rows(rebuild_store(spill)) == _store_rows(full_store)
        assert (_query10_digest(directory, wgraph, lineage_params)
                == _query10_digest(sealed_dir, wgraph, lineage_params))
        problems, _ = obsledger.verify_store(directory)
        assert problems == []

    def test_half_migrated_store_migrates_to_completion(
            self, raw, sealed_dir, wgraph, lineage_params):
        directory = raw(names=("layer-000001.slab",))
        report = migrate_store(directory)
        report["spill"].release_slabs()
        raw_before = {name for name, slab in report["slabs"].items()
                      if slab["bytes_after"] < slab["bytes_before"]}
        assert raw_before == {"layer-000001.slab"}
        assert report["spill"].compression == "zlib"
        assert (_query10_digest(directory, wgraph, lineage_params)
                == _query10_digest(sealed_dir, wgraph, lineage_params))

    def test_cli_migrate_then_audit_verify(self, raw, capsys):
        """`repro store migrate` appends a ledger record parent-linked to
        the capture, so `repro audit verify` resolves the re-stamped
        manifest instead of flagging drift."""
        directory = raw()
        assert main(["store", "migrate", directory]) == 0
        assert "columnar -> columnar" in capsys.readouterr().out
        assert main(["audit", "verify", "--store", directory]) == 0
        assert main(["query", "--store", directory, "--query", "query5"]) == 0

    def test_serve_admission_after_migration(self, retired, raw, full_store):
        """Digest-verified admission refuses a retired store, before and
        after a migration attempt, and admits a migrated raw store."""
        from repro.serve.catalog import AdmissionError, RunCatalog

        catalog = RunCatalog(verify=True)
        directory = retired("legacy")
        with pytest.raises(AdmissionError, match="cannot read"):
            catalog.register_path(directory)
        with pytest.raises(ProvenanceError):
            migrate_store(directory)
        with pytest.raises(AdmissionError, match="cannot read"):
            catalog.register_path(directory)
        directory = raw()
        migrate_store(directory)["spill"].release_slabs()
        entry, created = catalog.register_path(directory)
        assert created
        assert isinstance(entry.store, SealedStoreView)
        assert entry.store.num_layers == full_store.num_layers


# ---------------------------------------------------------------------------
# corrupt slabs surface as ProvenanceError at open
# ---------------------------------------------------------------------------
class TestCorruptStores:
    def _sealed(self, full_store, tmp_path):
        directory = str(tmp_path / "store")
        _seal(full_store, directory)
        return directory

    def test_truncated_slab_fails_open(self, full_store, tmp_path):
        directory = self._sealed(full_store, tmp_path)
        victim = os.path.join(directory, "layer-000001.slab")
        data = open(victim, "rb").read()
        with open(victim, "wb") as fh:
            fh.write(data[: max(5, len(data) // 3)])
        with pytest.raises(ProvenanceError) as err:
            SpillManager.open(directory)
        assert "columnar (ARSC)" in str(err.value)
        assert "layer-000001.slab" in str(err.value)

    def test_empty_slab_fails_open(self, full_store, tmp_path):
        directory = self._sealed(full_store, tmp_path)
        victim = os.path.join(directory, "layer-000000.slab")
        open(victim, "wb").close()
        with pytest.raises(ProvenanceError, match="empty file"):
            SpillManager.open(directory)

    def test_corrupt_footer_fails_open(self, full_store, tmp_path):
        directory = self._sealed(full_store, tmp_path)
        victim = os.path.join(directory, "layer-000002.slab")
        data = open(victim, "rb").read()
        with open(victim, "wb") as fh:
            fh.write(data[:-4] + b"XXXX")
        with pytest.raises(ProvenanceError,
                           match=r"columnar \(ARSC\).*layer-000002"):
            SpillManager.open(directory)
