"""The read session: one ``SealedStoreView`` per ``SpillManager``.

A held manager builds its view once and every query reads through it, so
a warm query decodes nothing again; each query is still charged what it
reads (``decoded_bytes``, ``peak_slab_bytes``, the per-slab memory
budget), as if its handles were cold. A seal and ``release_slabs()`` end
the session, and the next query sees what a fresh manager sees.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.analytics.sssp import SSSP
from repro.core import queries as Q
from repro.graph.generators import web_graph, with_random_weights
from repro.obs import ledger as obsledger
from repro.provenance.spill import SpillManager
from repro.provenance.store import ProvenanceStore
from repro.runtime.offline import run_layered_from_spill
from repro.runtime.online import run_online

READ_ALL = ("out(X, D, I) :- value(X, D, I)."
            "seen(X, I) :- superstep(X, I).")


@pytest.fixture(scope="module")
def wgraph():
    return with_random_weights(
        web_graph(120, avg_degree=5, target_diameter=8, seed=43), seed=43
    )


@pytest.fixture(scope="module")
def sealed_dir(wgraph, tmp_path_factory):
    store = run_online(
        wgraph, SSSP(source=0), Q.CAPTURE_FULL_QUERY, capture=True).store
    directory = str(tmp_path_factory.mktemp("session"))
    SpillManager(store, directory=directory).seal_all()
    return directory


@pytest.fixture(scope="module")
def lineage(sealed_dir):
    """Query 10 and Query 9 from a vertex active at the last superstep."""
    spill = SpillManager.open(sealed_dir)
    view = spill.view()
    sigma = view.max_superstep
    alpha = next(x for x, i in view.rows("superstep") if i == sigma)
    spill.release_slabs()
    params = {"alpha": alpha, "sigma": sigma}
    return [(Q.NAMED_QUERIES["query10"], params),
            (Q.NAMED_QUERIES["query9"], {"alpha": alpha, "sigma": 0})]


def _digest(result):
    return obsledger.digest_query_result(result)


def _small_store():
    store = ProvenanceStore()
    for s in range(3):
        for v in range(5):
            store.add("superstep", (v, s))
            store.add("value", (v, f"tag-{(v + s) % 3}", s))
    return store


def test_reseal_ends_the_session(tmp_path, wgraph):
    """A re-sealed layer is read from its new slab on the held manager's
    next query, which answers what a fresh manager answers."""
    store = _small_store()
    directory = str(tmp_path / "store")
    spill = SpillManager(store, directory=directory)
    spill.seal_all()
    before = run_layered_from_spill(spill, READ_ALL, wgraph)
    session = spill.view()
    store.add("superstep", (99, 1))
    store.add("value", (99, "late", 1))
    spill.seal_layer(1)
    after = run_layered_from_spill(spill, READ_ALL, wgraph)
    assert spill.view() is not session
    assert ("late" in {row[1] for row in after.rows("out")}
            and _digest(after) != _digest(before))
    fresh = SpillManager.open(directory)
    assert _digest(after) == _digest(
        run_layered_from_spill(fresh, READ_ALL, wgraph))
    fresh.release_slabs()
    spill.close()


def test_release_ends_the_session(sealed_dir, wgraph, lineage):
    spill = SpillManager.open(sealed_dir)
    query, params = lineage[0]
    first = run_layered_from_spill(spill, query, wgraph, params)
    session = spill.view()
    spill.release_slabs()
    again = run_layered_from_spill(spill, query, wgraph, params)
    assert spill.view() is not session
    fresh = SpillManager.open(sealed_dir)
    expected = run_layered_from_spill(fresh, query, wgraph, params)
    assert _digest(first) == _digest(again) == _digest(expected)
    for key in ("decoded_bytes", "peak_slab_bytes"):
        assert again.stats[key] == expected.stats[key] > 0
    fresh.release_slabs()
    spill.release_slabs()


def test_a_budget_one_query_fits_fits_every_query(sealed_dir, wgraph,
                                                  lineage):
    """Per-run charging: the session's handles hold every segment the
    earlier queries decoded, yet the fifth query is charged only what it
    reads, so the budget that fit the first still fits it."""
    spill = SpillManager.open(sealed_dir)
    query, params = lineage[0]
    first = run_layered_from_spill(spill, query, wgraph, params)
    budget = first.stats["peak_slab_bytes"]
    for _ in range(5):
        result = run_layered_from_spill(spill, query, wgraph, params,
                                        memory_budget_bytes=budget)
        assert result.stats["peak_slab_bytes"] == budget
        assert result.stats["decoded_bytes"] == first.stats["decoded_bytes"]
        assert _digest(result) == _digest(first)
    spill.release_slabs()


def test_a_budget_below_one_querys_peak_fails_every_call(sealed_dir, wgraph,
                                                         lineage):
    """A warm session does not let a run read past its budget: the run is
    charged the segments the session already holds."""
    spill = SpillManager.open(sealed_dir)
    query, params = lineage[0]
    first = run_layered_from_spill(spill, query, wgraph, params)
    budget = first.stats["peak_slab_bytes"] - 1
    for _ in range(5):
        with pytest.raises(MemoryError, match="memory budget"):
            run_layered_from_spill(spill, query, wgraph, params,
                                   memory_budget_bytes=budget)
    # a failed run leaves no charge behind on the thread
    again = run_layered_from_spill(spill, query, wgraph, params)
    assert again.stats["peak_slab_bytes"] == budget + 1
    spill.release_slabs()


def test_threads_share_one_session(sealed_dir, wgraph, lineage):
    """Four threads querying one manager — from a cold session, so their
    first decodes race, and switching often — get the serial digests and
    each query's serial accounting: no thread's reads land in another's
    run."""
    serial = SpillManager.open(sealed_dir)
    expected = []
    for query, params in lineage:
        result = run_layered_from_spill(serial, query, wgraph, params)
        expected.append((_digest(result), result.stats["decoded_bytes"],
                         result.stats["peak_slab_bytes"]))
    serial.release_slabs()

    shared = SpillManager.open(sealed_dir)
    workers = 4
    start = threading.Barrier(workers)
    seen = {me: [] for me in range(workers)}
    errors = []

    def work(me):
        try:
            start.wait(timeout=60)
            for round_ in range(2):
                for k in ((me + round_) % 2, (me + round_ + 1) % 2):
                    query, params = lineage[k]
                    result = run_layered_from_spill(
                        shared, query, wgraph, params)
                    seen[me].append((k, _digest(result),
                                     result.stats["decoded_bytes"],
                                     result.stats["peak_slab_bytes"]))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(me,))
               for me in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for runs in seen.values():
        assert len(runs) == 4
        for k, *got in runs:
            assert tuple(got) == expected[k]
    shared.release_slabs()
