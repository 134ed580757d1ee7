"""Tests for the Ariadne facade (the Figure 1/2 workflows)."""

import pytest

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.core import queries as Q
from repro.core.ariadne import Ariadne
from repro.errors import ReproError
from repro.graph.generators import web_graph, with_random_weights


@pytest.fixture(scope="module")
def wgraph():
    return with_random_weights(
        web_graph(100, avg_degree=5, target_diameter=8, seed=51), seed=51
    )


@pytest.fixture(scope="module")
def ariadne(wgraph):
    return Ariadne(wgraph, SSSP(source=0))


@pytest.fixture(scope="module")
def store(ariadne):
    return ariadne.capture().store


class TestWorkflows:
    def test_baseline(self, ariadne):
        result = ariadne.baseline()
        assert result.values[0] == 0.0

    def test_online_query(self, ariadne):
        result = ariadne.query_online(Q.SSSP_WCC_UPDATE_CHECK_QUERY)
        assert result.query.mode == "online"
        assert result.store is None

    def test_capture_default_is_full(self, store):
        assert set(store.relations()) >= {"value", "superstep"}

    def test_offline_modes(self, ariadne, store):
        layered = ariadne.query_offline(store, Q.SSSP_WCC_STABILITY_QUERY)
        naive = ariadne.query_offline(
            store, Q.SSSP_WCC_STABILITY_QUERY, mode="naive"
        )
        ref = ariadne.query_offline(
            store, Q.SSSP_WCC_STABILITY_QUERY, mode="reference"
        )
        assert layered.rows("problem") == naive.rows("problem") == ref.rows("problem")

    def test_unknown_mode(self, ariadne, store):
        with pytest.raises(ReproError, match="unknown offline mode"):
            ariadne.query_offline(store, Q.SSSP_WCC_STABILITY_QUERY, mode="x")

    def test_apt_online(self, ariadne):
        result = ariadne.apt(epsilon=0.1)
        counts = {r: result.query.count(r) for r in ("safe", "unsafe")}
        assert counts["safe"] + counts["unsafe"] == result.query.count(
            "no_execute"
        )

    def test_apt_offline_needs_store(self, ariadne, store):
        with pytest.raises(ReproError, match="store"):
            ariadne.apt(epsilon=0.1, mode="layered")
        result = ariadne.apt(epsilon=0.1, mode="layered", store=store)
        online = ariadne.apt(epsilon=0.1)
        assert result.rows("safe") == online.query.rows("safe")

    def test_backward_lineage(self, ariadne, store):
        sigma = store.max_superstep
        alpha = next(x for x, i in store.rows("superstep") if i == sigma)
        result = ariadne.backward_lineage(store, alpha, sigma)
        assert result.count("back_trace") >= 1
        # lineage always bottoms out at superstep 0
        assert all(i == 0 for _x, i in [
            (x, 0) for x, _d in result.rows("back_lineage")
        ])

    def test_udf_diff_registered_automatically(self, wgraph):
        # PageRank and SSSP get different diff functions but the same query.
        a_pr = Ariadne(wgraph, PageRank(num_supersteps=8))
        result = a_pr.apt(epsilon=0.01)
        assert "change" in result.query.relations()


class TestFacadeExtensions:
    def test_monitor_suite_sssp(self, ariadne):
        results = {
            name: ariadne.query_online(text)
            for name, text in Q.MONITORING_QUERIES["sssp"]
        }
        assert set(results) == {"query5", "query6"}
        assert results["query5"].query.count("check_failed") == 0
        assert results["query6"].query.count("problem") == 0

    def test_capture_for_backward(self, ariadne, store):
        custom = ariadne.capture(Q.CAPTURE_BACKWARD_CUSTOM_QUERY)
        assert set(custom.store.relations()) == {
            "prov_value", "prov_send", "prov_edges",
        }
        sigma = store.max_superstep
        alpha = next(x for x, i in store.rows("superstep") if i == sigma)
        full = ariadne.backward_lineage(store, alpha, sigma)
        q12 = ariadne.backward_lineage(
            custom.store, alpha, sigma, custom=True
        )
        assert q12.rows("back_trace") == full.rows("back_trace")
