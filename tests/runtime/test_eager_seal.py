"""Eager layer sealing during capture: completed layers reach the spill
manager at superstep barriers, not at run end."""

import os
import threading

import pytest

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.core import queries as Q
from repro.engine.config import EngineConfig
from repro.graph.generators import web_graph, with_random_weights
from repro.obs.sinks import InMemorySink
from repro.obs.trace import Tracer, tracing
from repro.provenance.spill import rebuild_store
from repro.runtime.online import run_online


@pytest.fixture(scope="module")
def graph():
    return web_graph(100, avg_degree=4, target_diameter=7, seed=77)


def _store_dict(store):
    return {
        relation: sorted(store.rows(relation), key=repr)
        for relation in sorted(store.relations())
    }


class TestEagerSealing:
    def test_layers_sealed_during_run(self, graph, tmp_path):
        result = run_online(
            graph, PageRank(num_supersteps=6), Q.CAPTURE_FULL_QUERY,
            capture=True, spill_directory=str(tmp_path),
        )
        assert result.spill is not None
        # Layers were sealed while the analytic ran; the final seal_all
        # only adds the static slab and any stragglers.
        assert result.query.stats["sealed_layers"] > 0
        sealed = set(result.spill.sealed_layers())
        assert sealed, "no layer slab written before seal_all"
        for superstep in sealed:
            assert os.path.exists(result.spill.slab_path(superstep))
        result.spill.seal_all()
        rebuilt = rebuild_store(result.spill)
        assert _store_dict(rebuilt) == _store_dict(result.store)
        assert rebuilt.total_bytes() == result.store.total_bytes()
        result.spill.close()

    def test_early_halt_still_flushes_capture(self, tmp_path):
        # SSSP converges and halts before a fixed superstep budget; the
        # finish_capture flush must cover the final partial layer.
        wgraph = with_random_weights(
            web_graph(60, avg_degree=4, target_diameter=6, seed=5), seed=5
        )
        result = run_online(
            wgraph, SSSP(source=0), Q.CAPTURE_FULL_QUERY,
            capture=True, spill_directory=str(tmp_path),
        )
        result.spill.seal_all()
        rebuilt = rebuild_store(result.spill)
        assert _store_dict(rebuilt) == _store_dict(result.store)
        result.spill.close()

    def test_no_spill_directory_means_no_manager(self, graph):
        result = run_online(
            graph, PageRank(num_supersteps=3), Q.CAPTURE_FULL_QUERY,
            capture=True,
        )
        assert result.spill is None
        assert result.query.stats["sealed_layers"] == 0


class TestSealSpans:
    def test_seal_spans_nest_in_the_capture_barrier(
            self, graph, tmp_path, monkeypatch):
        """A seal runs on the capture thread inside its own span: each
        ``spill-seal`` span lies within its parent's interval, a layer's
        parent is the barrier's ``provenance-capture`` span, and no writer
        thread is ever started."""
        started = []
        real_start = threading.Thread.start

        def start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        sink = InMemorySink()
        with tracing(Tracer(sink)):
            result = run_online(
                graph, PageRank(num_supersteps=6), Q.CAPTURE_FULL_QUERY,
                capture=True, spill_directory=str(tmp_path),
            )
            result.spill.seal_all()
        result.spill.close()
        assert "repro-spill-writer" not in started
        spans = {e["id"]: e for e in sink.events if e["type"] == "span"}
        seals = [e for e in spans.values() if e["name"] == "spill-seal"]
        layer_seals = [e for e in seals if e["attrs"]["layer"] != "static"]
        assert len(layer_seals) == result.query.stats["sealed_layers"] > 0
        for seal in seals:
            if seal["parent"] is None:
                continue
            parent = spans[seal["parent"]]
            # ts / dur are whole microseconds: allow one for the rounding
            assert parent["ts"] <= seal["ts"]
            assert (seal["ts"] + seal["dur"]
                    <= parent["ts"] + parent["dur"] + 1)
        assert {spans[e["parent"]]["name"] for e in layer_seals} == {
            "provenance-capture"}


class TestSimulatedWorkersCaptureSpill:
    @pytest.mark.parametrize("workers", [3, 7])
    def test_capture_round_trip(self, graph, tmp_path, workers):
        one = run_online(
            graph, PageRank(num_supersteps=4), Q.CAPTURE_FULL_QUERY,
            capture=True, config=EngineConfig(num_workers=1),
        )
        many = run_online(
            graph, PageRank(num_supersteps=4), Q.CAPTURE_FULL_QUERY,
            capture=True, spill_directory=str(tmp_path),
            config=EngineConfig(num_workers=workers),
        )
        # Layers are sealed eagerly at any worker count, and the sealed
        # store is the one-worker capture.
        assert many.query.stats["sealed_layers"] > 0
        many.spill.seal_all()
        rebuilt = rebuild_store(many.spill)
        assert _store_dict(rebuilt) == _store_dict(one.store)
        many.spill.close()
