"""End-to-end server tests over live HTTP, including the differential
guarantee: server query results are byte-identical to one-shot CLI
``repro query --json`` output, across stores and under concurrency."""

import io
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import threading
import time

import pytest

from repro.cli import main
from repro.pql.serialize import canonical_json
from repro.serve.testing import ServerThread

from tests.serve.conftest import run_id_for


def lineage_params(store):
    sigma = store.max_superstep
    alpha = min(x for x, i in store.rows("superstep") if i == sigma)
    return {"alpha": alpha, "sigma": sigma}


def cli_json(capsys, store, query, params):
    """Run ``repro query --json`` in-process and return the parsed doc."""
    argv = ["query", "--store", store, "--query", query, "--json"]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


class TestBasicEndpoints:
    def test_index(self, server):
        status, doc = server.request("GET", "/")
        assert status == 200
        assert doc["service"] == "repro-serve"
        assert "POST /runs/{id}/query" in doc["endpoints"]

    def test_health(self, server):
        status, doc = server.request("GET", "/healthz")
        assert status == 200
        assert doc["status"] == "ok" and doc["runs"] == 2

    def test_metrics_exposition(self, server):
        server.request("GET", "/runs")
        status, body = server.request("GET", "/metrics")
        assert status == 200
        text = body.decode("utf-8")
        assert "repro_serve_requests_total" in text
        assert "repro_serve_catalog_runs 2" in text

    def test_list_and_show(self, server, catalog, sssp_store):
        status, doc = server.request("GET", "/runs")
        assert status == 200 and doc["count"] == 2
        run_id = run_id_for(catalog, sssp_store)
        status, doc = server.request("GET", f"/runs/{run_id}")
        assert status == 200
        assert doc["run_id"] == run_id
        assert doc["layers"] > 0 and doc["rows"] > 0
        assert doc["manifest"]["slabs"] > 0

    def test_unknown_run_404(self, server):
        status, doc = server.request("GET", "/runs/rmissing")
        assert status == 404
        assert doc["error"] == "unknown_run"
        assert len(doc["runs"]) == 2

    def test_unknown_route_404(self, server):
        status, doc = server.request("GET", "/nope")
        assert status == 404

    def test_method_not_allowed_405(self, server):
        status, doc = server.request("DELETE", "/runs")
        assert status == 405
        assert doc["error"] == "method_not_allowed"


class TestRegistration:
    def test_register_path_and_idempotency(self, catalog, sssp_store):
        with ServerThread(catalog=catalog, record_queries=False) as srv:
            status, doc = srv.request("POST", "/runs",
                                      body={"path": sssp_store})
            assert status == 201 and doc["created"]
            status, doc = srv.request("POST", "/runs",
                                      body={"path": sssp_store})
            assert status == 200 and not doc["created"]

    def test_register_bad_body(self, server):
        status, doc = server.request("POST", "/runs", body={"nope": 1})
        assert status == 400 and doc["error"] == "bad_register"

    def test_register_missing_store_is_422(self, server, tmp_path):
        empty = tmp_path / "void"
        empty.mkdir()
        status, doc = server.request("POST", "/runs",
                                     body={"path": str(empty)})
        assert status == 422
        assert doc["error"] == "admission_failed"
        assert doc["problems"]

    def test_register_tar_upload(self, sssp_store, tmp_path):
        from repro.serve.catalog import RunCatalog
        catalog = RunCatalog(data_dir=str(tmp_path / "data"))
        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w") as tar:
            for name in sorted(os.listdir(sssp_store)):
                tar.add(os.path.join(sssp_store, name), arcname=name)
        with ServerThread(catalog=catalog, record_queries=False) as srv:
            status, doc = srv.request(
                "POST", "/runs", raw_body=buffer.getvalue(),
                headers={"Content-Type": "application/x-tar"})
            assert status == 201
            assert doc["run"]["rows"] > 0

    @pytest.mark.parametrize("fmt,names", [
        ("pickle", None),
        ("legacy", None),
        ("legacy", ("layer-000001.slab",)),  # everything else is ARSC
    ])
    def test_upload_of_retired_format_refused_unread(
            self, sssp_store, tmp_path, retire_store, monkeypatch,
            fmt, names):
        """An uploader controls slabs *and* manifest, so digests prove
        nothing: a tar holding pickle-format slabs must be refused before
        any of its bytes reach ``pickle.loads``."""
        import pickle

        from repro.serve.catalog import RunCatalog

        staged = str(tmp_path / "staged")
        shutil.copytree(sssp_store, staged)
        retire_store(staged, fmt, names)
        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w") as tar:
            for name in sorted(os.listdir(staged)):
                tar.add(os.path.join(staged, name), arcname=name)

        def forbidden(*args, **kwargs):
            raise AssertionError("upload admission unpickled a payload")

        def refusals(srv):
            _, metrics = srv.request("GET", "/metrics")
            counted = re.search(
                r'repro_serve_requests_total\{endpoint="/runs",'
                r'status="422"\} (\d+)', metrics.decode("utf-8"))
            return int(counted.group(1)) if counted else 0

        monkeypatch.setattr(pickle, "loads", forbidden)
        catalog = RunCatalog(data_dir=str(tmp_path / "data"))
        with ServerThread(catalog=catalog, record_queries=False) as srv:
            before = refusals(srv)
            status, doc = srv.request(
                "POST", "/runs", raw_body=buffer.getvalue(),
                headers={"Content-Type": "application/x-tar"})
            assert status == 422
            assert doc["error"] == "admission_failed"
            assert "retired" in doc["message"]
            assert any("repro store migrate" in p for p in doc["problems"])
            assert len(catalog) == 0
            assert refusals(srv) == before + 1


class TestQueries:
    def test_full_result_with_named_query(self, server, catalog, sssp_store):
        run_id = run_id_for(catalog, sssp_store)
        entry = catalog.get(run_id)
        status, doc = server.request(
            "POST", f"/runs/{run_id}/query",
            body={"query": "query10",
                  "params": lineage_params(entry.store)})
        assert status == 200
        assert doc["run"] == run_id
        assert doc["result"]["relations"]["back_lineage"]["count"] > 0
        assert doc["budget"] == {"max_depth": None, "max_rows": None,
                                 "timeout_seconds": 30.0}

    def test_inline_query(self, server, catalog, sssp_store):
        run_id = run_id_for(catalog, sssp_store)
        status, doc = server.request(
            "POST", f"/runs/{run_id}/query",
            body={"query": "out(X, I) :- superstep(X, I)."})
        assert status == 200
        assert doc["result"]["relations"]["out"]["count"] > 0

    def test_plan_cache_hit_on_repeat(self, server, catalog, sssp_store):
        run_id = run_id_for(catalog, sssp_store)
        entry = catalog.get(run_id)
        body = {"query": "query10",
                "params": lineage_params(entry.store)}
        server.request("POST", f"/runs/{run_id}/query", body=body)
        status, doc = server.request("POST", f"/runs/{run_id}/query",
                                     body=body)
        assert status == 200
        assert doc["plan_cache"] == "hit"

    def test_query_error_is_structured(self, server, catalog, sssp_store):
        run_id = run_id_for(catalog, sssp_store)
        status, doc = server.request(
            "POST", f"/runs/{run_id}/query",
            body={"query": "broken(X :- nope"})
        assert status == 400
        assert doc["error"] == "query_error"
        assert doc["type"]

    def test_bad_bodies(self, server, catalog, sssp_store):
        run_id = run_id_for(catalog, sssp_store)
        cases = [
            ({}, "bad_query"),
            ({"query": 7}, "bad_query"),
            ({"query": "query10", "params": []}, "bad_query"),
            ({"query": "query10", "mode": "psychic"}, "bad_query"),
            ({"query": "query10", "limit": -2}, "bad_query"),
            ({"query": "query10", "cursor": 9}, "bad_query"),
        ]
        for body, code in cases:
            status, doc = server.request(
                "POST", f"/runs/{run_id}/query", body=body)
            assert status == 400 and doc["error"] == code, body


class TestEvaluatorChoice:
    def test_vectorized_default_and_row_path_override(self, server, catalog,
                                                      sssp_store):
        """Served queries run layer programs, and serve the rows the
        row-at-a-time oracle (the semi-naive interpreter) derives over
        the same store."""
        from repro.core import queries as Q
        from repro.provenance.spill import rebuild_store
        from repro.runtime.offline import run_reference

        run_id = run_id_for(catalog, sssp_store)
        entry = catalog.get(run_id)
        params = lineage_params(entry.store)
        body = {"query": "query10", "params": params}
        status, vec = server.request(
            "POST", f"/runs/{run_id}/query", body=body)
        assert status == 200
        assert vec["stats"]["evaluator"] == "vectorized"
        assert "vectorize" not in vec["stats"]
        assert vec["stats"]["batched_scans"] > 0
        assert vec["stats"]["kernel_seconds"]

        oracle = run_reference(rebuild_store(entry.spill),
                               Q.NAMED_QUERIES["query10"], params=params)
        relations = vec["result"]["relations"]
        assert sorted(relations) == oracle.relations()
        for relation in oracle.relations():
            assert relations[relation]["rows"] == [
                list(row) for row in oracle.rows(relation)]

    def test_vectorize_is_an_ignored_key(self, server, catalog, sssp_store):
        """``vectorize`` selected the row path, which is no longer a
        served option: the key is ignored like any unknown key, so
        ``"vectorize": false`` shares the plan-cache entry of the plain
        request and still runs layer programs."""
        run_id = run_id_for(catalog, sssp_store)
        entry = catalog.get(run_id)
        body = {"query": "query9", "params": lineage_params(entry.store)}
        status, first = server.request(
            "POST", f"/runs/{run_id}/query", body=body)
        assert status == 200 and first["plan_cache"] == "miss"
        cached = entry.plan_cache_len
        status, second = server.request(
            "POST", f"/runs/{run_id}/query", body=dict(body, vectorize=False))
        assert status == 200 and second["plan_cache"] == "hit"
        assert second["stats"]["evaluator"] == "vectorized"
        assert second["result"] == first["result"]
        assert entry.plan_cache_len == cached

    def test_use_index_is_an_ignored_key(self, server, catalog, sssp_store):
        """``use_index`` selected a hash index that no longer exists: it
        is ignored like any unknown key, so it shares the plan-cache entry
        of the same request without it."""
        run_id = run_id_for(catalog, sssp_store)
        entry = catalog.get(run_id)
        body = {"query": "query10", "params": lineage_params(entry.store)}
        status, first = server.request(
            "POST", f"/runs/{run_id}/query", body=dict(body, use_index=True))
        assert status == 200 and first["plan_cache"] == "miss"
        status, second = server.request(
            "POST", f"/runs/{run_id}/query", body=dict(body, use_index=False))
        assert status == 200 and second["plan_cache"] == "hit"
        assert second["result"] == first["result"]
        assert entry.plan_cache_len == 1

    def test_plan_cache_hit_reuses_layer_programs(self, server, catalog,
                                                  sssp_store, monkeypatch):
        """A plan-cache hit skips layer-program construction as well as
        PQL compilation: programs live on the cached plan's rules."""
        from repro.pql import vectorized

        built = []
        original = vectorized.LayerProgram.__init__

        def counting(self, crule, plan):
            built.append(crule.index)
            original(self, crule, plan)

        monkeypatch.setattr(vectorized.LayerProgram, "__init__", counting)
        run_id = run_id_for(catalog, sssp_store)
        body = {"query": "seen(X, I) :- superstep(X, I), value(X, D, I), "
                         "D >= 0.0."}
        status, first = server.request(
            "POST", f"/runs/{run_id}/query", body=body)
        assert status == 200 and first["plan_cache"] == "miss"
        assert built == [0]
        status, second = server.request(
            "POST", f"/runs/{run_id}/query", body=body)
        assert status == 200 and second["plan_cache"] == "hit"
        assert built == [0]
        assert second["stats"]["rules_vectorized"] > 0
        assert second["result"] == first["result"]

    def test_evaluator_stats_in_response(self, server, catalog, sssp_store):
        run_id = run_id_for(catalog, sssp_store)
        body = {"query": "cnt(X, count(I)) :- superstep(X, I)."}
        status, doc = server.request(
            "POST", f"/runs/{run_id}/query", body=body)
        assert status == 200
        # an aggregate head runs as a layer program: no fallback to report
        assert doc["stats"]["rules_vectorized"] > 0
        assert not any("fallback" in key for key in doc["stats"])
        assert doc["result"]["relations"]["cnt"]["count"] > 0

    def test_eval_latency_metric_labeled_by_evaluator(self, server, catalog,
                                                      sssp_store):
        run_id = run_id_for(catalog, sssp_store)
        entry = catalog.get(run_id)
        body = {"query": "query10", "params": lineage_params(entry.store)}
        server.request("POST", f"/runs/{run_id}/query", body=body)
        status, raw = server.request("GET", "/metrics")
        assert status == 200
        text = raw.decode("utf-8")
        assert "repro_serve_query_eval_seconds" in text
        assert 'evaluator="vectorized"' in text
        assert 'evaluator="rows"' not in text
        assert 'evaluator="indexed"' not in text


class TestPagination:
    def _body(self, catalog, run_id):
        entry = catalog.get(run_id)
        return {"query": "query10", "params": lineage_params(entry.store)}

    def test_paginated_walk_matches_full_result(self, server, catalog,
                                                sssp_store):
        run_id = run_id_for(catalog, sssp_store)
        body = self._body(catalog, run_id)
        status, full = server.request(
            "POST", f"/runs/{run_id}/query", body=body)
        assert status == 200
        expected = [
            [relation, row]
            for relation in sorted(full["result"]["relations"])
            for row in full["result"]["relations"][relation]["rows"]
        ]
        collected = []
        cursor = None
        while True:
            page_body = dict(body, limit=7)
            if cursor:
                page_body["cursor"] = cursor
            status, doc = server.request(
                "POST", f"/runs/{run_id}/query", body=page_body)
            assert status == 200
            page = doc["page"]
            assert page["total_rows"] == len(expected)
            # Paged responses carry counts, not row bodies, in "result".
            assert "rows" not in next(
                iter(doc["result"]["relations"].values()))
            collected.extend(page["rows"])
            if page["next_cursor"] is None:
                break
            cursor = page["next_cursor"]
        assert collected == expected

    def test_stale_cursor_is_409(self, server, catalog, sssp_store):
        run_id = run_id_for(catalog, sssp_store)
        body = dict(self._body(catalog, run_id), limit=2)
        status, doc = server.request(
            "POST", f"/runs/{run_id}/query", body=body)
        cursor = doc["page"]["next_cursor"]
        assert cursor
        other = dict(body, params={"alpha": 0, "sigma": 0}, cursor=cursor)
        status, doc = server.request(
            "POST", f"/runs/{run_id}/query", body=other)
        assert status == 409
        assert doc["error"] == "bad_cursor"

    def test_pages_over_a_result_holding_infinity(self, server, catalog,
                                                  sssp_store):
        """Query 10 rooted at an unreached vertex's superstep 0 returns
        its initial distance, inf: every page is served (the digest used
        to refuse it with 400 bad_cursor) and staleness is still a 409."""
        run_id = run_id_for(catalog, sssp_store)
        body = {"query": "query10", "params": {"alpha": 1, "sigma": 0}}
        status, full = server.request(
            "POST", f"/runs/{run_id}/query", body=body)
        assert status == 200
        lineage = full["result"]["relations"]["back_lineage"]["rows"]
        assert lineage == [[1, float("inf")]]
        collected, cursor = [], None
        while True:
            page_body = dict(body, limit=1)
            if cursor:
                page_body["cursor"] = cursor
            status, doc = server.request(
                "POST", f"/runs/{run_id}/query", body=page_body)
            assert status == 200, doc
            collected.extend(doc["page"]["rows"])
            cursor = doc["page"]["next_cursor"]
            if cursor is None:
                break
            stale = cursor
        assert collected == [["back_lineage", [1, float("inf")]],
                             ["back_trace", [1, 0]]]
        other = dict(self._body(catalog, run_id), limit=1, cursor=stale)
        status, doc = server.request(
            "POST", f"/runs/{run_id}/query", body=other)
        assert status == 409
        assert doc["error"] == "bad_cursor"

    def test_version_1_cursor_is_400(self, server, catalog, sssp_store):
        """A cursor in the retired version-1 format (a 16-hex digest of
        the serialized result) is refused by name, not read as stale."""
        import base64

        run_id = run_id_for(catalog, sssp_store)
        payload = canonical_json({"v": 1, "offset": 2, "digest": "0" * 16})
        cursor = base64.urlsafe_b64encode(payload.encode()).decode()
        body = dict(self._body(catalog, run_id), limit=2, cursor=cursor)
        status, doc = server.request(
            "POST", f"/runs/{run_id}/query", body=body)
        assert status == 400
        assert doc["error"] == "bad_cursor"
        assert "cursor version 1" in doc["message"]

    def test_garbage_cursor_is_400(self, server, catalog, sssp_store):
        run_id = run_id_for(catalog, sssp_store)
        body = dict(self._body(catalog, run_id), limit=2, cursor="!!!")
        status, doc = server.request(
            "POST", f"/runs/{run_id}/query", body=body)
        assert status == 400
        assert doc["error"] == "bad_cursor"


class TestTracedServing:
    def test_evaluations_trace_under_their_serve_spans(
            self, catalog, sssp_store, pagerank_store, serve_graph,
            tmp_path):
        """Paged walks over two stores run while a third store registers,
        all traced into one process-wide tracer: the trace validates,
        every parent link names a span in it, and each ``query-eval`` span
        reaches a ``serve-eval`` span whose ``run`` is the store it read —
        each evaluation's ``query-eval`` spans are exactly those a direct
        evaluation of that run's query records."""
        from repro import PageRank
        from repro.core import queries as Q
        from repro.obs.sinks import InMemorySink, meta_event, validate_events
        from repro.obs.trace import Tracer, tracing
        from repro.runtime.offline import run_layered
        from tests.serve.conftest import seal_capture

        third = seal_capture(serve_graph, PageRank(num_supersteps=4),
                             str(tmp_path / "third"))
        runs = [catalog.register_path(directory)[0].run_id
                for directory in (sssp_store, pagerank_store)]
        params = {run: lineage_params(catalog.get(run).store)
                  for run in runs}
        served = {run: 0 for run in runs}
        errors = []
        sink = InMemorySink()
        sink.emit(meta_event())
        tracer = Tracer(sink)

        def walk(srv, run):
            try:
                for _ in range(2):
                    cursor = None
                    while True:
                        body = {"query": "query10", "params": params[run],
                                "limit": 3}
                        if cursor:
                            body["cursor"] = cursor
                        status, doc = srv.request(
                            "POST", f"/runs/{run}/query", body=body)
                        assert status == 200, doc
                        served[run] += 1
                        cursor = doc["page"]["next_cursor"]
                        if cursor is None:
                            break
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def register(srv):
            try:
                status, doc = srv.request("POST", "/runs",
                                          body={"path": third})
                assert status == 201, doc
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        with tracing(tracer):
            with ServerThread(catalog=catalog, record_queries=False) as srv:
                threads = [threading.Thread(target=walk, args=(srv, run))
                           for run in runs]
                threads.append(threading.Thread(target=register,
                                                args=(srv,)))
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            tracer.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(catalog) == 3

        assert validate_events(sink.events) == []
        spans = {e["id"]: e for e in sink.events if e["type"] == "span"}
        for span in spans.values():
            assert span["parent"] is None or span["parent"] in spans, span
        assert any(s["name"] == "store-open" for s in spans.values())
        evals = [s for s in spans.values() if s["name"] == "serve-eval"]
        assert sorted(s["attrs"]["run"] for s in evals) == sorted(
            run for run, count in served.items() for _ in range(count))

        def signature(span):
            attrs = span["attrs"]
            return attrs["mode"], attrs.get("layer", -1), attrs["sites"]

        under = {s["id"]: [] for s in evals}
        for span in spans.values():
            if span["cat"] != "query-eval":
                continue
            owner = spans[span["parent"]]
            while owner["cat"] != "serve":
                owner = spans[owner["parent"]]
            assert owner["name"] == "serve-eval"
            under[owner["id"]].append(signature(span))
        expected = {}
        for run in runs:
            direct = InMemorySink()
            with tracing(Tracer(direct)):
                run_layered(catalog.get(run).store,
                            Q.NAMED_QUERIES["query10"], params=params[run])
            expected[run] = sorted(signature(e) for e in direct.events
                                   if e["cat"] == "query-eval")
        assert expected[runs[0]] != expected[runs[1]]
        for span in evals:
            assert sorted(under[span["id"]]) == expected[span["attrs"]["run"]]


class TestLineage:
    def test_backward_lineage(self, server, catalog, sssp_store):
        run_id = run_id_for(catalog, sssp_store)
        entry = catalog.get(run_id)
        params = lineage_params(entry.store)
        status, doc = server.request(
            "GET", f"/runs/{run_id}/lineage/{params['alpha']}"
                   f"?sigma={params['sigma']}")
        assert status == 200
        assert doc["direction"] == "backward"
        assert doc["vertex"] == params["alpha"]
        assert doc["result"]["relations"]["back_lineage"]["count"] > 0

    def test_forward_lineage(self, server, catalog, sssp_store):
        run_id = run_id_for(catalog, sssp_store)
        status, doc = server.request(
            "GET", f"/runs/{run_id}/lineage/0?direction=forward&sigma=0")
        assert status == 200
        assert doc["direction"] == "forward"

    def test_lineage_depth_budget(self, server, catalog, sssp_store):
        run_id = run_id_for(catalog, sssp_store)
        entry = catalog.get(run_id)
        params = lineage_params(entry.store)
        status, doc = server.request(
            "GET", f"/runs/{run_id}/lineage/{params['alpha']}"
                   f"?sigma={params['sigma']}&depth=1")
        assert status == 422
        assert doc["kind"] == "depth"

    def test_lineage_bad_direction(self, server, catalog, sssp_store):
        run_id = run_id_for(catalog, sssp_store)
        status, doc = server.request(
            "GET", f"/runs/{run_id}/lineage/0?direction=sideways")
        assert status == 400

    def test_lineage_pagination(self, server, catalog, sssp_store):
        run_id = run_id_for(catalog, sssp_store)
        entry = catalog.get(run_id)
        params = lineage_params(entry.store)
        status, doc = server.request(
            "GET", f"/runs/{run_id}/lineage/{params['alpha']}"
                   f"?sigma={params['sigma']}&limit=3")
        assert status == 200
        assert len(doc["page"]["rows"]) <= 3
        assert doc["page"]["total_rows"] > 0


class TestDifferentialCLI:
    """The acceptance guarantee: concurrent HTTP queries over two open
    stores return byte-identical results to one-shot CLI invocations."""

    def test_server_matches_cli_byte_for_byte(self, server, catalog,
                                              sssp_store, pagerank_store,
                                              capsys):
        cases = []
        for store in (sssp_store, pagerank_store):
            run_id = run_id_for(catalog, store)
            entry = catalog.get(run_id)
            cases.append((store, run_id, lineage_params(entry.store)))
            cases.append((store, run_id, {"alpha": 0, "sigma": 0}))

        expected = {}
        for store, run_id, params in cases:
            doc = cli_json(capsys, store, "query10", params)
            expected[(run_id, canonical_json(params))] = \
                canonical_json(doc["result"])

        outputs = {}
        errors = []

        def hit(run_id, params):
            try:
                status, doc = server.request(
                    "POST", f"/runs/{run_id}/query",
                    body={"query": "query10", "params": params})
                assert status == 200, doc
                outputs[(run_id, canonical_json(params))] = \
                    canonical_json(doc["result"])
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hit, args=(run_id, params))
            for _store, run_id, params in cases
            for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert outputs == expected


class TestLedgerRecording:
    def test_served_query_appends_parent_linked_record(self, sssp_store,
                                                       tmp_path):
        from repro.obs.ledger import RunLedger
        from repro.serve.catalog import RunCatalog
        store_copy = str(tmp_path / "ledgered")
        shutil.copytree(sssp_store, store_copy)
        catalog = RunCatalog()
        with ServerThread(catalog=catalog, record_queries=True) as srv:
            status, doc = srv.request("POST", "/runs",
                                      body={"path": store_copy})
            run_id = doc["run"]["run_id"]
            status, _ = srv.request(
                "POST", f"/runs/{run_id}/query",
                body={"query": "query10",
                      "params": {"alpha": 0, "sigma": 0}})
            assert status == 200
        records = [r for r in RunLedger(store_copy).records()
                   if r.get("command") == "serve-query"]
        assert records
        assert records[-1]["parent_run_id"] == run_id

    def test_served_digest_equals_the_cli_query_digest(self, sssp_store,
                                                       tmp_path, capsys):
        """A ``serve-query`` record's ``query_sha256`` is ``repro query``'s
        for the same query and store, whether the request was answered
        whole or paged."""
        from repro.obs.ledger import RunLedger
        from repro.serve.catalog import RunCatalog
        store_copy = str(tmp_path / "ledgered")
        shutil.copytree(sssp_store, store_copy)
        ledger = RunLedger(store_copy)
        earlier = len(ledger.records())  # the session store's own history
        catalog = RunCatalog()
        with ServerThread(catalog=catalog, record_queries=True) as srv:
            status, doc = srv.request("POST", "/runs",
                                      body={"path": store_copy})
            run_id = doc["run"]["run_id"]
            params = lineage_params(catalog.get(run_id).store)
            for extra in ({}, {"limit": 2}):
                status, doc = srv.request(
                    "POST", f"/runs/{run_id}/query",
                    body={"query": "query10", "params": params, **extra})
                assert status == 200, doc
        assert sum(rel["count"] for rel in doc["result"]["relations"]
                   .values()) > 2
        argv = ["query", "--store", store_copy, "--query", "query10"]
        for key, value in params.items():
            argv += ["--param", f"{key}={value}"]
        assert main(argv) == 0
        capsys.readouterr()
        digests = {}
        for record in ledger.records()[earlier:]:
            digests.setdefault(record.get("command"), []).append(
                record["results"]["query_sha256"])
        (cli_digest,) = digests["query"]
        assert digests["serve-query"] == [cli_digest, cli_digest]


class TestServeCLI:
    def test_serve_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        text = capsys.readouterr().out
        assert "--no-query-ledger" in text
        assert "--eval-workers" not in text and "--no-verify" not in text

    def test_repro_serve_subprocess(self, sssp_store, tmp_path):
        """`repro serve` comes up, writes the ready file, and answers."""
        import http.client
        ready = tmp_path / "ready"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--store", sssp_store, "--port", "0",
             "--ready-file", str(ready), "--no-query-ledger"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            deadline = time.time() + 30
            while not ready.exists() and time.time() < deadline:
                if proc.poll() is not None:
                    raise AssertionError(
                        f"server exited early: "
                        f"{proc.stderr.read().decode()}")
                time.sleep(0.05)
            assert ready.exists(), "ready file never appeared"
            host, port = ready.read_text().strip().rsplit(":", 1)
            conn = http.client.HTTPConnection(host, int(port), timeout=10)
            conn.request("GET", "/runs")
            response = conn.getresponse()
            doc = json.loads(response.read())
            assert response.status == 200
            assert doc["count"] == 1
            conn.close()
        finally:
            proc.terminate()
            proc.wait(timeout=10)
