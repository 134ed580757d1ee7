"""The four workloads.  Each times calls into the program's public
functions from outside; nothing under ``src/`` knows it is being measured.

A workload has ``setup()`` (inputs and any state that is not the thing
measured — timed by the driver as ``setup_s``), ``rep()`` (one pass of the
measured work, returning a flat sample of numbers), ``verify()`` (output
checks across reps and across evaluation modes) and ``teardown()``.
``summarise()`` turns the per-key steady values (``steady()``: the lower
quartile over reps) of the samples into the metric names of
``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from statistics import median
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import gen
from spans import Recorder
from steady import percentile, steady

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.core import queries as Q
from repro.core.ariadne import Ariadne
from repro.engine.engine import PregelEngine
from repro.obs.ledger import digest_query_result, digest_rows
from repro.pql import serialize
from repro.pql.analysis import compile_query
from repro.pql.parser import parse
from repro.pql.udf import FunctionRegistry
from repro.provenance.spill import SpillManager, open_store_view, rebuild_store
from repro.runtime.offline import run_layered, run_layered_from_spill
from repro.runtime.online import run_online

Sample = Dict[str, float]

#: Bare-analytic runs per rep: cells are ~0.05 s, so ≥5 reps give the
#: ≥15 baseline samples per cell the medians need.
BASELINE_INNER = 3
#: Distinct lineage roots an offline-query run cycles through.
LINEAGE_ROOTS = 4
#: Requests per serve-mixed rep: two schedule blocks, so every rep has the
#: exact 50/30/15/5 mix.
SERVE_CHUNK = 40
#: The serve-mixed pass that ``wall_s`` is quoted for.
SERVE_PASS = 240
#: Served parameter sets re-evaluated directly in verify().
SERVE_DIRECT_CHECKS = 12


def store_digest(store: Any) -> str:
    return digest_rows({rel: store.rows(rel) for rel in store.relations()})


def sealed_capture(graph: Any, analytic: Any, directory: str) -> Any:
    """Capture ``analytic`` on ``graph`` under Query 2 and seal it into
    ``directory``; returns the capture result (in-memory store kept)."""
    capture = Ariadne(graph, analytic).capture(spill_directory=directory)
    capture.spill.seal_all()
    return capture


def canonical(doc: Any) -> str:
    """Canonical text of a served document.  Unlike
    ``serialize.canonical_json`` it lets ``Infinity`` through: SSSP
    stores hold it for unreached vertices and the server emits it."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class Workload:
    """Shared bookkeeping: timed calls, operation counts, temp space."""

    name = ""

    def __init__(self, seed: int, sizes: Dict[str, int], tmp_root: str,
                 rec: Recorder, traced: bool) -> None:
        self.seed = seed
        self.sizes = sizes
        self.tmp_root = tmp_root
        self.rec = rec
        self.traced = traced  # this run alternates traced reps
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.info: Dict[str, Any] = {}      # non-numeric facts for the report
        self.graph_build: List[float] = []  # one total per setup()
        self._dirs = 0

    # -- helpers --------------------------------------------------------
    def call(self, name: str, layer: str, fn: Callable[[], Any], rep: Any,
             obs: bool = False, **attrs: Any) -> Tuple[Any, float]:
        """One timed call into a layer (one attempted operation).  The
        clock sits inside the span so span bookkeeping is not in it."""
        self.attempted += 1
        with self.rec.span(name, layer, rep=rep, obs=obs, **attrs):
            start = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - start

    def check(self, ok: bool, what: str) -> None:
        """One output comparison (one attempted operation)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def new_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.tmp_root, f"{label}-{self._dirs:04d}")
        os.makedirs(path)
        return path

    def build(self, fn: Callable[[], Any]) -> Any:
        """Generate one input graph, adding its time to this setup's
        ``graph_build_s``."""
        start = time.perf_counter()
        out = fn()
        self.graph_build[-1] += time.perf_counter() - start
        return out

    def baseline(self, graph: Any, analytic: Any, rep: Any,
                 cell: str) -> Tuple[Any, float]:
        """Steady value of ``BASELINE_INNER`` bare-analytic runs."""
        walls = []
        for _ in range(BASELINE_INNER):
            run, wall = self.call(
                "PregelEngine.run", "repro.engine",
                lambda: PregelEngine(graph).run(analytic.make_program()),
                rep, cell=cell)
            walls.append(wall)
        return run, steady(walls)

    # -- protocol -------------------------------------------------------
    def setup(self) -> None:
        self.graph_build.append(0.0)

    def rep(self, rep: int) -> Sample:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def fold_program_trace(self) -> None:
        """After teardown of a traced run: fold in whatever the program
        traced outside this process (only the served workload has any)."""

    def summarise(self, med: Sample) -> Dict[str, float]:
        raise NotImplementedError


# ----------------------------------------------------------------------
class OnlineMonitor(Workload):
    """``run_online`` of three (analytic, query) cells beside the bare
    analytic; no capture, no disk."""

    name = "online-monitor"

    def setup(self) -> None:
        super().setup()
        pagerank = self.build(lambda: gen.pagerank_graph(
            "pagerank/UK-02", self.seed, self.sizes))
        weighted, source = self.build(lambda: gen.sssp_graph(
            "sssp/UK-05", self.seed, self.sizes))
        pr = PageRank(num_supersteps=gen.PAGERANK_SUPERSTEPS)
        sssp = SSSP(source=source)
        self.cells = [
            ("sssp_q1", weighted, sssp, Q.APT_QUERY, {"eps": 0.1}),
            ("pagerank_q1", pagerank, pr, Q.APT_QUERY, {"eps": 0.01}),
            ("pagerank_q4", pagerank, pr, Q.PAGERANK_CHECK_QUERY, None),
        ]
        self.digests: Dict[str, set] = {cell[0]: set() for cell in self.cells}
        self.values: Dict[str, set] = {cell[0]: set() for cell in self.cells}

    def rep(self, rep: int) -> Sample:
        sample: Sample = {}
        for cell, graph, analytic, query, params in self.cells:
            bare, sample[f"engine_s.{cell}"] = self.baseline(
                graph, analytic, rep, cell)
            online, sample[f"online_s.{cell}"] = self.call(
                "run_online", "repro.runtime.online",
                lambda: run_online(graph, analytic, query, params=params,
                                   udfs=Q.apt_udfs(analytic)),
                rep, obs=True, cell=cell)
            summary = bare.metrics.summary()
            for key in ("supersteps", "vertex_executions", "messages"):
                sample[f"{key}.{cell}"] = summary[key]
            sample[f"eval_s.{cell}"] = online.query.stats["query_seconds"]
            self.digests[cell].add(digest_query_result(online.query))
            # the monitored analytic must compute what the bare one does
            self.values[cell].add(online.values == bare.values)
        return sample

    def verify(self) -> None:
        captures: Dict[int, Any] = {}
        for cell, graph, analytic, query, params in self.cells:
            self.check(len(self.digests[cell]) == 1,
                       f"{cell}: online result differs between reps")
            self.check(self.values[cell] == {True},
                       f"{cell}: monitored analytic values differ from bare")
            # online rows == layered evaluation over a capture of the same run
            key = id(graph)
            if key not in captures:
                directory = self.new_dir("verify")
                sealed_capture(graph, analytic, directory)
                captures[key] = SpillManager.open(directory)
            offline = run_layered_from_spill(
                captures[key], query, graph, params, Q.apt_udfs(analytic))
            self.check({digest_query_result(offline)} == self.digests[cell],
                       f"{cell}: online rows != layered rows over a capture")

    def summarise(self, med: Sample) -> Dict[str, float]:
        def total(prefix: str) -> float:
            return sum(med[f"{prefix}.{cell[0]}"] for cell in self.cells)

        online, engine = total("online_s"), total("engine_s")
        executions = total("vertex_executions")
        return {
            "wall_s": online,
            "aux_ms": engine * 1e3,
            "online_wall_s": online,
            "baseline_wall_s": engine,
            "online_overhead_x": online / engine,
            "engine_run_s": engine,
            "supersteps": total("supersteps"),
            "vertex_executions": executions,
            "messages": total("messages"),
            "online_extra_s": online - engine,
            "online_us_per_vertex_execution":
                (online - engine) / executions * 1e6,
            "online_eval_s": total("eval_s"),
        }


# ----------------------------------------------------------------------
class CaptureSeal(Workload):
    """PageRank under full capture (Query 2) through ``seal_all()`` to
    ARSC, and one ``SpillManager.open``."""

    name = "capture-seal"

    def setup(self) -> None:
        super().setup()
        self.graph = self.build(lambda: gen.pagerank_graph(
            "pagerank/UK-02", self.seed, self.sizes))
        self.analytic = PageRank(num_supersteps=gen.PAGERANK_SUPERSTEPS)
        self.manifests: set = set()
        self.last: Optional[Tuple[Any, str]] = None  # (in-memory store, dir)

    def rep(self, rep: int) -> Sample:
        if self.last is not None:
            shutil.rmtree(self.last[1], ignore_errors=True)
            self.last = None
            gc.collect()
        directory = self.new_dir("capture")
        _bare, engine_s = self.baseline(self.graph, self.analytic, rep,
                                        "pagerank")
        capture, run_s = self.call(
            "Ariadne.capture", "repro.provenance.store",
            lambda: Ariadne(self.graph, self.analytic).capture(
                spill_directory=directory),
            rep, obs=True)
        store_bytes, seal_s = self.call(
            "SpillManager.seal_all", "repro.provenance.spill",
            capture.spill.seal_all, rep, obs=True)
        wall = run_s + seal_s  # run start -> provenance durable
        reopened, reopen_s = self.call(
            "SpillManager.open", "repro.provenance.columnar",
            lambda: SpillManager.open(directory), rep)
        self.manifests.add(json.dumps(reopened.slab_digests, sort_keys=True))
        self.last = (capture.store, directory)
        rows = capture.store.num_rows
        return {
            "capture_wall_s": wall, "capture_run_s": run_s, "seal_s": seal_s,
            "reopen_ms": reopen_s * 1e3, "engine_s": engine_s,
            "store_bytes": store_bytes, "ingest_rows": rows,
        }

    def verify(self) -> None:
        self.check(len(self.manifests) == 1,
                   "sealed slab digests differ between reps")
        store, directory = self.last
        reopened = rebuild_store(SpillManager.open(directory))
        self.check(store_digest(reopened) == store_digest(store),
                   "reopened store digest != in-memory store digest")

    def summarise(self, med: Sample) -> Dict[str, float]:
        extra = med["capture_run_s"] - med["engine_s"]
        return {
            "wall_s": med["capture_wall_s"],
            "aux_ms": med["engine_s"] * 1e3,
            "capture_wall_s": med["capture_wall_s"],
            "capture_overhead_x": med["capture_wall_s"] / med["engine_s"],
            "engine_run_s": med["engine_s"],
            "capture_extra_s": extra,
            "ingest_rows": med["ingest_rows"],
            "ingest_rows_per_s": med["ingest_rows"] / extra,
            "seal_s": med["seal_s"],
            "seal_bytes_per_row": med["store_bytes"] / med["ingest_rows"],
            "reopen_ms": med["reopen_ms"],
            "store_bytes": med["store_bytes"],
        }


# ----------------------------------------------------------------------
class OfflineQuery(Workload):
    """Queries 10, 9, 1 and 4 through ``run_layered_from_spill`` over a
    sealed PageRank capture: cold on a fresh handle, warm on a held one."""

    name = "offline-query"
    QUERIES = ("query10", "query9", "query1", "query4")

    def setup(self) -> None:
        super().setup()
        self.graph = self.build(lambda: gen.pagerank_graph(
            "pagerank/UK-02", self.seed, self.sizes))
        self.analytic = PageRank(num_supersteps=gen.PAGERANK_SUPERSTEPS)
        self.udfs = Q.apt_udfs(self.analytic)
        self.directory = self.new_dir("store")
        capture = sealed_capture(self.graph, self.analytic, self.directory)
        self.store = capture.store
        self.targets = gen.lineage_targets(
            self.store.rows("superstep"), self.seed, "offline", LINEAGE_ROOTS)
        self.held = SpillManager.open(self.directory)
        self.registry = open_store_view(self.held).registry
        self.digests: Dict[Tuple[str, Any], set] = {}
        self.info["store_rows"] = self.store.num_rows
        self.info["sigma"] = self.targets["sigma"]

    def params(self, query: str, rep: int) -> Optional[Dict[str, Any]]:
        sigma = self.targets["sigma"]
        if query == "query10":
            roots = self.targets["backward"][:LINEAGE_ROOTS]
            return {"alpha": roots[rep % len(roots)], "sigma": sigma}
        if query == "query9":
            roots = self.targets["forward"][:LINEAGE_ROOTS]
            return {"alpha": roots[rep % len(roots)], "sigma": sigma}
        return {"eps": 0.01} if query == "query1" else None

    def evaluate(self, handle: Any, query: str, rep: int,
                 temp: str) -> Tuple[Any, float]:
        params = self.params(query, rep)
        result, wall = self.call(
            "run_layered_from_spill", "repro.runtime.offline",
            lambda: run_layered_from_spill(
                handle, Q.NAMED_QUERIES[query], self.graph, params, self.udfs),
            rep, obs=True, query=query, temp=temp)
        key = (query, (params or {}).get("alpha"))
        self.digests.setdefault(key, set()).add(digest_query_result(result))
        return result, wall

    def rep(self, rep: int) -> Sample:
        sample: Sample = {}
        # cold: a fresh handle pays footer reads and dictionary decode
        # (the OS page cache is warm: the slabs were just written)
        fresh, open_s = self.call(
            "SpillManager.open", "repro.provenance.columnar",
            lambda: SpillManager.open(self.directory), rep)
        _result, first_s = self.evaluate(fresh, "query10", rep, "cold")
        fresh.release_slabs()
        sample["reopen_ms"] = open_s * 1e3
        sample["cold_query_s"] = open_s + first_s
        functions = FunctionRegistry(self.udfs)
        for query in self.QUERIES:
            program = parse(Q.NAMED_QUERIES[query])
            params = self.params(query, rep)
            if params:
                program = program.bind(**params)
            _plan, compile_s = self.call(
                "compile_query", "repro.pql",
                lambda: compile_query(program, registry=self.registry,
                                      functions=functions),
                rep, query=query)
            result, wall = self.evaluate(self.held, query, rep, "warm")
            stats = result.stats
            sample[f"compile_ms.{query}"] = compile_s * 1e3
            sample[f"query_ms.{query}"] = wall * 1e3
            sample[f"kernel_s.{query}"] = sum(
                stats.get("kernel_seconds", {}).values())
            sample[f"batched_scans.{query}"] = stats.get("batched_scans", 0)
            sample[f"fallback_scans.{query}"] = stats.get("fallback_scans", 0)
            sample[f"decoded_bytes.{query}"] = stats["decoded_bytes"]
            sample[f"peak_slab_bytes.{query}"] = stats["peak_slab_bytes"]
            self.info[f"evaluator.{query}"] = stats["evaluator"]
        return sample

    def verify(self) -> None:
        for (query, alpha), digests in sorted(self.digests.items(), key=repr):
            self.check(len(digests) == 1,
                       f"{query} alpha={alpha}: results differ between reps "
                       "or between cold and warm handles")
        # from-spill (columnar, vectorized) == layered over the in-memory store
        for query in self.QUERIES:
            params = self.params(query, 0)
            direct = run_layered(self.store, Q.NAMED_QUERIES[query],
                                 self.graph, params, self.udfs)
            key = (query, (params or {}).get("alpha"))
            self.check({digest_query_result(direct)} == self.digests[key],
                       f"{query}: sealed-store rows != in-memory store rows")

    def teardown(self) -> None:
        self.held.release_slabs()

    def summarise(self, med: Sample) -> Dict[str, float]:
        def total(prefix: str) -> float:
            return sum(med[f"{prefix}.{q}"] for q in self.QUERIES)

        batched, fallback = total("batched_scans"), total("fallback_scans")
        out = {
            "wall_s": total("query_ms") / 1e3,
            "aux_ms": med["cold_query_s"] * 1e3,
            "query_wall_s": total("query_ms") / 1e3,
            "cold_query_s": med["cold_query_s"],
            "reopen_ms": med["reopen_ms"],
            "compile_ms": total("compile_ms"),
            "kernel_s": total("kernel_s"),
            "batched_scans": batched,
            "fallback_scans": fallback,
            "fallback_frac": fallback / (batched + fallback),
            "decoded_bytes": total("decoded_bytes"),
            "peak_decoded_bytes": max(
                med[f"peak_slab_bytes.{q}"] for q in self.QUERIES),
            "store_bytes": float(self.held.total_sealed_bytes()),
        }
        for query in self.QUERIES:
            out[f"query_ms.{query}"] = med[f"query_ms.{query}"]
        return out


# ----------------------------------------------------------------------
class Server:
    """A ``python -m repro serve`` subprocess over sealed stores."""

    def __init__(self, stores: Dict[str, str], work_dir: str,
                 trace_path: Optional[str] = None) -> None:
        ready = os.path.join(work_dir, "ready")
        self.log_path = os.path.join(work_dir, "server.log")
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--ready-file", ready]
        for directory in stores.values():
            command += ["--store", directory]
        if trace_path:
            command += ["--trace", trace_path]
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(command, stdout=log, stderr=log)
        try:
            deadline = time.monotonic() + 60
            while not os.path.exists(ready) or not os.path.getsize(ready):
                if self.process.poll() is not None \
                        or time.monotonic() > deadline:
                    raise RuntimeError("repro serve did not come up")
                time.sleep(0.01)
            with open(ready, encoding="utf-8") as fh:
                host, port = fh.read().strip().rsplit(":", 1)
            self.host, self.port = host, int(port)
            conn = self.connect()
            try:
                status, doc = request(conn, "GET", "/runs")
            finally:
                conn.close()
            if status != 200:
                raise RuntimeError(f"GET /runs answered {status}")
            by_dir = {run["directory"]: run["run_id"] for run in doc["runs"]}
            self.run_ids = {name: by_dir[os.path.abspath(directory)]
                            for name, directory in stores.items()}
        except BaseException:
            self.stop()
            with open(self.log_path, "rb") as log:
                sys.stderr.write(log.read()[-2000:].decode("utf-8", "replace"))
            raise

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown, which also flushes its
        trace), then SIGKILL; always waits, so no server outlives us."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()


def clients() -> int:
    return min(os.cpu_count() or 1, 2)


def request(conn: http.client.HTTPConnection, method: str, path: str,
            body: Optional[Dict[str, Any]] = None) -> Tuple[int, Any]:
    payload = None if body is None else json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"} if payload else {}
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    data = response.read()
    if response.getheader("Content-Type", "").startswith("application/json"):
        return response.status, json.loads(data.decode("utf-8"))
    return response.status, data


class ServeMixed(Workload):
    """A serve subprocess holding two sealed stores, driven closed loop
    by ``min(nproc, 2)`` keep-alive clients through a seeded mix."""

    name = "serve-mixed"
    KINDS = ("point", "paged", "full", "lineage")

    def setup(self) -> None:
        super().setup()
        self.servers: Dict[bool, Server] = {}
        self.stores: Dict[str, str] = {}
        targets: Dict[str, Dict[str, Any]] = {}
        weighted, source = self.build(lambda: gen.sssp_graph(
            "serve-sssp/IN-04", self.seed, self.sizes))
        pagerank = self.build(lambda: gen.pagerank_graph(
            "serve-pagerank/UK-02", self.seed, self.sizes))
        for name, graph, analytic in (
            ("sssp", weighted, SSSP(source=source)),
            ("pagerank", pagerank,
             PageRank(num_supersteps=gen.PAGERANK_SUPERSTEPS)),
        ):
            directory = self.new_dir(f"served-{name}")
            capture = sealed_capture(graph, analytic, directory)
            targets[name] = gen.lineage_targets(
                capture.store.rows("superstep"), self.seed, f"serve/{name}",
                3 * gen.SERVE_HOT_POOL)
            self.stores[name] = directory
            self.info[f"store_rows.{name}"] = capture.store.num_rows
            self.info[f"sigma.{name}"] = targets[name]["sigma"]
        # Paged Query 10 over the SSSP store answers 400: its rows hold
        # Infinity, which the pagination digest refuses (README, Findings).
        self.schedule: Iterator[gen.ServeRequest] = gen.serve_schedule(
            self.seed, targets, paged_stores=["pagerank"])
        # In a traced run a second server, started with ``--trace``, takes
        # the traced reps; the untraced reps keep the plain one.
        self.servers[False] = Server(self.stores, self.new_dir("server"))
        if self.traced:
            work_dir = self.new_dir("server")
            self.server_trace = os.path.join(work_dir, "obs.jsonl")
            self.servers[True] = Server(self.stores, work_dir,
                                        self.server_trace)
        self.conns = {
            traced: [server.connect() for _ in range(clients())]
            for traced, server in self.servers.items()
        }
        self.lock = threading.Lock()
        self.bodies: Dict[Tuple[Any, ...], set] = {}
        self.examples: Dict[Tuple[Any, ...], str] = {}
        self.asked: Dict[Tuple[Any, ...], int] = {}

    # -- one request ----------------------------------------------------
    def send(self, conn: http.client.HTTPConnection, server: Server,
             req: gen.ServeRequest) -> Tuple[int, Any]:
        run_id = server.run_ids[req.store]
        if req.kind == "point":
            return request(conn, "POST", f"/runs/{run_id}/query",
                           {"query": gen.POINT_QUERY})
        if req.kind == "lineage":
            return request(conn, "GET", f"/runs/{run_id}/lineage/{req.alpha}"
                                        f"?sigma={req.sigma}")
        body: Dict[str, Any] = {
            "query": "query10",
            "params": {"alpha": req.alpha, "sigma": req.sigma},
        }
        if req.kind == "paged":
            body["limit"] = gen.SERVE_PAGE_LIMIT
        return request(conn, "POST", f"/runs/{run_id}/query", body)

    def rep(self, rep: int) -> Sample:
        traced = self.rec.enabled
        server = self.servers[traced]
        chunk = [next(self.schedule) for _ in range(SERVE_CHUNK)]
        queue = iter(chunk)
        done: List[Tuple[gen.ServeRequest, float, int, Any]] = []
        parent = self.rec.current()  # the rep span, for the threads

        def client(conn: http.client.HTTPConnection) -> None:
            while True:
                with self.lock:
                    req = next(queue, None)
                if req is None:
                    return
                with self.rec.span("http.request", "repro.serve", rep=rep,
                                   parent=parent, kind=req.kind) as span:
                    start = time.perf_counter()
                    try:
                        status, doc = self.send(conn, server, req)
                    except (OSError, http.client.HTTPException) as exc:
                        status, doc = 0, repr(exc)
                    latency = time.perf_counter() - start
                if span is not None and status == 200:
                    self.rec.add_child(
                        span, "evaluate", "repro.runtime.offline",
                        int(doc["wall_seconds"] * 1e6))
                with self.lock:
                    done.append((req, latency, status, doc))

        conns = self.conns[traced]
        with ThreadPoolExecutor(max_workers=len(conns)) as pool:
            start = time.perf_counter()
            for future in [pool.submit(client, conn) for conn in conns]:
                future.result()  # re-raises what a client thread raised
            wall = time.perf_counter() - start

        sample: Sample = {"chunk_s": wall}
        by_kind: Dict[str, List[float]] = {kind: [] for kind in self.KINDS}
        overhead, hits, kernel, batched, fallback = [], 0, 0.0, 0, 0
        latencies: List[float] = []
        non200 = 0
        for req, latency, status, doc in done:
            self.attempted += 1
            if status != 200:
                self.failed += 1
                non200 += 1
                self.notes.append(f"request {req.index} ({req.kind}): "
                                  f"HTTP {status} {str(doc)[:120]}")
                continue
            by_kind[req.kind].append(latency * 1e3)
            overhead.append((latency - doc["wall_seconds"]) * 1e3)
            hits += doc["plan_cache"] == "hit"
            stats = doc.get("stats", {})
            kernel += sum(stats.get("kernel_seconds", {}).values())
            batched += stats.get("batched_scans", 0)
            fallback += stats.get("fallback_scans", 0)
            latencies.append(latency * 1e3)
            self.remember(req, doc)
        ok = len(done) - non200
        for kind in self.KINDS:
            sample[f"serve_ms.{kind}"] = (
                median(by_kind[kind]) if by_kind[kind] else 0.0)
        sample["serve_overhead_ms"] = median(overhead) if overhead else 0.0
        sample["p50_ms"] = percentile(latencies, 0.50) if latencies else 0.0
        sample["p95_ms"] = percentile(latencies, 0.95) if latencies else 0.0
        sample["plan_cache_hit_frac"] = hits / ok if ok else 0.0
        sample["serve_non200"] = non200
        sample["kernel_s"] = kernel
        sample["batched_scans"] = batched
        sample["fallback_scans"] = fallback
        return sample

    def remember(self, req: gen.ServeRequest, doc: Dict[str, Any]) -> None:
        """Keep a digest of what was served per distinct request, for the
        cross-request and served-vs-direct checks."""
        key = (req.kind == "paged", req.kind == "point", req.store,
               req.alpha, req.sigma)
        text = canonical(
            {"result": doc["result"], "page": doc.get("page")})
        self.bodies.setdefault(key, set()).add(
            hashlib.sha256(text.encode("utf-8")).hexdigest())
        self.examples.setdefault(key, text)
        self.asked[key] = self.asked.get(key, 0) + 1

    def verify(self) -> None:
        for key, digests in sorted(self.bodies.items(), key=repr):
            self.check(len(digests) == 1,
                       f"served result differs between requests for {key}")
        # served result == direct evaluation, most-requested keys first
        handles = {name: SpillManager.open(directory)
                   for name, directory in self.stores.items()}
        most_asked = sorted(self.asked, key=lambda k: (-self.asked[k], repr(k)))
        for key in most_asked[:SERVE_DIRECT_CHECKS]:
            paged, point, store, alpha, sigma = key
            if point:
                query, params = gen.POINT_QUERY, None
            else:
                query = Q.NAMED_QUERIES["query10"]
                params = {"alpha": alpha, "sigma": sigma}
            direct = run_layered_from_spill(handles[store], query, None,
                                            params)
            expected = {"result": serialize.result_to_dict(direct),
                        "page": None}
            if paged:
                expected["page"] = serialize.paginate(
                    direct, gen.SERVE_PAGE_LIMIT)
                for relation in expected["result"]["relations"].values():
                    del relation["rows"]
            self.check(
                canonical(expected) == self.examples[key],
                f"served result != direct evaluation for {key}")
        for handle in handles.values():
            handle.release_slabs()

    def teardown(self) -> None:
        for conns in getattr(self, "conns", {}).values():
            for conn in conns:
                conn.close()
        for server in getattr(self, "servers", {}).values():
            server.stop()

    def fold_program_trace(self) -> None:
        """Fold the traced server's ``repro.obs`` events under the rep
        they fell in (teardown made the server flush its trace).  Both
        processes read the same monotonic clock, so timestamps compare."""
        from repro.obs import read_trace

        events = [e for e in read_trace(self.server_trace)
                  if e.get("type") == "span"]
        for rep in [s for s in self.rec.spans if s["name"] == "rep"]:
            self.rec.fold_obs(rep, [
                e for e in events
                if rep["start_us"] <= e["ts"] and e["ts"] + e["dur"] <= rep["end_us"]
            ])

    def summarise(self, med: Sample) -> Dict[str, float]:
        batched, fallback = med["batched_scans"], med["fallback_scans"]
        out = {
            "wall_s": SERVE_PASS * med["chunk_s"] / SERVE_CHUNK,
            "aux_ms": med["p95_ms"],
            "serve_p50_ms": med["p50_ms"],
            "serve_p95_ms": med["p95_ms"],
            "serve_rps": SERVE_CHUNK / med["chunk_s"],
            "serve_overhead_ms": med["serve_overhead_ms"],
            "plan_cache_hit_frac": med["plan_cache_hit_frac"],
            "serve_non200": med["serve_non200"],
            "kernel_s": med["kernel_s"],
            "batched_scans": batched,
            "fallback_scans": fallback,
            "fallback_frac": (fallback / (batched + fallback)
                              if batched + fallback else 0.0),
            "store_bytes": float(sum(
                os.path.getsize(os.path.join(directory, name))
                for directory in self.stores.values()
                for name in os.listdir(directory) if name.endswith(".slab"))),
        }
        for kind in self.KINDS:
            out[f"serve_ms.{kind}"] = med[f"serve_ms.{kind}"]
        return out


WORKLOADS = {cls.name: cls for cls in
             (OnlineMonitor, CaptureSeal, OfflineQuery, ServeMixed)}
