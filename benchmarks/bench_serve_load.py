"""Serve load benchmark: the query server under concurrent clients.

Seals two captures (SSSP and PageRank over the bench web graph), starts
one :class:`~repro.serve.app.ReproServer` holding both open, and drives a
mixed workload — full lineage queries, paginated queries, and lineage
endpoint hits, alternating across both stores — at 1, 8, and 32
concurrent clients. Writes ``benchmarks/results/BENCH_serve.json`` with
requests/second and p50/p99 latency per concurrency level, plus the
warm-vs-cold comparison the serve design is built around:

* **warm** — the served path: catalog-held store, prepared-plan cache
  hit, lazily-built row indexes already in place;
* **cold** — what every request would cost without the catalog: open the
  sealed store from disk, rebuild it, compile the query, evaluate.

Run standalone (CI smoke / perf tracking)::

    PYTHONPATH=src python benchmarks/bench_serve_load.py [--smoke] [--check]

``--smoke`` shrinks the workload so the run finishes in seconds;
``--check`` fails unless results stay byte-identical across clients and
the warm path clears its speedup floor over cold per-request opens.
Scale with ``REPRO_SCALE``. Also runs under ``pytest benchmarks/
--benchmark-only``.
"""

import argparse
import json
import os
import sys
import tempfile
import threading
import time
from statistics import median

from repro import Ariadne, PageRank, SSSP
from repro.bench import format_table, publish, results_dir, web_graph_for
from repro.bench.workloads import PAGERANK_SUPERSTEPS, bench_scale
from repro.provenance.spill import SpillManager, rebuild_store
from repro.runtime.offline import run_layered
from repro.serve.catalog import RunCatalog
from repro.serve.testing import ServerThread

DATASET = "IN-04"

CONCURRENCY_LEVELS = (1, 8, 32)

#: --check floor: a warm served query must beat a cold per-request store
#: open by at least this factor (ISSUE 8 acceptance: >= 2x).
WARM_SPEEDUP_FLOOR = 2.0

#: Requests per client per concurrency level (scaled down by --smoke).
REQUESTS_PER_CLIENT = 12
SMOKE_REQUESTS_PER_CLIENT = 4

#: Cold/warm single-query timing samples.
COMPARE_SAMPLES = 5
SMOKE_COMPARE_SAMPLES = 3


def percentile(samples, fraction):
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def lineage_params(store):
    sigma = store.max_superstep
    alpha = min(x for x, i in store.rows("superstep") if i == sigma)
    return {"alpha": alpha, "sigma": sigma}


def seal_captures(directory):
    """Capture and seal both workload stores; returns their paths."""
    graph = web_graph_for(DATASET, weighted=True)
    stores = {}
    for name, analytic in (
        ("sssp", SSSP(source=0)),
        ("pagerank", PageRank(num_supersteps=PAGERANK_SUPERSTEPS)),
    ):
        capture = Ariadne(graph, analytic).capture()
        target = os.path.join(directory, name)
        SpillManager(capture.store, directory=target).seal_all()
        stores[name] = target
    return stores


def build_workload(server, catalog, stores):
    """The mixed request list one client cycles through: (label, fn)."""
    plans = []
    for path in stores.values():
        entry = catalog._by_path[os.path.abspath(path)]  # noqa: SLF001
        params = lineage_params(entry.store)
        run_id = entry.run_id

        def full(run_id=run_id, params=params):
            return server.request(
                "POST", f"/runs/{run_id}/query",
                body={"query": "query10", "params": params})

        def paged(run_id=run_id, params=params):
            return server.request(
                "POST", f"/runs/{run_id}/query",
                body={"query": "query10", "params": params, "limit": 50})

        def lineage(run_id=run_id, params=params):
            return server.request(
                "GET", f"/runs/{run_id}/lineage/{params['alpha']}"
                       f"?sigma={params['sigma']}")

        plans.extend([("full", full), ("paged", paged),
                      ("lineage", lineage)])
    return plans


def run_level(workload, clients, requests_per_client):
    """Drive ``clients`` threads through the mixed workload; returns
    latency samples, wall time, throttle count, and any cross-client
    result divergence.  Budget 408s under saturation are the server
    shedding load by design — counted, not treated as failures."""
    latencies = []
    digests = {}
    errors = []
    throttled = [0]
    lock = threading.Lock()

    def client(worker):
        for i in range(requests_per_client):
            label, fn = workload[(worker + i) % len(workload)]
            started = time.perf_counter()
            try:
                status, doc = fn()
            except Exception as exc:  # noqa: BLE001 - reported below
                with lock:
                    errors.append(f"{label}: {exc!r}")
                continue
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)
                if (status == 408 and isinstance(doc, dict)
                        and doc.get("error") == "budget_exceeded"):
                    throttled[0] += 1
                    continue
                if status != 200:
                    errors.append(f"{label}: HTTP {status} {doc}")
                    continue
                key = (label, doc.get("run"))
                body = json.dumps(doc.get("result"), sort_keys=True)
                if key in digests and digests[key] != body:
                    errors.append(f"{label}: divergent result for {key}")
                digests.setdefault(key, body)

    threads = [threading.Thread(target=client, args=(w,))
               for w in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return latencies, wall, throttled[0], errors


#: The interactive point-lookup used for the warm/cold comparison: a
#: single-relation scan whose evaluation is cheap, so the measurement
#: isolates what the catalog amortizes (store open + rebuild + plan
#: compilation) rather than evaluation time, which both paths pay
#: identically.
COMPARE_QUERY = "updated(X, I) :- superstep(X, I)."


def measure_warm_vs_cold(server, catalog, stores, samples):
    """Per-request cost: served warm path vs a cold store-open each time."""
    path = stores["sssp"]
    entry = catalog._by_path[os.path.abspath(path)]  # noqa: SLF001
    run_id = entry.run_id
    body = {"query": COMPARE_QUERY}

    # Prime the plan cache and row indexes, then sample the warm path.
    server.request("POST", f"/runs/{run_id}/query", body=body)
    warm = []
    for _ in range(samples):
        started = time.perf_counter()
        status, doc = server.request("POST", f"/runs/{run_id}/query",
                                     body=body)
        warm.append(time.perf_counter() - started)
        assert status == 200 and doc["plan_cache"] == "hit", doc

    cold = []
    for _ in range(samples):
        started = time.perf_counter()
        spill = SpillManager.open(path)
        store = rebuild_store(spill)
        run_layered(store, COMPARE_QUERY)
        cold.append(time.perf_counter() - started)

    return {
        "warm_seconds": median(warm),
        "cold_seconds": median(cold),
        "speedup": median(cold) / median(warm) if median(warm) else 0.0,
        "samples": samples,
    }


def build_report(smoke=False):
    requests_per_client = (SMOKE_REQUESTS_PER_CLIENT if smoke
                           else REQUESTS_PER_CLIENT)
    samples = SMOKE_COMPARE_SAMPLES if smoke else COMPARE_SAMPLES
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        stores = seal_captures(tmp)
        catalog = RunCatalog()
        for path in stores.values():
            catalog.register_path(path)
        with ServerThread(catalog=catalog, record_queries=False,
                          eval_workers=8) as server:
            workload = build_workload(server, catalog, stores)
            levels = {}
            errors = []
            for clients in CONCURRENCY_LEVELS:
                latencies, wall, throttled, level_errors = run_level(
                    workload, clients, requests_per_client)
                errors.extend(level_errors)
                count = len(latencies)
                levels[str(clients)] = {
                    "clients": clients,
                    "requests": count,
                    "throttled": throttled,
                    "wall_seconds": wall,
                    "rps": count / wall if wall else 0.0,
                    "p50_seconds": percentile(latencies, 0.50),
                    "p99_seconds": percentile(latencies, 0.99),
                }
            comparison = measure_warm_vs_cold(
                server, catalog, stores, samples)
    return {
        "dataset": DATASET,
        "scale": bench_scale(),
        "workload": "mixed full/paged/lineage over sssp + pagerank",
        "requests_per_client": requests_per_client,
        "levels": levels,
        "warm_vs_cold": comparison,
        "errors": errors,
    }


def write_json(report):
    path = os.path.join(results_dir(), "BENCH_serve.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return path


def publish_table(report):
    rows = [
        (
            level["clients"],
            level["requests"],
            level["throttled"],
            f"{level['rps']:,.1f}",
            f"{level['p50_seconds'] * 1000:.2f}",
            f"{level['p99_seconds'] * 1000:.2f}",
        )
        for level in (report["levels"][str(c)] for c in CONCURRENCY_LEVELS)
    ]
    table = format_table(
        f"Serve load: mixed workload over two open stores "
        f"({report['dataset']}, scale {report['scale']})",
        ["Clients", "Requests", "408s", "Req/s", "p50 ms", "p99 ms"],
        rows,
    )
    publish("serve_load", table)
    print(table)
    comparison = report["warm_vs_cold"]
    print(
        f"warm served query {comparison['warm_seconds'] * 1000:.2f} ms vs "
        f"cold per-request open {comparison['cold_seconds'] * 1000:.2f} ms "
        f"= {comparison['speedup']:.1f}x (floor {WARM_SPEEDUP_FLOOR:.0f}x)"
    )


def check_report(report, check_speedup=False):
    assert not report["errors"], (
        "load run saw request failures or divergent results: "
        + "; ".join(report["errors"][:5])
    )
    for level in report["levels"].values():
        assert level["requests"] > 0 and level["rps"] > 0
        # Saturation may throttle, but never to the point of serving
        # nothing: every level must complete some 200s.
        assert level["requests"] > level["throttled"], (
            f"level {level['clients']}: all requests budget-throttled"
        )
    if check_speedup:
        speedup = report["warm_vs_cold"]["speedup"]
        assert speedup >= WARM_SPEEDUP_FLOOR, (
            f"warm served path below the {WARM_SPEEDUP_FLOOR:.1f}x floor "
            f"over cold per-request opens: {speedup:.2f}x"
        )


def test_serve_load(benchmark):
    report = benchmark.pedantic(build_report, kwargs={"smoke": True},
                                rounds=1, iterations=1)
    write_json(report)
    publish_table(report)
    check_report(report)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload (CI): shrink graph + requests")
    parser.add_argument("--check", action="store_true",
                        help="fail unless the warm path clears its floor")
    args = parser.parse_args(argv)
    if args.smoke and "REPRO_SCALE" not in os.environ:
        os.environ["REPRO_SCALE"] = "0.25"
    report = build_report(smoke=args.smoke)
    report["smoke"] = args.smoke
    path = write_json(report)
    publish_table(report)
    check_report(report, check_speedup=args.check)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
