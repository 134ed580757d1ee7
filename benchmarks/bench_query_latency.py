"""Query-latency benchmark: hash-indexed vs scan evaluation of Queries 1-12.

Evaluates every paper query (Queries 1-12, ``repro.core.queries``) twice —
once with hash-index probing enabled (the default) and once with the
``--no-index`` scan path — over captured PageRank / SSSP / ALS runs, and
writes ``benchmarks/results/BENCH_query.json``:

* per query: wall seconds for both paths, the speedup, the runtime
  ``index_probes`` / ``index_scans`` counters, and the total duration of
  the ``query-eval`` spans the :mod:`repro.obs` tracer recorded;
* a hard **byte-identity check**: both paths must produce exactly the
  same derived fact sets (and, for capture queries, the same store
  contents). The script exits non-zero on any divergence.

Monitoring queries (1, 4-8) and the capture queries (2, 3, 11) run in the
mode the paper runs them (online, or offline-naive over a sealed capture);
the lineage queries (9, 10, 12) run layered. Online queries time only the
in-run query evaluation (``query_seconds``), not the analytic itself.

Run standalone (CI smoke / perf tracking)::

    PYTHONPATH=src python benchmarks/bench_query_latency.py [--smoke] [--check]

``--smoke`` shrinks every workload so the full matrix finishes in seconds;
``--check`` additionally fails unless indexing is a net win in aggregate
(total indexed wall <= total scan wall). Scale with ``REPRO_SCALE``.
Also runs under ``pytest benchmarks/ --benchmark-only``.
"""

import argparse
import json
import os
import sys

from repro.analytics.als import ALS
from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.bench import (
    captured_store,
    format_table,
    ml20_for,
    publish,
    results_dir,
    web_graph_for,
)
from repro.bench.workloads import PAGERANK_SUPERSTEPS, bench_scale, repeats
from repro.core import queries as Q
from repro.core.queries import apt_udfs
from repro.engine.config import EngineConfig
from repro.obs import InMemorySink, Tracer, set_tracer
from repro.obs.sinks import spans_of
from repro.runtime.offline import run_layered, run_naive
from repro.runtime.online import run_online

DATASET = "IN-04"
ALS_FEATURES = 5
ALS_ROUNDS = 2
#: The vectorized lane's queries and its CI gate: result identity + "layer
#: programs ran" + a speedup floor over the indexed row path. Re-baselined
#: for layer programs (one program run per rule and layer instead of one
#: per rule, layer and vertex): at the 0.25x smoke scale Q9/Q10 read
#: 7.1-7.6x indexed (the per-site kernels they replace read 0.98-1.09x),
#: so 3.0 keeps >2x headroom for CI-runner noise and still fails if the
#: site loop ever moves back outside the evaluator. The yardstick for the
#: evaluator as a whole stays ``benchmarks/e2e`` (``offline-query wall_s``).
VECTOR_QUERIES = ("query9", "query10")
VECTOR_MIN_SPEEDUP = 3.0
#: The lineage queries (9, 10) trace through a dedicated longer PageRank
#: capture: probe narrowing grows with partition depth (rows per vertex ~
#: supersteps), and the paper's lineage experiments are exactly the
#: long-job case. 100 supersteps keeps the scan baseline in seconds.
LINEAGE_SUPERSTEPS = 100


def _trace_target(store, superstep):
    """A deterministic vertex that executed at ``superstep``."""
    return min(x for x, i in store.rows("superstep") if i == superstep)


def _store_dict(store):
    """A store's full contents as a comparable relation -> rows mapping."""
    return {
        relation: sorted(store.rows(relation), key=repr)
        for relation in sorted(store.relations())
    }


def _measured(run, use_index):
    """Run one evaluation under a fresh tracer; returns the comparable
    result payload plus the per-path measurement record."""
    tracer = Tracer(InMemorySink())
    previous = set_tracer(tracer)
    try:
        result, wall = run(use_index)
    finally:
        set_tracer(previous)
    span_seconds = sum(
        span["dur"] for span in spans_of(tracer.sink.events)
        if span["name"] == "query-eval"
    ) / 1e6
    query = result.query if hasattr(result, "query") else result
    payload = {"derived": query.as_dict()}
    if getattr(result, "store", None) is not None:
        payload["store"] = _store_dict(result.store)
    return payload, {
        "wall_seconds": wall,
        "span_query_eval_seconds": span_seconds,
        "index_probes": query.stats.get("index_probes", 0),
        "index_scans": query.stats.get("index_scans", 0),
    }


def _offline_runner(make_store, query, graph, params, mode):
    driver = run_layered if mode == "layered" else run_naive

    def run(use_index):
        result = driver(make_store(), query, graph, params,
                        use_index=use_index)
        return result, result.wall_seconds

    return run


def _online_runner(graph, make_analytic, query, params=None, udfs=None,
                   capture=False):
    def run(use_index):
        result = run_online(
            graph, make_analytic(), query, params=params, udfs=udfs,
            capture=capture,
            config=EngineConfig(query_index=use_index),
        )
        # Online latency is the in-run query evaluation, not the analytic.
        return result, result.query.wall_seconds

    return run


_LINEAGE_CTX = None


def lineage_context():
    """The long PageRank lineage capture shared by the Q9/Q10 specs and
    the vectorized lane: ``(graph, store, fwd_params, back_params)``.
    Cached per process so the capture runs once however many lanes ask."""
    global _LINEAGE_CTX
    if _LINEAGE_CTX is None:
        pr_graph = web_graph_for(DATASET)
        store = run_online(
            pr_graph, PageRank(num_supersteps=LINEAGE_SUPERSTEPS),
            Q.CAPTURE_FULL_QUERY, capture=True,
        ).store
        sigma = store.max_superstep
        fwd_params = {"alpha": _trace_target(store, 0), "sigma": sigma}
        back_params = {"alpha": _trace_target(store, sigma), "sigma": sigma}
        _LINEAGE_CTX = (pr_graph, store, fwd_params, back_params)
    return _LINEAGE_CTX


def build_specs():
    """One (name, mode, workload, runner) entry per paper query."""
    pr_graph = web_graph_for(DATASET)
    sssp_graph = web_graph_for(DATASET, weighted=True)
    pr_store = captured_store("pagerank", DATASET)
    sssp_store = captured_store("sssp", DATASET)

    def pagerank():
        return PageRank(num_supersteps=PAGERANK_SUPERSTEPS)

    bipartite = ml20_for(ALS_FEATURES)
    als_graph = bipartite.to_digraph()

    def als():
        return ALS(bipartite, num_features=ALS_FEATURES,
                   max_rounds=ALS_ROUNDS)

    _graph, lineage_store, fwd_params, back_params = lineage_context()

    custom_store = run_online(
        pr_graph, pagerank(), Q.CAPTURE_BACKWARD_CUSTOM_QUERY, capture=True,
    ).store
    custom_sigma = max(i for _x, i in custom_store.rows("prov_send"))
    custom_params = {
        "alpha": min(
            x for x, i in custom_store.rows("prov_send") if i == custom_sigma
        ),
        "sigma": custom_sigma,
    }

    pr = f"pagerank/{DATASET}"
    ss = f"sssp/{DATASET}"
    ml = f"als/ML-20^{ALS_FEATURES}"
    return [
        ("query1", "online", pr, _online_runner(
            pr_graph, pagerank, Q.APT_QUERY, params={"eps": 0.01},
            udfs=apt_udfs(pagerank()))),
        ("query2", "online", pr, _online_runner(
            pr_graph, pagerank, Q.CAPTURE_FULL_QUERY, capture=True)),
        ("query3", "online", pr, _online_runner(
            pr_graph, pagerank, Q.CAPTURE_FWD_LINEAGE_QUERY,
            params={"source": _trace_target(pr_store, 0)}, capture=True)),
        ("query4", "naive", pr, _offline_runner(
            lambda: pr_store, Q.PAGERANK_CHECK_QUERY, pr_graph, None,
            "naive")),
        ("query5", "naive", ss, _offline_runner(
            lambda: sssp_store, Q.SSSP_WCC_UPDATE_CHECK_QUERY, sssp_graph,
            None, "naive")),
        ("query6", "naive", ss, _offline_runner(
            lambda: sssp_store, Q.SSSP_WCC_STABILITY_QUERY, sssp_graph,
            None, "naive")),
        ("query7", "online", ml, _online_runner(
            als_graph, als, Q.ALS_ERROR_RANGE_QUERY)),
        ("query8", "online", ml, _online_runner(
            als_graph, als, Q.ALS_ERROR_TREND_QUERY, params={"eps": 0.0})),
        ("query9", "layered", pr, _offline_runner(
            lambda: lineage_store, Q.FORWARD_LINEAGE_FULL_QUERY, pr_graph,
            fwd_params, "layered")),
        ("query10", "layered", pr, _offline_runner(
            lambda: lineage_store, Q.BACKWARD_LINEAGE_FULL_QUERY, pr_graph,
            back_params, "layered")),
        ("query11", "online", pr, _online_runner(
            pr_graph, pagerank, Q.CAPTURE_BACKWARD_CUSTOM_QUERY,
            capture=True)),
        ("query12", "layered", pr, _offline_runner(
            lambda: custom_store, Q.BACKWARD_LINEAGE_CUSTOM_QUERY, pr_graph,
            custom_params, "layered")),
    ]


def measure_query(runner):
    """Both paths, best-of-``repeats()``; identity checked on every pair."""
    best = {}
    identical = True
    for _ in range(repeats()):
        indexed_payload, indexed = _measured(runner, True)
        scan_payload, scan = _measured(runner, False)
        identical = identical and indexed_payload == scan_payload
        for key, record in (("indexed", indexed), ("scan", scan)):
            if (key not in best
                    or record["wall_seconds"] < best[key]["wall_seconds"]):
                best[key] = record
    wall = best["indexed"]["wall_seconds"]
    best["speedup"] = (best["scan"]["wall_seconds"] / wall) if wall else 1.0
    best["identical"] = identical
    return best


def build_vector_report():
    """The vectorized lane: the lineage queries over a sealed *columnar*
    capture, evaluated three ways through ``run_layered_from_spill`` —
    batch kernels (default), the indexed row path (``vectorize=False``),
    and the plain scan path. Results must be byte-identical across all
    three on every repetition; timings are best-of-``repeats()``."""
    import tempfile

    from repro.provenance.spill import SpillManager
    from repro.runtime.offline import run_layered_from_spill

    graph, store, fwd_params, back_params = lineage_context()
    directory = tempfile.mkdtemp(prefix="repro-bench-vector-")
    SpillManager(store, directory=directory).seal_all()
    spill = SpillManager.open(directory)
    cases = {
        "query9": (Q.FORWARD_LINEAGE_FULL_QUERY, fwd_params),
        "query10": (Q.BACKWARD_LINEAGE_FULL_QUERY, back_params),
    }
    lanes = (
        ("vectorized", {}),
        ("indexed", {"vectorize": False}),
        ("scan", {"vectorize": False, "use_index": False}),
    )
    queries = {}
    for name in VECTOR_QUERIES:
        query, params = cases[name]
        best = {}
        identical = True
        for _ in range(repeats()):
            payloads = {}
            for lane, kwargs in lanes:
                result = run_layered_from_spill(
                    spill, query, graph, params, **kwargs)
                payloads[lane] = result.as_dict()
                record = {
                    "wall_seconds": result.wall_seconds,
                    "evaluator": result.stats.get("evaluator"),
                    "kernel_seconds": result.stats.get("kernel_seconds"),
                    "batched_scans": result.stats.get("batched_scans", 0),
                    "fallback_scans": result.stats.get("fallback_scans", 0),
                }
                if (lane not in best or record["wall_seconds"]
                        < best[lane]["wall_seconds"]):
                    best[lane] = record
            identical = identical and (
                payloads["vectorized"] == payloads["indexed"]
                == payloads["scan"]
            )
        vec = best["vectorized"]["wall_seconds"]
        best["speedup_vs_indexed"] = (
            best["indexed"]["wall_seconds"] / vec if vec else 1.0)
        best["speedup_vs_scan"] = (
            best["scan"]["wall_seconds"] / vec if vec else 1.0)
        best["identical"] = identical
        queries[name] = best
    return {
        "store_format": "columnar",
        "min_speedup_gate": VECTOR_MIN_SPEEDUP,
        "queries": queries,
        "all_identical": all(q["identical"] for q in queries.values()),
        "min_speedup_vs_indexed": min(
            q["speedup_vs_indexed"] for q in queries.values()),
    }


def build_report():
    queries = {}
    for name, mode, workload, runner in build_specs():
        record = measure_query(runner)
        record["mode"] = mode
        record["workload"] = workload
        queries[name] = record
    total_indexed = sum(q["indexed"]["wall_seconds"] for q in queries.values())
    total_scan = sum(q["scan"]["wall_seconds"] for q in queries.values())
    return {
        "dataset": DATASET,
        "scale": bench_scale(),
        "queries": queries,
        "total_indexed_seconds": total_indexed,
        "total_scan_seconds": total_scan,
        "total_speedup": (total_scan / total_indexed) if total_indexed
        else 1.0,
        "max_speedup": max(q["speedup"] for q in queries.values()),
        "all_identical": all(q["identical"] for q in queries.values()),
        "vectorized": build_vector_report(),
    }


def write_json(report):
    path = os.path.join(results_dir(), "BENCH_query.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return path


def publish_table(report):
    rows = []
    for name in sorted(report["queries"],
                       key=lambda n: int(n.replace("query", ""))):
        q = report["queries"][name]
        rows.append((
            name, q["mode"], q["workload"],
            q["scan"]["wall_seconds"], q["indexed"]["wall_seconds"],
            q["speedup"],
            q["indexed"]["index_probes"], q["indexed"]["index_scans"],
            "yes" if q["identical"] else "NO",
        ))
    table = format_table(
        "Query latency: scan vs hash-indexed evaluation (Queries 1-12)",
        ["Query", "Mode", "Workload", "Scan s", "Indexed s", "Speedup",
         "Probes", "Scans", "Same"],
        rows,
    )
    publish("query_latency", table)
    print(table)


def publish_vector_table(vector):
    rows = []
    for name in VECTOR_QUERIES:
        q = vector["queries"][name]
        rows.append((
            name,
            q["scan"]["wall_seconds"], q["indexed"]["wall_seconds"],
            q["vectorized"]["wall_seconds"],
            q["speedup_vs_indexed"], q["speedup_vs_scan"],
            q["vectorized"]["batched_scans"],
            "yes" if q["identical"] else "NO",
        ))
    table = format_table(
        "Vectorized columnar evaluation: lineage queries over a sealed "
        "ARSC capture",
        ["Query", "Scan s", "Indexed s", "Vector s", "vs idx", "vs scan",
         "Batches", "Same"],
        rows,
    )
    publish("query_vector", table)
    print(table)


def check_report(report, check_speedup=False):
    assert report["all_identical"], (
        "indexed and scan evaluation diverged — the hash index returned a "
        "wrong candidate set"
    )
    probing = sum(
        q["indexed"]["index_probes"] for q in report["queries"].values()
    )
    assert probing > 0, "no query ever hash-probed; the index path is dead"
    if check_speedup:
        assert (report["total_indexed_seconds"]
                <= report["total_scan_seconds"]), (
            "indexing was a net loss: "
            f"{report['total_indexed_seconds']:.3f}s indexed vs "
            f"{report['total_scan_seconds']:.3f}s scan"
        )
    if "vectorized" in report:
        check_vector_report(report["vectorized"],
                            check_speedup=check_speedup)


def check_vector_report(vector, check_speedup=False):
    assert vector["all_identical"], (
        "vectorized, indexed, and scan evaluation diverged on a columnar "
        "store — a batch kernel computed a wrong solution set"
    )
    for name, q in vector["queries"].items():
        assert q["vectorized"]["evaluator"] == "vectorized", (
            f"{name}: the vectorized lane fell back to "
            f"{q['vectorized']['evaluator']!r} — batch kernels never ran"
        )
        assert q["indexed"]["evaluator"] == "indexed", name
        assert q["scan"]["evaluator"] == "scan", name
        assert q["vectorized"]["batched_scans"] > 0, (
            f"{name}: no scan ever took a batch kernel"
        )
    if check_speedup:
        assert vector["min_speedup_vs_indexed"] >= VECTOR_MIN_SPEEDUP, (
            "vectorized evaluation under the gate: "
            f"{vector['min_speedup_vs_indexed']:.2f}x of the indexed row "
            f"path's speed, required >= {VECTOR_MIN_SPEEDUP:.1f}x"
        )


def test_query_latency(benchmark):
    report = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_json(report)
    publish_table(report)
    check_report(report)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads (CI): shrink every graph")
    parser.add_argument("--check", action="store_true",
                        help="fail unless indexing is a net aggregate win "
                             "and the vectorized lane clears its gate")
    parser.add_argument("--vector-only", action="store_true",
                        help="run only the vectorized columnar lane "
                             "(writes BENCH_query_vector.json; the "
                             "query-vector CI smoke job's mode)")
    args = parser.parse_args(argv)
    if args.smoke and "REPRO_SCALE" not in os.environ:
        os.environ["REPRO_SCALE"] = "0.25"
    if args.vector_only:
        vector = build_vector_report()
        report = {"dataset": DATASET, "scale": bench_scale(),
                  "smoke": args.smoke, "vectorized": vector}
        path = os.path.join(results_dir(), "BENCH_query_vector.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        publish_vector_table(vector)
        check_vector_report(vector, check_speedup=args.check)
        print(f"wrote {path}")
        print(f"vectorized min speedup {vector['min_speedup_vs_indexed']:.2f}x "
              f"vs indexed, identical={vector['all_identical']}")
        return 0
    report = build_report()
    report["smoke"] = args.smoke
    path = write_json(report)
    publish_table(report)
    publish_vector_table(report["vectorized"])
    check_report(report, check_speedup=args.check)
    print(f"wrote {path}")
    print(f"max speedup {report['max_speedup']:.2f}x, "
          f"aggregate {report['total_speedup']:.2f}x, "
          f"vectorized min {report['vectorized']['min_speedup_vs_indexed']:.2f}x, "
          f"identical={report['all_identical']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
