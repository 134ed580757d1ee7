"""Query-latency benchmark: layer programs vs the row path over a sealed store.

Evaluates the lineage queries (Query 9 forward, Query 10 backward) over a
sealed *columnar* (ARSC) PageRank capture through
``run_layered_from_spill`` two ways — layer programs (the default) and the
generated row functions (``vectorize=False``) — and writes
``benchmarks/results/BENCH_query_vector.json``:

* per query and lane: best-of-``repeats()`` wall seconds, the evaluator
  that ran, kernel timings and batched / fallback scan counts, plus the
  speedup of layer programs over the row path;
* a hard **byte-identity check**: both lanes must derive exactly the same
  facts on every repetition. The script exits non-zero on any divergence.

Run standalone (CI smoke / perf tracking)::

    PYTHONPATH=src python benchmarks/bench_query_latency.py [--smoke] [--check]

``--smoke`` shrinks the workload so the run finishes in seconds;
``--check`` additionally fails unless layer programs clear
``VECTOR_MIN_SPEEDUP`` over the row path. Scale with ``REPRO_SCALE``. Also
runs under ``pytest benchmarks/ --benchmark-only``. Historical: the
yardstick for the evaluator is ``benchmarks/e2e`` (``offline-query``).
"""

import argparse
import json
import os
import sys
import tempfile

from repro.analytics.pagerank import PageRank
from repro.bench import format_table, publish, results_dir, web_graph_for
from repro.bench.workloads import bench_scale, repeats
from repro.core import queries as Q
from repro.provenance.spill import SpillManager
from repro.runtime.offline import run_layered_from_spill
from repro.runtime.online import run_online

DATASET = "IN-04"
#: The lane's queries and its CI gate: result identity + "layer programs
#: ran" + a speedup floor over the row path (``vectorize=False``). At the
#: 0.25x smoke scale the slower of Q9/Q10 read 5.2-9.1x the row path over
#: eight runs (PR 21; typically 8-9x, 7.5x at full scale), so 3.0 keeps
#: headroom below the noisy tail for CI runners and still fails if the
#: site loop ever moves back outside the evaluator.
VECTOR_QUERIES = ("query9", "query10")
VECTOR_MIN_SPEEDUP = 3.0
#: The lineage queries trace through a long PageRank capture: the paper's
#: lineage experiments are exactly the long-job case, and 100 supersteps
#: keeps the row-path baseline in seconds.
LINEAGE_SUPERSTEPS = 100
LANES = (("vectorized", {}), ("rows", {"vectorize": False}))


def _trace_target(store, superstep):
    """A deterministic vertex that executed at ``superstep``."""
    return min(x for x, i in store.rows("superstep") if i == superstep)


def build_vector_report():
    """Both lanes over one sealed capture; identity checked on every
    repetition, timings best-of-``repeats()``."""
    graph = web_graph_for(DATASET)
    store = run_online(
        graph, PageRank(num_supersteps=LINEAGE_SUPERSTEPS),
        Q.CAPTURE_FULL_QUERY, capture=True,
    ).store
    sigma = store.max_superstep
    cases = {
        "query9": (Q.FORWARD_LINEAGE_FULL_QUERY,
                   {"alpha": _trace_target(store, 0), "sigma": sigma}),
        "query10": (Q.BACKWARD_LINEAGE_FULL_QUERY,
                    {"alpha": _trace_target(store, sigma), "sigma": sigma}),
    }
    directory = tempfile.mkdtemp(prefix="repro-bench-vector-")
    SpillManager(store, directory=directory).seal_all()
    spill = SpillManager.open(directory)
    queries = {}
    for name in VECTOR_QUERIES:
        query, params = cases[name]
        best = {}
        identical = True
        for _ in range(repeats()):
            payloads = {}
            for lane, kwargs in LANES:
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
            identical = identical and payloads["vectorized"] == payloads["rows"]
        vec = best["vectorized"]["wall_seconds"]
        best["speedup_vs_rows"] = (
            best["rows"]["wall_seconds"] / vec if vec else 1.0)
        best["identical"] = identical
        queries[name] = best
    return {
        "store_format": "columnar",
        "min_speedup_gate": VECTOR_MIN_SPEEDUP,
        "queries": queries,
        "all_identical": all(q["identical"] for q in queries.values()),
        "min_speedup_vs_rows": min(
            q["speedup_vs_rows"] for q in queries.values()),
    }


def publish_vector_table(vector):
    rows = []
    for name in VECTOR_QUERIES:
        q = vector["queries"][name]
        rows.append((
            name,
            q["rows"]["wall_seconds"], q["vectorized"]["wall_seconds"],
            q["speedup_vs_rows"], q["vectorized"]["batched_scans"],
            "yes" if q["identical"] else "NO",
        ))
    table = format_table(
        "Layer programs vs row functions: lineage queries over a sealed "
        "ARSC capture",
        ["Query", "Rows s", "Vector s", "vs rows", "Batches", "Same"],
        rows,
    )
    publish("query_vector", table)
    print(table)


def check_vector_report(vector, check_speedup=False):
    assert vector["all_identical"], (
        "layer programs and row functions diverged on a columnar store — "
        "a layer program computed a wrong solution set"
    )
    for name, q in vector["queries"].items():
        assert q["vectorized"]["evaluator"] == "vectorized", (
            f"{name}: the vectorized lane fell back to "
            f"{q['vectorized']['evaluator']!r} — layer programs never ran"
        )
        assert q["rows"]["evaluator"] == "rows", name
        assert q["vectorized"]["batched_scans"] > 0, (
            f"{name}: no scan ever ran inside a layer program"
        )
    if check_speedup:
        assert vector["min_speedup_vs_rows"] >= VECTOR_MIN_SPEEDUP, (
            "layer programs under the gate: "
            f"{vector['min_speedup_vs_rows']:.2f}x the row path's speed, "
            f"required >= {VECTOR_MIN_SPEEDUP:.1f}x"
        )


def write_json(report):
    path = os.path.join(results_dir(), "BENCH_query_vector.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return path


def test_query_latency(benchmark):
    vector = benchmark.pedantic(build_vector_report, rounds=1, iterations=1)
    write_json({"dataset": DATASET, "scale": bench_scale(),
                "vectorized": vector})
    publish_vector_table(vector)
    check_vector_report(vector)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload (CI): shrink the graph")
    parser.add_argument("--check", action="store_true",
                        help="fail unless layer programs clear their "
                             "speedup gate over the row path")
    args = parser.parse_args(argv)
    if args.smoke and "REPRO_SCALE" not in os.environ:
        os.environ["REPRO_SCALE"] = "0.25"
    vector = build_vector_report()
    path = write_json({"dataset": DATASET, "scale": bench_scale(),
                       "smoke": args.smoke, "vectorized": vector})
    publish_vector_table(vector)
    check_vector_report(vector, check_speedup=args.check)
    print(f"wrote {path}")
    print(f"layer programs min speedup {vector['min_speedup_vs_rows']:.2f}x "
          f"vs rows, identical={vector['all_identical']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
