"""Ablations of the online-evaluation design choices (DESIGN.md §3).

Two switches, each isolated on the apt query over SSSP:

* **delta piggybacking** — per-target watermarks ship each derived tuple to
  a neighbor once; the ablation re-ships full tables on every message;
* **window pruning** — bounded-history relations are pruned per superstep;
  the ablation retains the full transient provenance.

(A third, ``timed_index=False``, unsliced the stored partitions' superstep
index; superstep programs read stored relations only a layer per
superstep, so it changed nothing and is gone.)

Each row reports runtime (best of ``REPEATS`` runs — the variants are
within a few percent of each other, less than one run's noise) and the
memory/traffic metric the switch targets. With ``prune_history`` on,
window-0 relations live in per-superstep frames and never reach the
transient store (DESIGN.md §16); "no window pruning" stores and keeps them.
"""

import time

from repro.analytics.sssp import SSSP
from repro.bench import format_table, publish, web_graph_for
from repro.core import queries as Q
from repro.engine.config import EngineConfig
from repro.engine.engine import PregelEngine
from repro.pql.analysis import compile_query
from repro.pql.parser import parse
from repro.pql.udf import FunctionRegistry
from repro.runtime.online import OnlineQueryProgram
from repro.runtime.results import QueryResult

DATASET = "UK-02"
REPEATS = 3


def run_variant(**switches):
    runs = [_run_once(**switches) for _ in range(REPEATS)]
    best = min(runs, key=lambda run: run["seconds"])
    # everything but the clock is deterministic
    assert all({**run, "seconds": 0} == {**best, "seconds": 0} for run in runs)
    return best


def _run_once(**switches):
    graph = web_graph_for(DATASET, weighted=True)
    analytic = SSSP(source=0)
    functions = FunctionRegistry(Q.apt_udfs(analytic))
    compiled = compile_query(
        parse(Q.APT_QUERY).bind(eps=0.1), functions=functions
    )
    engine = PregelEngine(graph, config=EngineConfig(use_combiner=False))
    wrapper = OnlineQueryProgram(
        analytic.make_program(), compiled, functions, engine,
        value_projector=analytic.provenance_value, **switches,
    )
    wrapper.run_setup()
    start = time.perf_counter()
    engine.run(wrapper)
    elapsed = time.perf_counter() - start
    result = QueryResult(derived=wrapper.db.derived, mode="online")
    return {
        "seconds": elapsed,
        "shipped": wrapper.shipped_tuples,
        "transient": wrapper.transient_rows,
        "safe": result.count("safe"),
        "unsafe": result.count("unsafe"),
    }


def build_rows():
    default = run_variant()
    no_delta = run_variant(ship_full_tables=True)
    no_prune = run_variant(prune_history=False)
    rows = [
        ("default", default["seconds"], default["shipped"],
         default["transient"]),
        ("full-table shipping", no_delta["seconds"], no_delta["shipped"],
         no_delta["transient"]),
        ("no window pruning", no_prune["seconds"], no_prune["shipped"],
         no_prune["transient"]),
    ]
    # every variant computes the same query result
    for variant in (no_delta, no_prune):
        assert variant["safe"] == default["safe"]
        assert variant["unsafe"] == default["unsafe"]
    return rows, default, no_delta, no_prune


def test_ablation_online(benchmark):
    rows, default, no_delta, no_prune = benchmark.pedantic(
        build_rows, rounds=1, iterations=1
    )
    table = format_table(
        f"Ablation: online apt query on {DATASET} (SSSP, eps=0.1)",
        ["Variant", "Seconds", "Shipped tuples", "Transient rows"],
        rows,
    )
    publish("ablation_online", table)
    # delta shipping must move fewer tuples than full-table shipping
    assert default["shipped"] < no_delta["shipped"]
    # pruning must keep the transient store smaller
    assert default["transient"] < no_prune["transient"]
    # ... and, since frames replaced the store-then-prune round trip, cost
    # nothing: before frames "no window pruning" was the faster row
    assert default["seconds"] < no_prune["seconds"]
