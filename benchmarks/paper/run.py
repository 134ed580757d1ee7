"""Section 6 of the paper, regenerated: Tables 2-6, Figs. 7-12, the
§6.2.2 apt verdicts, three ablations and the serve warm-vs-cold gate.

    python3 benchmarks/paper/run.py [--smoke]

Every graph and capture is built once per (analytic, dataset) and read by
every table and figure that needs it: Table 3, Fig. 7 and the offline
modes of Figs. 8, 11 and 12 share one Query 2 capture; Table 4 and Fig. 7
share one Query 3 capture; Fig. 10 and Tables 5/6 share the bare runs.

Each cell is one line of ``benchmarks/paper/out/paper.jsonl``
(``paper.smoke.jsonl`` with ``--smoke``), stamped with commit, Python,
cores, scale and seed; so is the verdict on each ordering that
EXPERIMENTS.md lists at its top. The run exits non-zero when an ordering
fails that no waiver names, or when a waived ordering holds: a waiver
that is no longer needed must be deleted with the fix that made it so.

``--smoke`` runs the two smallest web graphs and a quarter-size ML-20; it
checks the same orderings.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from statistics import median
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.analytics import PAPER_EPSILONS  # noqa: E402
from repro.analytics.als import ALS  # noqa: E402
from repro.analytics.error import median as value_median  # noqa: E402
from repro.analytics.error import normalized_error  # noqa: E402
from repro.analytics.pagerank import PageRank  # noqa: E402
from repro.analytics.sssp import SSSP  # noqa: E402
from repro.analytics.wcc import WCC  # noqa: E402
from repro.core import queries as Q  # noqa: E402
from repro.engine.engine import PregelEngine  # noqa: E402
from repro.graph.datasets import ML_20, WEB_DATASET_ORDER, WEB_DATASETS  # noqa: E402
from repro.graph.stats import (  # noqa: E402
    average_degree, estimate_average_diameter, max_degree_vertex)
from repro.obs.ledger import environment_fingerprint  # noqa: E402
from repro.pql.analysis import compile_query  # noqa: E402
from repro.pql.parser import parse  # noqa: E402
from repro.pql.seminaive import evaluate_seminaive, store_to_facts  # noqa: E402
from repro.pql.udf import FunctionRegistry  # noqa: E402
from repro.provenance.graphview import unfold  # noqa: E402
from repro.provenance.spill import SpillManager, rebuild_store  # noqa: E402
from repro.runtime.offline import (  # noqa: E402
    run_layered, run_layered_from_spill, run_naive_from_spill)
from repro.runtime.online import OnlineQueryProgram, run_online  # noqa: E402
from repro.runtime.results import QueryResult  # noqa: E402
from repro.serve.catalog import RunCatalog  # noqa: E402
from repro.serve.testing import ServerThread  # noqa: E402
from repro.sizemodel import graph_bytes  # noqa: E402

OUT = os.path.join(HERE, "out")

#: The one seed: it offsets every dataset's generator seed and seeds the
#: diameter estimate.
SEED = 0
#: Web graphs at 1/40,000 of the crawls (185-987 vertices), ML-20 at
#: 1/1500. ``--smoke`` runs the two smallest web graphs only, and ML-20 at
#: SMOKE_ML_SCALE of its size: smaller web graphs bring the timed
#: orderings within noise (a 64-vertex SSSP runs in 2 ms), and Fig. 9's
#: bounds and Query 8's fraction hold at either size.
WEB_SCALE = 1.0 / 40_000.0
ML_SCALE = 1.0 / 1500.0
SMOKE_DATASETS = ("IN-04", "UK-02")
SMOKE_ML_SCALE = 0.25
#: Each timing is the median of REPEATS runs. Timings that an ordering
#: compares take turns within each round (``timed``), so the VM's drift
#: over a cell hits both sides alike.
REPEATS = 3
#: Fig. 12's two lineage queries take 15-300 ms and sit within 10-20% of
#: each other in sum; they are cheap enough for more rounds.
LINEAGE_ROUNDS = 9
ANALYTICS = ("pagerank", "sssp", "wcc")
PAGERANK_SUPERSTEPS = 20
#: The paper runs Naive only where it fits: the two smallest datasets.
NAIVE_DATASETS = ("IN-04", "UK-02")
#: Fig. 8's (analytic, query) pairs.
MONITORING = (
    ("pagerank", "query4", Q.PAGERANK_CHECK_QUERY),
    ("sssp", "query5", Q.SSSP_WCC_UPDATE_CHECK_QUERY),
    ("sssp", "query6", Q.SSSP_WCC_STABILITY_QUERY),
    ("wcc", "query5", Q.SSSP_WCC_UPDATE_CHECK_QUERY),
    ("wcc", "query6", Q.SSSP_WCC_STABILITY_QUERY),
)
ALS_FEATURES = (5, 10, 15)
ALS_ROUNDS = 3
#: Query 8's error-increase threshold. The paper uses 0.5 on the real
#: MovieLens ratings; our synthetic ratings are much cleaner (low rank plus
#: small noise), so the comparable operating point is a tighter one.
Q8_EPS = 0.0
#: Reads of one vertex's value history per side of the compact ablation.
READS = 50
#: The semi-naive ablation caps the trace depth: naive iteration is
#: quadratic in it, and a dozen rounds make the contrast unambiguous.
MAX_TRACE_DEPTH = 12
#: A warm served query must beat a cold per-request store open by this.
WARM_SPEEDUP_FLOOR = 2.0
WARM_COLD_SAMPLES = 5
#: The served point lookup of the warm/cold gate: a one-relation scan, so
#: the gate measures what the catalog saves (store open, rebuild, plan
#: compile), not evaluation, which both paths pay alike.
SERVE_QUERY = "updated(X, I) :- superstep(X, I)."

#: The orderings EXPERIMENTS.md lists at its top, by id.
ORDERINGS = {
    "table3.provenance_dwarfs_input":
        "full provenance is more than 2x the input (PageRank)",
    "table3.wcc_below_pagerank": "WCC captures less than PageRank",
    "table4.custom_near_input":
        "custom capture stays under 3x the input bytes",
    "table4.pagerank_coverage":
        "PageRank's influence set covers over half the vertices",
    "fig7.capture_costs": "full capture costs more than the bare analytic",
    "fig7.custom_stores_less": "custom capture stores under half of full's",
    "fig7.custom_cheaper": "custom capture runs cheaper than full capture",
    "fig8.online_beats_capture_layered": "online < capture + layered",
    "fig8.online_beats_layered": "online < layered, in sum",
    "fig8.naive_slowest": "naive > layered, in sum",
    "fig9.als_lockstep": "Query 7 under 25x and Query 8 under 40x ALS",
    "fig9.q8_flags": "Query 8 flags over 5% of the vertices",
    "fig10.fewer_messages": "the optimized analytic sends fewer messages",
    "fig10.not_slower": "the optimized analytic is not slower (> 0.9x)",
    "fig11.online_beats_capture_layered": "online < capture + layered",
    "fig11.online_beats_layered": "online < layered, in sum",
    "fig11.naive_slowest": "naive > layered, in sum",
    "fig11.verdicts":
        "PageRank/SSSP: safe, no unsafe; WCC: never safe",
    "table5.pagerank_error": "L2 error < 0.05, medians within 0.1",
    "table6.sssp_error": "L1 error < 0.15, optimized medians never lower",
    "fig12.same_lineage": "Query 12 returns Query 10's lineage",
    "fig12.custom_cheaper":
        "Query 12 costs less than Query 10, per analytic in sum",
    "fig12.custom_half_of_full":
        "Query 12 costs at most half of Query 10, per analytic in sum",
    "ablation.compact_blowup": "unfolding blows the node count up > 2x",
    "ablation.seminaive": "naive fixpoint iteration is slower",
    "ablation.window_pruning":
        "pruning keeps fewer rows, the same result, and is faster",
    "serve.warm_beats_cold":
        f"a warm served query is >= {WARM_SPEEDUP_FLOOR:.0f}x a cold open",
}

#: Orderings known to fail on today's tree, each with the ROADMAP item
#: that owns the fix. A waived ordering that fails is a deviation; one
#: that holds fails the run, so the fix must delete its waiver.
WAIVERS = {
    "fig7.custom_cheaper": "ROADMAP item 1",
    "fig8.online_beats_layered": "ROADMAP items 2/3",
    "fig11.online_beats_layered": "ROADMAP items 2/3",
    "fig12.custom_half_of_full": "ROADMAP item 10",
}

Check = Tuple[str, str, bool]  # (ordering, cell, holds)


def make_analytic(name: str, epsilon: Optional[float] = None) -> Any:
    """One of the paper's analytics; with ``epsilon``, its approximate
    (apt-optimized) variant."""
    if name == "pagerank":
        return PageRank(num_supersteps=PAGERANK_SUPERSTEPS, epsilon=epsilon)
    if name == "sssp":
        return SSSP(source=0, epsilon=epsilon or 0.0)
    return WCC()


def timed(*fns: Callable[[], Any],
          rounds: int = REPEATS) -> List[Tuple[float, Any]]:
    """Each of ``fns``' median wall time over ``rounds`` rounds, in each of
    which every fn runs once in turn, and what its last call returned."""
    samples: List[List[float]] = [[] for _ in fns]
    results: List[Any] = [None] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            results[i] = None
            gc.collect()  # no call pays for an earlier call's garbage
            start = time.perf_counter()
            results[i] = fn()
            samples[i].append(time.perf_counter() - start)
    return [(median(s), r) for s, r in zip(samples, results)]


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


class Bench:
    """One run: its datasets and scale, the graphs it generated, and the
    records written so far."""

    def __init__(self, smoke: bool) -> None:
        self.ml_scale = ML_SCALE * (SMOKE_ML_SCALE if smoke else 1.0)
        self.datasets = SMOKE_DATASETS if smoke else tuple(WEB_DATASET_ORDER)
        self.stamp = {
            **environment_fingerprint(),  # python, usable_cores, ...
            "commit": commit(),
            "scale": {"web": WEB_SCALE, "ml": self.ml_scale},
            "seed": SEED,
            "smoke": smoke,
            "repeats": REPEATS,
        }
        self.records: List[Dict[str, Any]] = []
        self._graphs: Dict[Tuple[str, bool], Any] = {}

    def graph(self, dataset: str, weighted: bool = False) -> Any:
        key = (dataset, weighted)
        if key not in self._graphs:
            spec = WEB_DATASETS[dataset]
            spec = replace(spec, seed=spec.seed + SEED)
            self._graphs[key] = (spec.generate_weighted(WEB_SCALE)
                                 if weighted else spec.generate(WEB_SCALE))
        return self._graphs[key]

    def ratings(self, features: int) -> Any:
        spec = replace(ML_20, seed=ML_20.seed + SEED)
        return spec.generate(num_features=features, scale=self.ml_scale)

    def record(self, figure: str, cell: Dict[str, Any],
               **values: Any) -> None:
        entry = {"record": "cell", "figure": figure, "cell": cell,
                 "values": values, "stamp": self.stamp}
        self.records.append(entry)
        shown = " ".join(f"{k}={_short(v)}" for k, v in values.items())
        print(f"{figure:<10} {' '.join(map(str, cell.values())):<18} {shown}",
              flush=True)


def _short(value: Any) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


# -- cells ----------------------------------------------------------------


def datasets_cells(bench: Bench) -> None:
    """Table 2."""
    for dataset in bench.datasets:
        spec, g = WEB_DATASETS[dataset], bench.graph(dataset)
        bench.record(
            "table2", {"dataset": dataset}, vertices=g.num_vertices,
            edges=g.num_edges, avg_degree=average_degree(g),
            avg_diameter=estimate_average_diameter(g, samples=8, seed=SEED),
            paper_avg_degree=spec.paper_avg_degree,
            paper_avg_diameter=spec.paper_avg_diameter)
    ml = bench.ratings(5)
    bench.record("table2", {"dataset": "ML-20"},
                 vertices=ml.num_users + ml.num_items, edges=ml.num_ratings,
                 avg_degree=ml.num_ratings / (ml.num_users + ml.num_items),
                 avg_diameter=1.0, paper_avg_degree=121.0,
                 paper_avg_diameter=1.0)


def query_modes(graph: Any, name: str, spill: SpillManager, query: str,
                params: Optional[Dict[str, Any]], naive: bool,
                baseline: float, capture: float,
                online: Optional[float] = None) -> Dict[str, float]:
    """Online, layered and (where the paper runs it) naive wall times of
    one query over ``baseline``, the offline modes reading the sealed full
    capture, and capture + layered. ``online``, when given, is a time the
    caller measured beside the capture."""
    udfs = Q.apt_udfs(make_analytic(name))
    modes: Dict[str, Callable[[], Any]] = {
        "layered": lambda: run_layered_from_spill(
            spill, query, graph, params, udfs)}
    if online is None:
        modes["online"] = lambda: run_online(
            graph, make_analytic(name), query, params=params, udfs=udfs)
    if naive:
        modes["naive"] = lambda: run_naive_from_spill(
            spill, query, graph, params, udfs)
    seconds = {mode: s for mode, (s, _) in zip(modes, timed(*modes.values()))}
    seconds.setdefault("online", online)
    return {"baseline_s": baseline,
            **{f"{mode}_x": s / baseline for mode, s in seconds.items()},
            "capture_layered_x": (capture + seconds["layered"]) / baseline}


def analytic_cells(bench: Bench, name: str, dataset: str,
                   workdir: str) -> None:
    """Every cell of (analytic, dataset): Tables 3-6, Figs. 7, 8, 10-12,
    the ablations that read its capture, and (SSSP on IN-04) the serve
    gate."""
    graph = bench.graph(dataset, weighted=name == "sssp")
    cell = {"analytic": name, "dataset": dataset}

    def plain(analytic: Any) -> Callable[[], Any]:
        return lambda: PregelEngine(graph).run(analytic.make_program())

    if name == "wcc":  # no apt-optimized variant
        [(baseline, bare)] = timed(plain(make_analytic(name)))
    else:
        approx = make_analytic(name, PAPER_EPSILONS[name])
        (baseline, bare), (approx_s, approx_run) = timed(
            plain(make_analytic(name)), plain(approx))
        bench.record(
            "fig10", cell, original_s=baseline, optimized_s=approx_s,
            speedup=baseline / approx_s,
            message_reduction=bare.metrics.total_messages
            / max(1, approx_run.metrics.total_messages))
        exact_v = make_analytic(name).result_vector(bare.values)
        approx_v = approx.result_vector(approx_run.values)
        bench.record(
            "table5" if name == "pagerank" else "table6", cell,
            epsilon=PAPER_EPSILONS[name],
            error=normalized_error(exact_v, approx_v,
                                   p=2 if name == "pagerank" else 1),
            median_a=value_median(exact_v), median_b=value_median(approx_v))

    # Fig. 11's apt query online runs beside the full capture it is set
    # against, and Fig. 7's custom capture beside the full one
    source = 0 if name == "sssp" else max_degree_vertex(graph, kind="out")
    apt = {"eps": PAPER_EPSILONS[name]}
    (capture, full), (custom_s, custom), (online_s, online) = timed(
        lambda: run_online(graph, make_analytic(name), Q.CAPTURE_FULL_QUERY,
                           capture=True),
        lambda: run_online(graph, make_analytic(name),
                           Q.CAPTURE_FWD_LINEAGE_QUERY,
                           params={"source": source}, capture=True),
        lambda: run_online(graph, make_analytic(name), Q.APT_QUERY,
                           params=apt, udfs=Q.apt_udfs(make_analytic(name))))
    store = full.store
    input_bytes = graph_bytes(bench.graph(dataset))
    bench.record("table3", cell, input_bytes=input_bytes,
                 full_bytes=store.total_bytes(),
                 full_x=store.total_bytes() / input_bytes)
    bench.record("table4", cell, input_bytes=input_bytes,
                 custom_bytes=custom.store.total_bytes(),
                 coverage=len(custom.store.vertices("fwd_lineage"))
                 / graph.num_vertices)
    bench.record("fig7", cell, baseline_s=baseline,
                 full_x=capture / baseline, custom_x=custom_s / baseline,
                 bytes_full_over_custom=store.total_bytes()
                 / max(1, custom.store.total_bytes()))
    del custom

    naive = dataset in NAIVE_DATASETS
    directory = os.path.join(workdir, f"{name}-{dataset}")
    with SpillManager(store, directory=directory) as spill:
        spill.seal_all()
        for analytic, query_name, query in MONITORING:
            if analytic == name:
                bench.record("fig8", {**cell, "query": query_name},
                             **query_modes(graph, name, spill, query, None,
                                           naive, baseline, capture))
        bench.record("fig11", cell, **query_modes(
            graph, name, spill, Q.APT_QUERY, apt, naive, baseline, capture,
            online=online_s))
        bench.record("fig11.verdicts", cell,
                     no_execute=online.query.count("no_execute"),
                     safe=online.query.count("safe"),
                     unsafe=online.query.count("unsafe"))
        backward_cells(bench, graph, name, cell, baseline, store, spill)
        if name == "sssp" and dataset == "IN-04":
            serve_cell(bench, cell, directory)
    if name == "pagerank" and naive:
        compact_cell(bench, cell, store)
    if name == "sssp" and naive:
        seminaive_cell(bench, graph, cell, store)
    if name == "sssp" and dataset == "UK-02":
        pruning_cell(bench, graph, cell)


def trace_target(store: Any, depth: Optional[int] = None) -> Dict[str, Any]:
    """A vertex that computed in the last superstep (the paper's choice),
    or in superstep ``depth`` if that is earlier."""
    sigma = store.max_superstep if depth is None else min(
        store.max_superstep, depth)
    alpha = min(x for x, i in store.rows("superstep") if i == sigma)
    return {"alpha": alpha, "sigma": sigma}


def backward_cells(bench: Bench, graph: Any, name: str,
                   cell: Dict[str, Any], baseline: float, store: Any,
                   spill: SpillManager) -> None:
    """Fig. 12: layered backward lineage over the full capture (Query 10)
    and over the custom one (Query 11 capture, Query 12). WCC broadcasts
    along reverse edges too, so its custom capture reads symmetric edges.

    The figure compares what tracing costs when the capture is read from
    storage, so each call reads its capture from the slabs: it opens the
    store's read session and ends it (a warm session would leave the two
    queries' identical join work and nothing of the smaller capture's
    saving; EXPERIMENTS.md, Figure 12)."""
    capture_query = (Q.CAPTURE_BACKWARD_CUSTOM_UNDIRECTED_QUERY
                     if name == "wcc" else Q.CAPTURE_BACKWARD_CUSTOM_QUERY)
    custom = run_online(graph, make_analytic(name), capture_query,
                        capture=True).store
    params = trace_target(store)

    def from_slabs(sealed: SpillManager, query: str) -> Callable[[], Any]:
        def run() -> Any:
            try:
                return run_layered_from_spill(sealed, query, graph, params)
            finally:
                sealed.release_slabs()
        return run

    with SpillManager(custom) as custom_spill:
        custom_spill.seal_all()
        (full_s, full), (custom_s, mine) = timed(
            from_slabs(spill, Q.BACKWARD_LINEAGE_FULL_QUERY),
            from_slabs(custom_spill, Q.BACKWARD_LINEAGE_CUSTOM_QUERY),
            rounds=LINEAGE_ROUNDS)
    bench.record("fig12", cell, baseline_s=baseline,
                 full_x=full_s / baseline, custom_x=custom_s / baseline,
                 same=full.rows("back_trace") == mine.rows("back_trace"))


def compact_cell(bench: Bench, cell: Dict[str, Any], store: Any) -> None:
    """Compact vs unfolded representation (DESIGN.md §3): node counts, and
    one vertex's value history read from its partition against a walk of
    evolution edges in the unfolded graph (mean of READS reads each)."""
    start = time.perf_counter()
    unfolded = unfold(store)
    unfold_s = time.perf_counter() - start
    vertex = next(iter(store.vertices("value")))

    def compact() -> List[int]:
        return sorted(i for _x, _d, i in store.partition("value", vertex))

    def walk() -> List[int]:
        successors = {src: dst for src, dst in unfolded.evolution_edges
                      if src[0] == vertex}
        node: Any = min((n for n in unfolded.nodes if n[0] == vertex),
                        key=lambda n: n[1])
        history = []
        while node is not None:
            history.append(node[1])
            node = successors.get(node)
        return history

    def read(history: Callable[[], List[int]]) -> Tuple[float, List[int]]:
        start = time.perf_counter()
        for _ in range(READS):
            supersteps = history()
        return (time.perf_counter() - start) / READS, supersteps

    (compact_s, compact_steps), (walk_s, walk_steps) = read(compact), read(walk)
    nodes = len(store.vertices())
    bench.record("ablation.compact", cell, compact_nodes=nodes,
                 unfolded_nodes=len(unfolded.nodes),
                 blowup=len(unfolded.nodes) / nodes, unfold_s=unfold_s,
                 access_slowdown=walk_s / max(compact_s, 1e-9),
                 same_history=compact_steps == walk_steps)


def seminaive_cell(bench: Bench, graph: Any, cell: Dict[str, Any],
                   store: Any) -> None:
    """Semi-naive vs naive fixpoint on the backward trace ([4])."""
    params = trace_target(store, MAX_TRACE_DEPTH)
    program = parse(Q.BACKWARD_LINEAGE_FULL_QUERY).bind(**params)
    facts = store_to_facts(store, graph)
    (semi_s, semi), (naive_s, naive) = timed(
        lambda: evaluate_seminaive(program, facts),
        lambda: evaluate_seminaive(program, facts, naive=True))
    bench.record("ablation.seminaive", cell, depth=params["sigma"],
                 trace=len(semi["back_trace"]), seminaive_s=semi_s,
                 naive_s=naive_s, slowdown=naive_s / semi_s,
                 same=semi["back_trace"] == naive["back_trace"])


def pruning_cell(bench: Bench, graph: Any, cell: Dict[str, Any]) -> None:
    """Window pruning (DESIGN.md §3) on the apt query over SSSP: the
    default run against one that keeps every transient row."""
    analytic = make_analytic("sssp")
    functions = FunctionRegistry(Q.apt_udfs(analytic))
    compiled = compile_query(parse(Q.APT_QUERY).bind(eps=0.1),
                             functions=functions)

    def run(prune_history: bool) -> Tuple[float, Dict[str, Any]]:
        """The seconds of ``engine.run`` alone, and what it left."""
        engine = PregelEngine(graph)
        wrapper = OnlineQueryProgram(
            analytic.make_program(), compiled, functions, engine,
            value_projector=analytic.provenance_value,
            prune_history=prune_history)
        wrapper.run_setup()
        gc.collect()
        start = time.perf_counter()
        engine.run(wrapper)
        seconds = time.perf_counter() - start
        result = QueryResult(derived=wrapper.db.derived, mode="online")
        return seconds, {
            "transient_rows": wrapper.transient_rows,
            "shipped_tuples": wrapper.shipped_tuples,
            "result": [result.count("safe"), result.count("unsafe")]}

    runs: Dict[bool, List[Tuple[float, Dict[str, Any]]]] = {True: [],
                                                             False: []}
    for _ in range(REPEATS):
        for prune, samples in runs.items():
            samples.append(run(prune))
    for prune, samples in runs.items():
        left = [values for _s, values in samples]
        bench.record("ablation.pruning", {**cell, "pruning": prune},
                     seconds=median(s for s, _v in samples),
                     deterministic=all(v == left[0] for v in left),
                     **left[0])


def serve_cell(bench: Bench, cell: Dict[str, Any], directory: str) -> None:
    """The query server's warm path (catalog-held store, plan-cache hit)
    against what a request would cost without it: open the sealed store,
    rebuild it, compile and evaluate."""
    catalog = RunCatalog()
    entry, _ = catalog.register_path(directory)
    body = {"query": SERVE_QUERY}
    path = f"/runs/{entry.run_id}/query"
    warm, cold = [], []
    with ServerThread(catalog=catalog, record_queries=False) as server:
        server.request("POST", path, body=body)
        for _ in range(WARM_COLD_SAMPLES):
            start = time.perf_counter()
            status, doc = server.request("POST", path, body=body)
            warm.append(time.perf_counter() - start)
            if status != 200 or doc.get("plan_cache") != "hit":
                raise RuntimeError(f"warm served query failed: {doc}")
    for _ in range(WARM_COLD_SAMPLES):
        start = time.perf_counter()
        spill = SpillManager.open(directory)
        try:
            run_layered(rebuild_store(spill), SERVE_QUERY)
        finally:
            spill.release_slabs()  # close() would delete the store
        cold.append(time.perf_counter() - start)
    bench.record("serve", cell, warm_ms=median(warm) * 1e3,
                 cold_ms=median(cold) * 1e3,
                 speedup=median(cold) / median(warm))


def als_cells(bench: Bench) -> None:
    """Fig. 9 (Queries 7 and 8 online on ML-20 with 5, 10 and 15 latent
    features) and Fig. 11's ALS row (the apt query online)."""
    for features in ALS_FEATURES:
        bipartite = bench.ratings(features)
        graph = bipartite.to_digraph()

        def make() -> ALS:
            return ALS(bipartite, num_features=features,
                       max_rounds=ALS_ROUNDS)

        runs = [
            lambda: PregelEngine(graph).run(make().make_program()),
            lambda: run_online(graph, make(), Q.ALS_ERROR_RANGE_QUERY),
            lambda: run_online(graph, make(), Q.ALS_ERROR_TREND_QUERY,
                               params={"eps": Q8_EPS})]
        if features == ALS_FEATURES[0]:  # Fig. 11's row
            runs.append(lambda: run_online(
                graph, make(), Q.APT_QUERY, params={"eps": 0.01},
                udfs=Q.apt_udfs(make())))
        (baseline, _), (q7, _), (q8, result), *apt = timed(*runs)
        cell = {"dataset": f"ML-20^{features}"}
        bench.record("fig9", cell, baseline_s=baseline, q7_x=q7 / baseline,
                     q8_x=q8 / baseline,
                     q8_fraction=len(result.query.vertices("problem"))
                     / graph.num_vertices)
        for online, _ in apt:
            bench.record("fig11", {"analytic": "als", **cell},
                         baseline_s=baseline, online_x=online / baseline)


def run_cells(bench: Bench) -> None:
    datasets_cells(bench)
    with tempfile.TemporaryDirectory(prefix="paper-") as workdir:
        for name in ANALYTICS:
            for dataset in bench.datasets:
                analytic_cells(bench, name, dataset, workdir)
    als_cells(bench)


# -- orderings ------------------------------------------------------------


def checks(records: List[Dict[str, Any]]) -> Iterator[Check]:
    """Every ordering, checked on every cell it covers."""
    cells: Dict[str, List[Tuple[Dict[str, Any], Dict[str, Any]]]] = {}
    for r in records:
        cells.setdefault(r["figure"], []).append((r["cell"], r["values"]))

    def label(cell: Dict[str, Any]) -> str:
        return "/".join(map(str, cell.values()))

    pagerank_x = {c["dataset"]: v["full_x"] for c, v in cells["table3"]
                  if c["analytic"] == "pagerank"}
    for c, v in cells["table3"]:
        if c["analytic"] == "pagerank":
            yield "table3.provenance_dwarfs_input", label(c), v["full_x"] > 2
        if c["analytic"] == "wcc":
            yield ("table3.wcc_below_pagerank", label(c),
                   v["full_x"] < pagerank_x[c["dataset"]])
    for c, v in cells["table4"]:
        yield ("table4.custom_near_input", label(c),
               v["custom_bytes"] < 3 * v["input_bytes"])
        if c["analytic"] == "pagerank":
            yield "table4.pagerank_coverage", label(c), v["coverage"] > 0.5
    for c, v in cells["fig7"]:
        yield "fig7.capture_costs", label(c), v["full_x"] > 1
        yield ("fig7.custom_stores_less", label(c),
               v["bytes_full_over_custom"] > 2)
        yield "fig7.custom_cheaper", label(c), v["custom_x"] < v["full_x"]
    for figure in ("fig8", "fig11"):
        # the ALS row of Fig. 11 runs online only
        rows = [(c, v) for c, v in cells[figure] if "layered_x" in v]
        for c, v in rows:
            yield (f"{figure}.online_beats_capture_layered", label(c),
                   v["online_x"] < v["capture_layered_x"])
        modes = [v for _c, v in rows]
        yield (f"{figure}.online_beats_layered", "sum",
               sum(v["online_x"] for v in modes)
               < sum(v["layered_x"] for v in modes))
        naive = [v for v in modes if "naive_x" in v]
        yield (f"{figure}.naive_slowest", "sum",
               sum(v["naive_x"] for v in naive)
               > sum(v["layered_x"] for v in naive))
    for c, v in cells["fig9"]:
        yield "fig9.als_lockstep", label(c), v["q7_x"] < 25 and v["q8_x"] < 40
        yield "fig9.q8_flags", label(c), v["q8_fraction"] > 0.05
    for c, v in cells["fig10"]:
        yield "fig10.fewer_messages", label(c), v["message_reduction"] > 1
        yield "fig10.not_slower", label(c), v["speedup"] > 0.9
    for c, v in cells["fig11.verdicts"]:
        accounted = v["safe"] + v["unsafe"] == v["no_execute"]
        if c["analytic"] == "wcc":
            holds = v["safe"] == 0
        else:
            holds = v["unsafe"] == 0 and v["safe"] > 0
        yield "fig11.verdicts", label(c), accounted and holds
    for c, v in cells["table5"]:
        yield ("table5.pagerank_error", label(c), v["error"] < 0.05
               and abs(v["median_a"] - v["median_b"]) < 0.1)
    for c, v in cells["table6"]:
        yield ("table6.sssp_error", label(c), v["error"] < 0.15
               and v["median_b"] >= v["median_a"] - 1e-9)
    totals: Dict[str, List[float]] = {}
    for c, v in cells["fig12"]:
        yield "fig12.same_lineage", label(c), v["same"]
        total = totals.setdefault(c["analytic"], [0.0, 0.0])
        total[0] += v["full_x"]
        total[1] += v["custom_x"]
    for analytic, (full_x, custom_x) in totals.items():
        yield "fig12.custom_cheaper", analytic, custom_x < full_x
        yield "fig12.custom_half_of_full", analytic, custom_x <= full_x / 2
    for c, v in cells["ablation.compact"]:
        yield ("ablation.compact_blowup", label(c),
               v["blowup"] > 2 and v["same_history"])
    for c, v in cells["ablation.seminaive"]:
        yield "ablation.seminaive", label(c), v["slowdown"] > 1 and v["same"]
    pruning = {c["pruning"]: v for c, v in cells["ablation.pruning"]}
    yield ("ablation.window_pruning", "sssp/UK-02",
           pruning[True]["deterministic"] and pruning[False]["deterministic"]
           and pruning[True]["transient_rows"] < pruning[False]["transient_rows"]
           and pruning[True]["result"] == pruning[False]["result"]
           and pruning[True]["seconds"] < pruning[False]["seconds"])
    for c, v in cells["serve"]:
        yield ("serve.warm_beats_cold", label(c),
               v["speedup"] >= WARM_SPEEDUP_FLOOR)


def verdicts(found: List[Check], waivers: Dict[str, str],
             stamp: Dict[str, Any]) -> Tuple[List[Dict[str, Any]], bool]:
    """One record per ordering, and whether the run passes. An ordering
    holds when every cell it covers holds. A failing waived ordering is a
    deviation; a holding waived one, an unwaived failure and an ordering
    no cell covered all fail the run."""
    failed: Dict[str, List[str]] = {o: [] for o in ORDERINGS}
    covered: Dict[str, int] = {o: 0 for o in ORDERINGS}
    for ordering, cell, holds in found:
        covered[ordering] += 1
        if not holds:
            failed[ordering].append(cell)
    records, passed = [], True
    for ordering, claim in ORDERINGS.items():
        waiver = waivers.get(ordering)
        if not covered[ordering]:
            status = "unchecked"
        elif failed[ordering]:
            status = "deviation" if waiver else "fails"
        else:
            status = "stale waiver" if waiver else "holds"
        passed = passed and status in ("holds", "deviation")
        records.append({
            "record": "ordering", "ordering": ordering, "claim": claim,
            "status": status, "waiver": waiver, "cells": covered[ordering],
            "failed_cells": failed[ordering], "stamp": stamp})
    return records, passed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="the two smallest web graphs, a quarter-size "
                             "ML-20")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    bench = Bench(args.smoke)
    run_cells(bench)
    orderings, passed = verdicts(list(checks(bench.records)), WAIVERS,
                                 bench.stamp)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "paper.smoke.jsonl" if args.smoke
                        else "paper.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for entry in bench.records + orderings:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    for entry in orderings:
        failed = ", ".join(entry["failed_cells"])
        waiver = f" [{entry['waiver']}]" if entry["waiver"] else ""
        print(f"{entry['status']:<12} {entry['ordering']}{waiver}"
              + (f": {failed}" if failed else ""))
    print(f"wrote {path} in {time.perf_counter() - started:.0f} s: "
          + ("every ordering holds or is a named deviation" if passed
             else "FAILED"))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
