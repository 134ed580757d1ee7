"""Seeded input generator for the end-to-end benchmark.

Everything a workload feeds the program — graphs, lineage parameters, the
``serve-mixed`` request schedule — is derived here from ``--seed`` and
nothing else.  The program under test receives the generated inputs,
never the seed.

Input sizes are fixed below (``SIZES`` / ``SMOKE_SIZES``); ``REPRO_SCALE``
is ignored.  Two rules keep a run's *amount of work* independent of the
seed, so that ten runs on ten seeds measure the machine and the code, not
the draw:

* PageRank graphs are generated afresh from the seed.  ``web_graph`` tops
  every graph up to exactly ``V * avg_degree`` edges and PageRank runs a
  fixed 20 supersteps with every vertex broadcasting, so executions,
  messages and captured rows are the same on every seed.
* SSSP work depends on the topology (supersteps and messages move 2.5x
  between random draws of the same size), so the SSSP topology and edge
  weights come from the dataset's own fixed generator seed and ``--seed``
  draws the vertex *labelling*: a random permutation of the ids, with the
  source following it.  Supersteps, executions and messages are
  isomorphism-invariant; ids, hash partitions, dictionary codes and row
  order still change with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.graph.datasets import WEB_DATASETS
from repro.graph.digraph import DiGraph
from repro.graph.generators import web_graph, with_random_weights

DEFAULT_SEED = 20190630  # SIGMOD'19 opening day; any integer works

PAGERANK_SUPERSTEPS = 20

#: Vertex counts per (analytic, dataset) input.  The datasets keep the
#: paper's average degree and diameter (Table 2); the vertex counts are
#: what fits ≥5 timed reps of every cell into one ``--seconds`` window on
#: two cores.
SIZES: Dict[str, int] = {
    "pagerank/UK-02": 160,     # 2,561 edges, ~107k full-capture rows
    "sssp/UK-05": 400,         # 9,492 edges
    "serve-pagerank/UK-02": 64,
    "serve-sssp/IN-04": 140,
}
SMOKE_SIZES: Dict[str, int] = {
    "pagerank/UK-02": 48,
    "sssp/UK-05": 64,
    "serve-pagerank/UK-02": 32,
    "serve-sssp/IN-04": 48,
}

POINT_QUERY = "updated(X, I) :- superstep(X, I)."

#: One block of the serve-mixed schedule: 50% point scans, 30% paged
#: Query 10, 15% full Query 10, 5% lineage endpoint.  Every block of 20
#: holds exactly this mix (shuffled), so a schedule cut at any multiple of
#: 20 has the stated proportions whatever the seed.
SERVE_BLOCK: Tuple[Tuple[str, int], ...] = (
    ("point", 10), ("paged", 6), ("full", 3), ("lineage", 1),
)
SERVE_PAGE_LIMIT = 50
#: Share of lineage-parameterised requests that take a never-repeated
#: vertex (plan-cache miss); the rest draw Zipf-ranked from the hot pool.
SERVE_COLD_SHARE = 0.2
SERVE_HOT_POOL = 8
ZIPF_EXPONENT = 1.1


def _spec(dataset: str) -> Tuple[float, int]:
    spec = WEB_DATASETS[dataset]
    return spec.paper_avg_degree, int(round(spec.paper_avg_diameter))


def _sub_seed(seed: int, label: str) -> int:
    """Independent stream per input so adding one never shifts another."""
    return random.Random(f"{seed}/{label}").getrandbits(32)


def pagerank_graph(key: str, seed: int, sizes: Dict[str, int]) -> DiGraph:
    """Fresh web graph for a PageRank input (work is seed-invariant)."""
    dataset = key.split("/")[1]
    degree, diameter = _spec(dataset)
    return web_graph(sizes[key], degree, diameter,
                     seed=_sub_seed(seed, key))


def sssp_graph(key: str, seed: int,
               sizes: Dict[str, int]) -> Tuple[DiGraph, int]:
    """Weighted graph and source for an SSSP input.

    Topology and weights are those of the dataset's own generator seed;
    the seed relabels vertices (see module docstring).  Returns the
    relabelled graph and the label of topological vertex 0, the source.
    """
    dataset = key.split("/")[1]
    degree, diameter = _spec(dataset)
    fixed = WEB_DATASETS[dataset].seed
    base = with_random_weights(
        web_graph(sizes[key], degree, diameter, seed=fixed),
        0.0, 1.0, seed=fixed,
    )
    labels = list(range(base.num_vertices))
    random.Random(_sub_seed(seed, key)).shuffle(labels)
    graph = DiGraph()
    for vertex in range(base.num_vertices):
        graph.add_vertex(vertex)
    for u, v, weight in base.edges():
        graph.add_edge(labels[u], labels[v], weight)
    return graph, labels[0]


def lineage_targets(superstep_rows: Iterable[Tuple[Any, int]], seed: int,
                    label: str, need: int) -> Dict[str, Any]:
    """Lineage parameters drawn from a store's ``superstep`` relation.

    ``sigma`` is the latest superstep at which at least ``need`` distinct
    vertices executed — the deepest trace with enough roots to choose
    from, and the same depth on every seed (PageRank: the last superstep;
    SSSP: wherever the frontier is still ``need`` wide).  ``backward`` are
    the vertices that executed at ``sigma`` (Query 10 roots), ``forward``
    those that executed at superstep 0 (Query 9 roots), each in seeded
    random order; callers take as many as they need from the front.
    """
    by_step: Dict[int, set] = {}
    for vertex, superstep in superstep_rows:
        by_step.setdefault(superstep, set()).add(vertex)
    wide = [step for step, members in by_step.items() if len(members) >= need]
    sigma = max(wide) if wide else max(by_step, key=lambda s: len(by_step[s]))
    rng = random.Random(_sub_seed(seed, f"lineage/{label}"))
    backward = sorted(by_step[sigma])
    forward = sorted(by_step[0])
    rng.shuffle(backward)
    rng.shuffle(forward)
    return {"sigma": sigma, "backward": backward, "forward": forward}


@dataclass(frozen=True)
class ServeRequest:
    """One scheduled request: its class, target store and parameters."""

    index: int
    kind: str            # point | paged | full | lineage
    store: str           # key into the served stores
    alpha: Any = None    # lineage root (None for point scans)
    sigma: Any = None


def _zipf_pick(rng: random.Random, pool: Sequence[Any]) -> Any:
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(pool))]
    return rng.choices(pool, weights=weights, k=1)[0]


def serve_schedule(seed: int, targets: Dict[str, Dict[str, Any]],
                   paged_stores: Sequence[str]) -> Iterator[ServeRequest]:
    """Endless seeded request stream over the served stores.

    ``targets`` maps store name to its :func:`lineage_targets`.  Requests
    of one class alternate between the stores (their costs differ, so the
    split is held exact rather than drawn) — paged requests between
    ``paged_stores`` only, see README "Findings".  Lineage roots come Zipf-skewed from a small hot pool —
    repeated parameter sets, so plan-cache hits — except a
    ``SERVE_COLD_SHARE`` tail of roots used once each (while any remain).
    """
    rng = random.Random(_sub_seed(seed, "serve-schedule"))
    stores = sorted(targets)
    hot: Dict[str, List[Any]] = {}
    cold: Dict[str, List[Any]] = {}
    for name in stores:
        candidates = list(targets[name]["backward"])
        hot[name] = candidates[:SERVE_HOT_POOL]
        cold[name] = candidates[SERVE_HOT_POOL:]
    turn = {kind: rng.randrange(len(stores)) for kind, _n in SERVE_BLOCK}
    index = 0
    while True:
        block = [kind for kind, n in SERVE_BLOCK for _ in range(n)]
        rng.shuffle(block)
        for kind in block:
            among = sorted(paged_stores) if kind == "paged" else stores
            store = among[turn[kind] % len(among)]
            turn[kind] += 1
            alpha = sigma = None
            if kind != "point":
                sigma = targets[store]["sigma"]
                if cold[store] and rng.random() < SERVE_COLD_SHARE:
                    alpha = cold[store].pop()
                else:
                    alpha = _zipf_pick(rng, hot[store])
            yield ServeRequest(index, kind, store, alpha, sigma)
            index += 1
