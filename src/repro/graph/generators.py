"""Synthetic graph generators.

The paper evaluates on four web crawls (indochina-2004, uk-2002, arabic-2005,
uk-2005) which are multi-gigabyte and unavailable offline, plus MovieLens-20M.
We substitute generators that preserve the properties Ariadne's evaluation is
sensitive to:

* **degree skew** — web graphs have power-law in/out degrees, which drives
  message volume imbalance and the size of captured provenance;
* **diameter** — web graphs have average diameter ~20-28, which drives the
  superstep count of SSSP/WCC and hence the number of provenance layers;
* **relative scale** between datasets.

:func:`web_graph` builds a chain of power-law "communities": preferential
attachment inside each community reproduces skew, and the chain reproduces a
controllable diameter (plain Barabási-Albert graphs have diameter ~5 and
would terminate SSSP in a handful of supersteps, collapsing the layered/online
distinction the paper measures).

:func:`movielens_like` builds a bipartite ratings graph with power-law item
popularity and ratings in 0-5 drawn from per-user/item latent factors so that
ALS has real structure to fit.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

from repro.errors import GraphError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.digraph import DiGraph


def _preferential_targets(
    rng: random.Random, repeated: List[int], count: int
) -> List[int]:
    """Sample ``count`` distinct targets ~ degree-proportionally."""
    chosen: set = set()
    # Bounded rejection sampling; fall back to whatever we have if the
    # community is too small to supply `count` distinct targets.
    attempts = 0
    limit = 50 * max(count, 1)
    while len(chosen) < count and attempts < limit:
        chosen.add(rng.choice(repeated))
        attempts += 1
    return list(chosen)


def scale_free_community(
    rng: random.Random, vertex_ids: List[int], avg_out_degree: float
) -> List[Tuple[int, int]]:
    """Directed preferential-attachment edges among ``vertex_ids``.

    Each arriving vertex links to ``~avg_out_degree`` existing vertices chosen
    degree-proportionally, then the edge directions are randomized so both in-
    and out-degree distributions are skewed (web graphs have both).
    """
    n = len(vertex_ids)
    if n < 2:
        return []
    m = max(1, int(round(avg_out_degree)))
    edges: List[Tuple[int, int]] = []
    # `repeated` holds one entry per edge endpoint => degree-proportional draw.
    repeated: List[int] = [vertex_ids[0]]
    for idx in range(1, n):
        v = vertex_ids[idx]
        k = min(m, idx)
        targets = _preferential_targets(rng, repeated, k)
        for t in targets:
            if rng.random() < 0.5:
                edges.append((v, t))
            else:
                edges.append((t, v))
            repeated.append(t)
            repeated.append(v)
    return edges


def web_graph(
    num_vertices: int,
    avg_degree: float = 16.0,
    target_diameter: int = 20,
    seed: int = 0,
) -> DiGraph:
    """Web-crawl-like directed graph: chained power-law communities.

    Parameters mirror Table 2's dataset characteristics. ``avg_degree`` is the
    average *out*-degree (|E| / |V|); ``target_diameter`` controls the length
    of the community chain and therefore the typical number of supersteps
    SSSP/WCC run for.
    """
    if num_vertices < 4:
        raise GraphError("web_graph needs at least 4 vertices")
    rng = random.Random(seed)
    # One community per diameter unit: shortest paths between distant
    # communities must traverse the chain, so the undirected diameter tracks
    # the community count even when each community is dense.
    num_communities = max(1, target_diameter)
    if num_vertices < 2 * num_communities:
        num_communities = max(1, num_vertices // 2)
    base = num_vertices // num_communities

    g = DiGraph()
    for v in range(num_vertices):
        g.add_vertex(v)

    communities: List[List[int]] = []
    start = 0
    for c in range(num_communities):
        end = num_vertices if c == num_communities - 1 else start + base
        communities.append(list(range(start, end)))
        start = end

    # Dense skewed structure inside each community. Reserve a small fraction
    # of the degree budget for the inter-community chain links.
    intra_degree = max(1.0, avg_degree - 2.0)
    for members in communities:
        for u, v in scale_free_community(rng, members, intra_degree):
            if u != v:
                g.add_edge(u, v)

    # Chain links: a handful of forward and backward edges between adjacent
    # communities keeps the graph weakly connected with a long diameter.
    links_per_pair = max(2, int(base * 0.02))
    for c in range(num_communities - 1):
        left, right = communities[c], communities[c + 1]
        for _ in range(links_per_pair):
            g.add_edge(rng.choice(left), rng.choice(right))
            g.add_edge(rng.choice(right), rng.choice(left))

    # Top up to the requested average degree with random edges restricted to
    # the same or an adjacent community. Web links are overwhelmingly
    # host-local; keeping the top-up local is what preserves the target
    # diameter at small synthetic scales (any fully-random fraction would
    # shortcut the chain).
    want_edges = int(num_vertices * avg_degree)
    attempts = 0
    while g.num_edges < want_edges and attempts < 20 * want_edges:
        u = rng.randrange(num_vertices)
        c = min(u // base, num_communities - 1)
        c2 = min(max(c + rng.choice([-1, 0, 0, 1]), 0), num_communities - 1)
        v = rng.choice(communities[c2])
        if u != v:
            g.add_edge(u, v)
        attempts += 1

    # Permute vertex ids: crawl ids are uncorrelated with graph distance,
    # whereas the construction above assigns consecutive ids along the
    # community chain. Without the shuffle, min-label algorithms (WCC)
    # would see labels improve O(diameter) times per vertex instead of the
    # realistic O(log n), inflating their message and provenance volume.
    permutation = list(range(num_vertices))
    rng.shuffle(permutation)
    shuffled = DiGraph()
    for v in range(num_vertices):
        shuffled.add_vertex(v)
    for u, v, value in g.edges():
        shuffled.add_edge(permutation[u], permutation[v], value)
    return shuffled


def chain_graph(num_vertices: int, bidirectional: bool = False) -> DiGraph:
    """Simple path 0 -> 1 -> ... -> n-1; handy for deterministic tests."""
    g = DiGraph()
    for v in range(num_vertices):
        g.add_vertex(v)
    for v in range(num_vertices - 1):
        g.add_edge(v, v + 1)
        if bidirectional:
            g.add_edge(v + 1, v)
    return g


def with_random_weights(
    g: DiGraph, low: float = 0.0, high: float = 1.0, seed: int = 0
) -> DiGraph:
    """Copy of ``g`` with uniform random edge weights in ``[low, high)``.

    The paper assigns random positive weights in 0-1 to the web graphs
    for SSSP.
    """
    rng = random.Random(seed)
    return g.map_edge_values(lambda u, v, _old: rng.uniform(low, high))


def movielens_like(
    num_users: int,
    num_items: int,
    num_ratings: int,
    num_features: int = 5,
    seed: int = 0,
    noise: float = 0.3,
) -> BipartiteGraph:
    """Synthetic MovieLens-style ratings with latent-factor structure.

    Ratings are generated from random user/item factor vectors plus noise and
    clipped to the 0-5 star range, so an ALS run actually reduces error. Item
    popularity follows a Zipf-like distribution (a few blockbusters, a long
    tail), matching the message-volume skew ALS sees on MovieLens.
    """
    rng = random.Random(seed)
    bg = BipartiteGraph(num_users, num_items)

    scale = 1.0 / math.sqrt(num_features)
    user_factors = [
        [rng.gauss(0.8, 0.4) * scale for _ in range(num_features)]
        for _ in range(num_users)
    ]
    item_factors = [
        [rng.gauss(0.8, 0.4) * scale for _ in range(num_features)]
        for _ in range(num_items)
    ]

    # Zipf-ish popularity weights for items.
    weights = [1.0 / (rank + 1) ** 0.8 for rank in range(num_items)]
    total = sum(weights)
    cumulative: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)

    def sample_item() -> int:
        x = rng.random()
        lo, hi = 0, num_items - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        return lo

    seen: set = set()
    added = 0
    attempts = 0
    while added < num_ratings and attempts < 30 * num_ratings:
        user = rng.randrange(num_users)
        item = sample_item()
        attempts += 1
        if (user, item) in seen:
            continue
        seen.add((user, item))
        raw = (
            2.5
            + 2.0 * sum(a * b for a, b in zip(user_factors[user], item_factors[item]))
            + rng.gauss(0.0, noise)
        )
        bg.add_rating(user, item, min(5.0, max(0.0, raw)))
        added += 1
    return bg

