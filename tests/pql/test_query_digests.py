"""Queries 1-12 in every binding mode, pinned against digests recorded at
the commit before plans were compiled to Python (PR 12's parent).

Each key of ``golden_query_digests.json`` names a query, the driver that
ran it (online = anchored per superstep, layered = anchored per layer,
naive = located, reference = the semi-naive interpreter), the retired hash-index switch (always
``index=False``: PR 21 deleted the index and its ``index=True`` twins,
which pinned the same digests) and a worker suffix; the value is the sha256
of the sorted result rows. The digests were produced by running this
file's ``compute_digests`` against the parent commit's ``src/``::

    PYTHONPATH=<parent>/src python tests/pql/test_query_digests.py > \\
        tests/pql/golden_query_digests.json

so any drift in what the evaluator derives — in any mode, at any simulated
worker count — fails here.

The suffix of an online key names the worker count: ``/serial`` is one
simulated worker and ``/parallel`` is seven. The ``/parallel`` keys were
recorded on two worker processes of a multiprocess backend that has since
been deleted; they equal their ``/serial`` twins, and the file is not
regenerated, so they now pin that the serial engine derives the same rows
when its vertices are split across seven simulated workers. Offline keys
are always ``/serial``.

The ``reference`` pins were recorded by a free-mode row evaluator that has
since been deleted; :func:`~repro.runtime.offline.run_reference` is now
the standalone semi-naive interpreter (:mod:`repro.pql.seminaive`), which
shares no code with the layer programs, and it derives the same rows.

``test_sealed_store_digests_match_parent_commit`` holds the sealed-store
evaluators to the same pins: every offline capture is sealed to ARSC and
re-queried layered and naive, and each digest must equal the pin of the
same query and mode. The ``layered`` / ``naive`` pins of
``compute_digests`` are layer programs over the in-memory store.
"""

import json
import os
import sys

from repro.analytics.als import ALS
from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.core import queries as Q
from repro.core.ariadne import Ariadne
from repro.engine.config import EngineConfig
from repro.graph.generators import movielens_like, web_graph, with_random_weights
from repro.obs.ledger import digest_query_result
from repro.provenance.spill import SpillManager
from repro.runtime.offline import (
    run_layered,
    run_layered_from_spill,
    run_naive,
    run_naive_from_spill,
    run_reference,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_query_digests.json")

LINEAGE = {"alpha": 3, "sigma": 4}


def _workloads():
    web = web_graph(60, avg_degree=4, target_diameter=5, seed=12)
    ratings = movielens_like(20, 10, 120, num_features=3, seed=12)
    return {
        "pagerank": (web, lambda: PageRank(num_supersteps=6)),
        "sssp": (with_random_weights(web, seed=12), lambda: SSSP(source=0)),
        "als": (ratings.to_digraph(),
                lambda: ALS(ratings, num_features=3, max_rounds=3)),
    }


#: query -> (workload, params, runs online, runs offline over full capture)
QUERIES = {
    "query1": ("pagerank", {"eps": 0.01}, True, True),
    "query2": ("pagerank", None, True, False),
    "query3": ("pagerank", {"source": 3}, True, True),
    "query4": ("pagerank", None, True, True),
    "query5": ("sssp", None, True, True),
    "query6": ("sssp", None, True, True),
    "query7": ("als", None, True, True),
    "query8": ("als", {"eps": 0.05}, True, True),
    "query9": ("pagerank", LINEAGE, False, True),
    "query10": ("pagerank", LINEAGE, False, True),
    "query11": ("pagerank", None, True, False),
}


def compute_digests():
    digests = {}
    workloads = _workloads()
    stores = {}
    for name, (graph, make) in workloads.items():
        stores[name] = Ariadne(graph, make()).capture().store
    for query, (workload, params, online, offline) in QUERIES.items():
        graph, make = workloads[workload]
        text = Q.NAMED_QUERIES[query]
        if online:
            for suffix, workers in (("serial", 1), ("parallel", 7)):
                config = EngineConfig(num_workers=workers)
                result = Ariadne(graph, make(), config).query_online(
                    text, params=params
                )
                key = f"{query}/online/index=False/{suffix}"
                digests[key] = digest_query_result(result.query)
        if offline:
            udfs = Q.apt_udfs(make())
            for driver in (run_layered, run_naive, run_reference):
                result = driver(stores[workload], text, graph, params, udfs)
                key = f"{query}/{result.mode}/index=False/serial"
                digests[key] = digest_query_result(result)
    # Query 12 reads the custom store Query 11 captures.
    graph, make = workloads["pagerank"]
    custom = Ariadne(graph, make()).capture(
        Q.CAPTURE_BACKWARD_CUSTOM_QUERY).store
    for driver in (run_layered, run_naive, run_reference):
        result = driver(custom, Q.BACKWARD_LINEAGE_CUSTOM_QUERY, graph, LINEAGE)
        key = f"query12/{result.mode}/index=False/serial"
        digests[key] = digest_query_result(result)
    return digests


def test_digests_match_parent_commit():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    digests = compute_digests()
    assert sorted(digests) == sorted(golden)
    drifted = {k: v for k, v in digests.items() if golden[k] != v}
    assert not drifted, f"result digests drifted from the seed: {drifted}"
    # every result is non-trivial somewhere: a digest of nothing pins nothing
    assert len(set(golden.values())) > len(QUERIES)


def test_sealed_store_digests_match_parent_commit(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    workloads = _workloads()
    sealed = {}
    for name, (graph, make) in workloads.items():
        directory = str(tmp_path / name)
        Ariadne(graph, make()).capture(spill_directory=directory).spill.seal_all()
        sealed[name] = SpillManager.open(directory)
    graph, make = workloads["pagerank"]
    directory = str(tmp_path / "custom")
    Ariadne(graph, make()).capture(
        Q.CAPTURE_BACKWARD_CUSTOM_QUERY,
        spill_directory=directory).spill.seal_all()
    sealed["custom"] = SpillManager.open(directory)
    cases = [
        (query, workload, params)
        for query, (workload, params, _online, offline) in QUERIES.items()
        if offline
    ] + [("query12", "custom", LINEAGE)]
    programs_ran = 0
    drifted = {}
    for query, workload, params in cases:
        graph, make = workloads["pagerank" if workload == "custom" else workload]
        text = Q.NAMED_QUERIES[query]
        udfs = Q.apt_udfs(make())
        for driver in (run_layered_from_spill, run_naive_from_spill):
            result = driver(sealed[workload], text, graph, params, udfs)
            programs_ran += result.stats["rules_vectorized"]
            pin = golden[f"{query}/{result.mode}/index=False/serial"]
            if digest_query_result(result) != pin:
                drifted[(query, result.mode)] = pin
    assert not drifted, f"sealed-store digests drifted from the seed: {drifted}"
    assert programs_ran > 0


if __name__ == "__main__":
    json.dump(compute_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
