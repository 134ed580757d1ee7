"""Sealed slab content is pinned, slab by slab.

``golden_slab_content.json`` maps each slab of five small captures —
PageRank and SSSP under full capture (Query 2), PageRank under Query 11,
WCC under the undirected Query 11 and PageRank under Query 3 — to a
sha256 of its *decoded* content in slab order: relation order, each
relation's lanes, its group keys with their row ranges in order, and every
column's values in row order. It pins what a capture writes, not the zlib
bytes, so the zlib build does not matter; a change to the capture path that
moves one row, one vertex or one lane fails here. The last two shapes
build a layer in more than one append: WCC's static ``prov_edges`` comes
from two rules, so most vertices get rows in two appends (and the store
permutes the layer vertex-major before the seal), and Query 3's
``fwd_lineage`` from two rules and a fixpoint's rounds. The first three
were produced by this file's ``compute_content`` against the ``src/`` of
the commit before copy programs, the last two against the ``src/`` of the
commit before the column store::

    PYTHONPATH=<that commit>/src python \\
        tests/provenance/test_golden_slab_content.py \\
        > tests/provenance/golden_slab_content.json
"""

import hashlib
import json
import os
import sys
import tempfile

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.analytics.wcc import WCC
from repro.core import queries as Q
from repro.graph.generators import web_graph, with_random_weights
from repro.provenance.columnar import ColumnarSlab
from repro.runtime.online import run_online

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_slab_content.json")


def _captures():
    web = web_graph(60, avg_degree=4, target_diameter=5, seed=12)
    return {
        "pagerank/query2": (web, PageRank(num_supersteps=6),
                            Q.CAPTURE_FULL_QUERY, None),
        "sssp/query2": (with_random_weights(web, seed=12), SSSP(source=0),
                        Q.CAPTURE_FULL_QUERY, None),
        "pagerank/query11": (web, PageRank(num_supersteps=6),
                             Q.CAPTURE_BACKWARD_CUSTOM_QUERY, None),
        "wcc/query11-undirected": (
            web, WCC(), Q.CAPTURE_BACKWARD_CUSTOM_UNDIRECTED_QUERY, None),
        "pagerank/query3": (web, PageRank(num_supersteps=6),
                            Q.CAPTURE_FWD_LINEAGE_QUERY, {"source": 0}),
    }


def slab_content(path):
    """sha256 of one slab's decoded content, in slab order."""
    digest = hashlib.sha256()
    with ColumnarSlab(path) as slab:
        for relation in slab.relations():
            content = (
                relation, slab.lanes(relation),
                list(slab.groups(relation).items()),
                [slab.column(relation, pos)
                 for pos in range(slab.arity(relation))],
            )
            digest.update(repr(content).encode("utf-8"))
    return digest.hexdigest()


def compute_content():
    content = {}
    for name, (graph, analytic, query, params) in _captures().items():
        with tempfile.TemporaryDirectory() as directory:
            result = run_online(graph, analytic, query, params=params,
                                capture=True, spill_directory=directory)
            result.spill.seal_all()
            for slab in sorted(os.listdir(directory)):
                if slab.endswith(".slab"):
                    content[f"{name}/{slab}"] = slab_content(
                        os.path.join(directory, slab))
    return content


def test_slab_content_matches_pins():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    content = compute_content()
    assert sorted(content) == sorted(golden)
    moved = sorted(k for k, v in content.items() if golden[k] != v)
    assert not moved, f"sealed slab content moved: {moved}"


if __name__ == "__main__":
    json.dump(compute_content(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
