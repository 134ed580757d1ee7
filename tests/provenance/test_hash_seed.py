"""Sealed slab bytes do not depend on ``PYTHONHASHSEED``.

A slab's row and vertex order is the store's insertion order, never the
iteration order of a set, so the same capture seals to the same bytes in
every interpreter. Each seed runs in its own subprocess (the salt is fixed
at interpreter start): a store of ``str``-bearing rows, whose set order
would follow the salt, and a small Query 2 capture are sealed there, and
every slab's sha256 must agree across seeds.
"""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SEAL_SCRIPT = r"""
import hashlib, json, os, sys, tempfile

from repro.analytics.pagerank import PageRank
from repro.core import queries as Q
from repro.graph.generators import web_graph
from repro.provenance.model import RelationSchema
from repro.provenance.spill import SpillManager
from repro.provenance.store import ProvenanceStore
from repro.runtime.online import run_online


def sealed_digests(store):
    with tempfile.TemporaryDirectory() as directory:
        SpillManager(store, directory=directory).seal_all()
        return {
            name: hashlib.sha256(
                open(os.path.join(directory, name), "rb").read()).hexdigest()
            for name in sorted(os.listdir(directory))
        }


strings = ProvenanceStore()
strings.registry.register(RelationSchema("label", 2))
for v in range(8):
    strings.add("label", (v, f"vertex-{v}"))
    for s in range(3):
        strings.add_batch("value", [(v, f"tag-{v}-{s}-{k}", s) for k in range(6)])
        strings.add_batch("send_message", [
            (v, (v + k) % 8, f"msg-{k}", s) for k in range(1, 5)])
capture = run_online(web_graph(40, avg_degree=4, target_diameter=5, seed=3),
                     PageRank(num_supersteps=4), Q.CAPTURE_FULL_QUERY,
                     capture=True).store
json.dump({"strings": sealed_digests(strings),
           "query2": sealed_digests(capture)}, sys.stdout)
"""


def _seal_under(seed):
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(
                   [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", SEAL_SCRIPT], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_slab_bytes_independent_of_hash_seed():
    digests = {seed: _seal_under(seed) for seed in ("0", "1", "random")}
    assert digests["0"]["strings"] and digests["0"]["query2"]
    assert digests["0"] == digests["1"] == digests["random"]
