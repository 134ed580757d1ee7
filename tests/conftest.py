"""Shared fixtures for the test suite."""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import zlib

import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import chain_graph, web_graph, with_random_weights
from repro.provenance.columnar import ColumnarSlab
from repro.provenance.spill import SpillManager


def slab_chunks(slab):
    """An ARSC slab decoded back to row chunks through the reader's
    column API (``groups`` and ``column_slice``): ``relation -> vertex ->
    rows``, each vertex's rows a list in slab order, plus the footer's
    meta under ``"\\x00meta"`` when it has one."""
    chunks = {}
    for relation in slab.relations():
        count = slab.row_count(relation)
        columns = [list(slab.column_slice(relation, pos, 0, count))
                   for pos in range(slab.arity(relation))]
        chunks[relation] = {
            vertex: list(zip(*[col[start:start + n] for col in columns]))
            for vertex, (start, n) in slab.groups(relation).items()
        }
    if slab.meta is not None:
        chunks["\x00meta"] = slab.meta
    return chunks


def group_rows(slab, relation, vertex):
    """One vertex's rows of a slab relation, as a set."""
    return frozenset(slab_chunks(slab).get(relation, {}).get(vertex, ()))


@pytest.fixture
def diamond() -> DiGraph:
    """0 -> {1, 2} -> 3 with unit weights (two equal-length paths)."""
    g = DiGraph()
    g.add_edge(0, 1, 1.0)
    g.add_edge(0, 2, 1.0)
    g.add_edge(1, 3, 1.0)
    g.add_edge(2, 3, 1.0)
    return g


@pytest.fixture
def weighted_chain() -> DiGraph:
    """0 -> 1 -> 2 -> 3 -> 4 with unit weights."""
    g = chain_graph(5)
    for i in range(4):
        g.set_edge_value(i, i + 1, 1.0)
    return g


@pytest.fixture
def small_web() -> DiGraph:
    """A small web-like graph for integration tests (deterministic)."""
    return web_graph(300, avg_degree=6, target_diameter=10, seed=11)


@pytest.fixture
def small_weighted_web(small_web: DiGraph) -> DiGraph:
    return with_random_weights(small_web, seed=11)


@pytest.fixture(scope="session")
def retire_store():
    """``retire(directory, fmt, names=None)``: rewrite a sealed ARSC
    store's slabs (all, or the basenames in ``names``) in a retired format
    the library no longer writes — ``"pickle"`` (ARSL frames) or
    ``"legacy"`` (one bare pickle per slab) — and re-stamp the manifest."""
    def retire(directory, fmt, names=None):
        spill = SpillManager.open(directory)
        paths = [spill._static_path, *map(spill.slab_path,
                                          spill.sealed_layers())]
        for path in paths:
            if names is not None and os.path.basename(path) not in names:
                continue
            with ColumnarSlab(path) as slab:
                chunks = slab_chunks(slab)
            if fmt == "legacy":
                blob = pickle.dumps(chunks)
            else:
                blob = b"ARSL\x01\x01" + struct.pack("<I", len(chunks))
                for key, value in chunks.items():
                    body = zlib.compress(pickle.dumps(value))
                    blob += struct.pack("<I", len(key.encode())) + key.encode()
                    blob += struct.pack("<I", len(body)) + body
            with open(path, "wb") as fh:
                fh.write(blob)
            spill.slab_digests[os.path.basename(path)] = {
                "sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}
        spill.write_manifest()

    return retire
