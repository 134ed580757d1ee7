"""Fixtures for the serve subsystem: sealed captures and a live server."""

from __future__ import annotations

import pytest

from repro import Ariadne, PageRank, SSSP
from repro.graph.generators import web_graph, with_random_weights
from repro.provenance.spill import SpillManager
from repro.serve.catalog import RunCatalog
from repro.serve.testing import ServerThread


def seal_capture(graph, analytic, directory: str) -> str:
    """Run one traced capture and seal it into ``directory``.

    The spill is deliberately not closed — ``close()`` deletes the slabs,
    and the server is about to reopen them from disk.
    """
    capture = Ariadne(graph, analytic).capture()
    SpillManager(capture.store, directory=directory).seal_all()
    return directory


@pytest.fixture(scope="session")
def serve_graph():
    return with_random_weights(
        web_graph(60, avg_degree=4, target_diameter=8, seed=17), seed=17
    )


@pytest.fixture(scope="session")
def sssp_store(serve_graph, tmp_path_factory) -> str:
    """A sealed SSSP capture (the 'store-a' of the serve tests)."""
    directory = str(tmp_path_factory.mktemp("serve") / "sssp")
    return seal_capture(serve_graph, SSSP(source=0), directory)


@pytest.fixture(scope="session")
def pagerank_store(serve_graph, tmp_path_factory) -> str:
    """A sealed PageRank capture (the 'store-b' of the serve tests)."""
    directory = str(tmp_path_factory.mktemp("serve") / "pagerank")
    return seal_capture(
        serve_graph, PageRank(num_supersteps=6), directory)


@pytest.fixture
def catalog() -> RunCatalog:
    return RunCatalog()


@pytest.fixture
def server(catalog, sssp_store, pagerank_store):
    """A live server with both stores registered; yields the harness."""
    catalog.register_path(sssp_store)
    catalog.register_path(pagerank_store)
    with ServerThread(catalog=catalog, record_queries=False) as srv:
        yield srv


def run_id_for(catalog: RunCatalog, directory: str) -> str:
    import os
    entry = catalog._by_path[os.path.abspath(directory)]  # noqa: SLF001
    return entry.run_id
