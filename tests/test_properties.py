"""Property-based tests (hypothesis) for core invariants."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analytics.error import lp_norm, normalized_error
from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.analytics.wcc import WCC
from repro.core import queries as Q
from repro.engine.engine import run_program
from repro.graph.digraph import DiGraph
from repro.graph.stats import (
    single_source_shortest_paths,
    weakly_connected_components,
)
from repro.provenance.graphview import unfold
from repro.provenance.model import freeze
from repro.runtime.offline import run_layered, run_naive, run_reference
from repro.runtime.online import run_online
from repro.sizemodel import estimate_bytes

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
scalars = st.one_of(
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=10,
)


@st.composite
def random_digraph(draw, max_vertices=24, weighted=False):
    n = draw(st.integers(2, max_vertices))
    density = draw(st.floats(0.05, 0.4))
    seed = draw(st.integers(0, 10_000))
    import random

    rng = random.Random(seed)
    g = DiGraph()
    for v in range(n):
        g.add_vertex(v)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                g.add_edge(u, v, rng.uniform(0.05, 1.0) if weighted else None)
    return g


# ---------------------------------------------------------------------------
# freeze / size model
# ---------------------------------------------------------------------------
class TestFreezeProperties:
    @given(values)
    @settings(max_examples=60, deadline=None)
    def test_result_is_hashable(self, v):
        hash(freeze(v))

    @given(values)
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, v):
        frozen = freeze(v)
        assert freeze(frozen) == frozen

    @given(values, values)
    @settings(max_examples=60, deadline=None)
    def test_equal_values_freeze_equal(self, a, b):
        if a == b:
            assert freeze(a) == freeze(b)


class TestSizeModelProperties:
    @given(values)
    @settings(max_examples=60, deadline=None)
    def test_positive(self, v):
        assert estimate_bytes(v) >= 1

    @given(st.lists(scalars, max_size=6), scalars)
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_extension(self, items, extra):
        assert estimate_bytes(tuple(items) + (extra,)) > estimate_bytes(
            tuple(items)
        )


class TestErrorMetricProperties:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_self_error_is_zero(self, v):
        assert normalized_error(v, v, p=1) == 0.0
        assert normalized_error(v, v, p=2) == 0.0

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_norm_nonnegative_and_zero_iff_zero(self, v):
        n = lp_norm(v, 2)
        assert n >= 0.0
        if all(x == 0 for x in v):
            assert n == 0.0


# ---------------------------------------------------------------------------
# analytics vs oracles
# ---------------------------------------------------------------------------
class TestAnalyticOracles:
    @given(random_digraph(weighted=True))
    @SLOW
    def test_sssp_matches_dijkstra(self, g):
        result = run_program(g, SSSP(source=0).make_program())
        oracle = single_source_shortest_paths(g, 0)
        for v in g.vertices():
            expected = oracle.get(v, math.inf)
            assert result.values[v] == pytest.approx(expected, abs=1e-9)

    @given(random_digraph())
    @SLOW
    def test_wcc_matches_components(self, g):
        result = run_program(g, WCC().make_program())
        for component in weakly_connected_components(g):
            expected = min(component)
            for v in component:
                assert result.values[v] == expected

    @given(random_digraph())
    @SLOW
    def test_pagerank_approx_eps0_equals_exact(self, g):
        exact = PageRank(num_supersteps=8)
        approx = PageRank(num_supersteps=8, epsilon=0.0)
        r_exact = run_program(g, exact.make_program()).values
        r_approx = run_program(g, approx.make_program()).values
        for v in g.vertices():
            assert approx.provenance_value(r_approx[v]) == pytest.approx(
                exact.provenance_value(r_exact[v]), abs=1e-10
            )

    @given(random_digraph(weighted=True), st.floats(0.0, 0.5))
    @SLOW
    def test_approx_sssp_never_underestimates(self, g, eps):
        exact = run_program(g, SSSP(source=0).make_program()).values
        approx = run_program(
            g, SSSP(source=0, epsilon=eps).make_program()
        ).values
        for v in g.vertices():
            assert approx[v] >= exact[v] - 1e-9


# ---------------------------------------------------------------------------
# provenance and evaluation-mode equivalence
# ---------------------------------------------------------------------------
class TestProvenanceProperties:
    @given(random_digraph(weighted=True))
    @SLOW
    def test_message_edges_cross_one_layer(self, g):
        capture = run_online(
            g, SSSP(source=0), Q.CAPTURE_FULL_QUERY, capture=True
        )
        unfolded = unfold(capture.store)
        for (src, dst, _m) in unfolded.message_edges:
            assert dst[1] == src[1] + 1
        # layers partition the nodes
        union = set()
        for layer in unfolded.layers():
            assert union.isdisjoint(layer)
            union |= layer
        assert union == unfolded.nodes

    @given(random_digraph(weighted=True), st.sampled_from(["q5", "q6", "apt"]))
    @SLOW
    def test_all_modes_agree(self, g, which):
        analytic = SSSP(source=0)
        if which == "q5":
            query, params, udfs = Q.SSSP_WCC_UPDATE_CHECK_QUERY, None, None
        elif which == "q6":
            query, params, udfs = Q.SSSP_WCC_STABILITY_QUERY, None, None
        else:
            query = Q.APT_QUERY
            params = {"eps": 0.1}
            udfs = Q.apt_udfs(analytic)
        online = run_online(g, analytic, query, params=params, udfs=udfs)
        store = run_online(
            g, analytic, Q.CAPTURE_FULL_QUERY, capture=True
        ).store
        layered = run_layered(store, query, g, params, udfs)
        naive = run_naive(store, query, g, params, udfs)
        reference = run_reference(store, query, g, params, udfs)
        for rel in reference.relations():
            expected = reference.rows(rel)
            assert online.query.rows(rel) == expected, f"online {rel}"
            assert layered.rows(rel) == expected, f"layered {rel}"
            assert naive.rows(rel) == expected, f"naive {rel}"

    @given(random_digraph(weighted=True))
    @SLOW
    def test_online_never_changes_analytic(self, g):
        analytic = SSSP(source=0)
        baseline = run_program(g, analytic.make_program()).values
        online = run_online(
            g, analytic, Q.APT_QUERY, params={"eps": 0.05},
            udfs=Q.apt_udfs(analytic),
        )
        assert online.values == baseline


class TestExtraAnalyticProperties:
    @given(random_digraph())
    @SLOW
    def test_kcore_bounded_by_degree(self, g):
        from repro.analytics.kcore import KCore

        analytic = KCore()
        result = run_program(g, analytic.make_program())
        cores = analytic.coreness(result.values)
        for v in g.vertices():
            degree = len(
                set(g.out_neighbors(v)) | set(g.in_neighbors(v))
            )
            assert 0 <= cores[v] <= degree

