"""Online evaluation tests, centered on Theorem 5.4:

1. the analytic's result is unchanged by lockstep query evaluation, and
2. the query's online result equals its offline result over the captured
   provenance of the same run.
"""

import re

import pytest

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.analytics.wcc import WCC
from repro.core import queries as Q
from repro.engine.config import EngineConfig
from repro.engine.engine import PregelEngine, run_program
from repro.errors import EngineError, PQLCompatibilityError
from repro.graph.generators import random_graph, web_graph, with_random_weights
from repro.pql.analysis import compile_query
from repro.pql.parser import parse
from repro.pql.udf import FunctionRegistry
from repro.provenance.model import SchemaRegistry
from repro.runtime.offline import run_layered, run_reference
from repro.runtime.online import OnlineQueryProgram, run_online


@pytest.fixture(scope="module")
def graph():
    return web_graph(150, avg_degree=5, target_diameter=8, seed=21)


@pytest.fixture(scope="module")
def wgraph(graph):
    return with_random_weights(graph, seed=21)


class TestTheorem54AnalyticUnchanged:
    def test_pagerank_values_identical(self, graph):
        analytic = PageRank(num_supersteps=10)
        baseline = run_program(graph, analytic.make_program())
        online = run_online(graph, analytic, Q.PAGERANK_CHECK_QUERY)
        for v in graph.vertices():
            assert online.values[v] == pytest.approx(
                baseline.values[v], abs=1e-12
            )

    def test_sssp_values_identical(self, wgraph):
        analytic = SSSP(source=0)
        baseline = run_program(wgraph, analytic.make_program())
        online = run_online(
            wgraph, analytic, Q.SSSP_WCC_UPDATE_CHECK_QUERY
        )
        assert online.values == baseline.values

    def test_superstep_count_identical(self, wgraph):
        analytic = SSSP(source=0)
        baseline = run_program(wgraph, analytic.make_program())
        online = run_online(wgraph, analytic, Q.SSSP_WCC_STABILITY_QUERY)
        assert online.analytic.num_supersteps == baseline.num_supersteps

    def test_query_messages_only_on_analytic_edges(self, wgraph):
        # The apt query ships `change` tables; total engine messages must
        # equal the analytic's (piggybacking adds no messages). The bare run
        # folds with SSSP's combiner; the online run folds nothing, because
        # the query program's combiner() is None (receive_message needs
        # each message), under the same default config.
        analytic = SSSP(source=0)
        baseline = run_program(wgraph, analytic.make_program())
        online = run_online(
            wgraph, analytic, Q.APT_QUERY, params={"eps": 0.1},
            udfs=Q.apt_udfs(analytic),
        )
        assert (
            online.analytic.metrics.total_messages
            == baseline.metrics.total_messages
        )
        assert baseline.metrics.total_messages_combined > 0
        assert online.analytic.metrics.total_messages_combined == 0


class TestTheorem54QueryCorrect:
    def _online_equals_offline(self, graph, analytic, query, params=None,
                               udfs=None):
        online = run_online(graph, analytic, query, params=params, udfs=udfs)
        capture = run_online(
            graph, analytic, Q.CAPTURE_FULL_QUERY, capture=True
        )
        offline = run_reference(
            capture.store, query, graph=graph, params=params, udfs=udfs
        )
        assert online.query.relations() or offline.relations() == []
        for rel in set(online.query.relations()) | set(offline.relations()):
            assert online.query.rows(rel) == offline.rows(rel), rel

    def test_query4_pagerank(self, graph):
        self._online_equals_offline(
            graph, PageRank(num_supersteps=8), Q.PAGERANK_CHECK_QUERY
        )

    def test_query5_sssp(self, wgraph):
        self._online_equals_offline(
            wgraph, SSSP(source=0), Q.SSSP_WCC_UPDATE_CHECK_QUERY
        )

    def test_query6_wcc(self, graph):
        self._online_equals_offline(
            graph, WCC(), Q.SSSP_WCC_STABILITY_QUERY
        )

    def test_apt_sssp(self, wgraph):
        analytic = SSSP(source=0)
        self._online_equals_offline(
            wgraph, analytic, Q.APT_QUERY, params={"eps": 0.1},
            udfs=Q.apt_udfs(analytic),
        )

    def test_forward_lineage_recursion(self, wgraph):
        analytic = SSSP(source=0)
        online = run_online(
            wgraph, analytic, Q.CAPTURE_FWD_LINEAGE_QUERY,
            params={"source": 0},
        )
        capture = run_online(
            wgraph, analytic, Q.CAPTURE_FULL_QUERY, capture=True
        )
        offline = run_reference(
            capture.store, Q.CAPTURE_FWD_LINEAGE_QUERY, graph=wgraph,
            params={"source": 0},
        )
        assert online.query.rows("fwd_lineage") == offline.rows("fwd_lineage")
        # the source influences a non-trivial part of the graph
        assert len(online.query.vertices("fwd_lineage")) > 10


class TestOnlineRestrictions:
    def test_backward_query_rejected(self, wgraph):
        with pytest.raises(PQLCompatibilityError):
            run_online(
                wgraph, SSSP(source=0), Q.BACKWARD_LINEAGE_FULL_QUERY,
                params={"alpha": 0, "sigma": 3},
            )

    def test_remote_aggregate_rejected(self, graph):
        query = (
            "deg(X, count(Y)) :- receive_message(X, Y, M, I)."
            "spread(X, I) :- receive_message(X, Y, M, I), deg(Y, D), D > 2."
        )
        with pytest.raises(PQLCompatibilityError, match="aggregate"):
            run_online(graph, PageRank(num_supersteps=5), query)

    def test_anchor_on_evolutions_earlier_superstep_rejected(self):
        """``evolution(X, J, I)`` arrives at superstep I, after the anchor
        J has been evaluated: online would silently derive nothing where
        the offline drivers derive every row, so it refuses the rule."""
        small = with_random_weights(random_graph(9, 20, seed=3), seed=3)
        stale = "seen(X, J) :- evolution(X, J, I)."
        with pytest.raises(PQLCompatibilityError,
                           match=r"seen\(X, J\) :- evolution"):
            run_online(small, PageRank(num_supersteps=4), stale)
        store = run_online(small, PageRank(num_supersteps=4),
                           Q.CAPTURE_FULL_QUERY, capture=True).store
        assert run_layered(store, stale).rows("seen") == run_reference(
            store, stale).rows("seen")
        assert run_reference(store, stale).count("seen") == 27

    def test_read_of_a_later_superstep_rejected(self):
        """A rule reading a relation at a superstep after its anchor reads
        what online has not computed yet: it would silently derive nothing
        where the offline drivers derive every row, so online refuses it
        by name."""
        small = with_random_weights(random_graph(9, 20, seed=3), seed=3)
        ahead = "p(X, I) :- superstep(X, I), value(X, D, J), J = I + 1."
        with pytest.raises(PQLCompatibilityError,
                           match=r"value at a superstep after its anchor"
                                 r".*p\(X, I\) :- superstep"):
            run_online(small, PageRank(num_supersteps=4), ahead)
        store = run_online(small, PageRank(num_supersteps=4),
                           Q.CAPTURE_FULL_QUERY, capture=True).store
        assert run_layered(store, ahead).rows("p") == run_reference(
            store, ahead).rows("p")
        assert run_layered(store, ahead).count("p") == 27

    def test_no_paper_query_refused_for_a_later_read(self):
        """Online accepts every paper query it accepted before, and refuses
        only the backward ones, by direction."""
        refused = {}
        custom = SchemaRegistry()  # Query 12 reads Query 11's capture
        custom.register_all(compile_query(
            parse(Q.CAPTURE_BACKWARD_CUSTOM_QUERY)).idb_schemas.values())
        for name, src in sorted(Q.NAMED_QUERIES.items()):
            params = {p: 1 for p in re.findall(r"\$(\w+)", src)}
            program = parse(src).bind(**params) if params else parse(src)
            compiled = compile_query(
                program, registry=custom if name == "query12" else None,
                functions=FunctionRegistry(Q.apt_udfs(PageRank())))
            try:
                compiled.require_online()
            except PQLCompatibilityError as exc:
                refused[name] = str(exc)
        assert sorted(refused) == ["query10", "query12"]
        assert all("direction is 'backward'" in why
                   for why in refused.values())

    def test_wrapper_refuses_another_engine(self, graph):
        """The wrapper reads its own engine's send log and receiver table:
        run on another engine it would read nothing, so it refuses."""
        funcs = FunctionRegistry()
        compiled = compile_query(parse(Q.PAGERANK_CHECK_QUERY),
                                 functions=funcs)
        wrapper = OnlineQueryProgram(
            PageRank(num_supersteps=3).make_program(), compiled, funcs,
            PregelEngine(graph))
        with pytest.raises(EngineError, match="its own engine"):
            PregelEngine(graph).run(wrapper)

    @pytest.mark.parametrize("workers", [1, 3, 7])
    def test_timeless_shipped_head(self, workers):
        """``touched(X)`` is derived again at every superstep a vertex runs
        and read by its neighbors: one row per vertex, shipped once per
        target, and the rows the oracle derives."""
        small = with_random_weights(random_graph(9, 20, seed=3), seed=3)
        query = ("touched(X) :- superstep(X, I)."
                 "near(X, Y, I) :- receive_message(X, Y, M, I), touched(Y).")
        online = run_online(small, PageRank(num_supersteps=4), query,
                            config=EngineConfig(num_workers=workers))
        store = run_online(small, PageRank(num_supersteps=4),
                           Q.CAPTURE_FULL_QUERY, capture=True).store
        assert online.query.as_dict() == run_reference(
            store, query, small).as_dict()
        assert (online.query.count("near"), online.query.count("touched"),
                online.query.stats["shipped_tuples"]) == (60, 9, 20)


class TestOnlineMechanics:
    def test_monitoring_query_fires_on_buggy_analytic(self, graph):
        # An analytic that messages a fixed vertex id regardless of edges:
        # Query 4 must flag receipts at vertices without in-edges.
        from repro.engine.vertex import VertexProgram
        from repro.graph.digraph import DiGraph

        g = DiGraph()
        g.add_edge(0, 1)
        g.add_vertex(2)  # no in-edges

        class Buggy(VertexProgram):
            def compute(self, ctx, messages):
                if ctx.superstep == 0 and ctx.vertex_id == 0:
                    ctx.send(2, "oops")  # not a neighbor!
                ctx.vote_to_halt()

        result = run_online(g, Buggy(), Q.PAGERANK_CHECK_QUERY)
        assert result.query.rows("check_failed") == [(2, 0, 1)]

    def test_no_capture_store_by_default(self, graph):
        result = run_online(graph, PageRank(num_supersteps=5),
                            Q.PAGERANK_CHECK_QUERY)
        assert result.store is None
        assert result.query.mode == "online"

    def test_stats_count_generated_functions(self, graph):
        # Query 4: one program per (rule, mode) that ran — the static rule
        # in free mode at setup, the other anchored every superstep.
        result = run_online(graph, PageRank(num_supersteps=5),
                            Q.PAGERANK_CHECK_QUERY)
        assert result.query.stats["compiled_rules"] == 2
        assert (result.query.stats["rules_vectorized"]
                == 1 + result.analytic.num_supersteps)

    def test_windowed_partitions_serve_time_slices(self, graph):
        """Window-pruned relations answer their time-bound scans from the
        layers that survive pruning, and the rows are those the oracle
        derives over the full capture of the same run."""
        analytic = PageRank(num_supersteps=8)
        udfs = Q.apt_udfs(analytic)
        online = run_online(graph, analytic, Q.APT_QUERY, {"eps": 0.01}, udfs)
        assert online.query.stats["pruned_rows"] > 0
        capture = run_online(graph, analytic, Q.CAPTURE_FULL_QUERY,
                             capture=True)
        offline = run_reference(capture.store, Q.APT_QUERY, graph,
                                {"eps": 0.01}, udfs)
        for rel in ("safe", "unsafe"):
            assert online.query.rows(rel) == offline.rows(rel), rel
        assert online.query.rows("safe") or online.query.rows("unsafe")
