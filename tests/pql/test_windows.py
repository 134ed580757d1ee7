"""Tests for the history-window analysis and online pruning."""

import pytest

from repro.analytics.sssp import SSSP
from repro.core import queries as Q
from repro.graph.generators import web_graph, with_random_weights
from repro.pql.analysis import compile_query, relation_windows
from repro.pql.parser import parse
from repro.pql.udf import FunctionRegistry
from repro.runtime.online import run_online


def windows_of(src, **params):
    program = parse(src)
    if params:
        program = program.bind(**params)
    funcs = FunctionRegistry({"udf_diff": lambda a, b, e: abs(a - b) < e})
    return relation_windows(compile_query(program, functions=funcs))


class TestWindowAnalysis:
    def test_anchored_scan_is_window_zero(self):
        w = windows_of("p(X, I) :- receive_message(X, Y, M, I).")
        assert w == {"receive_message": 0}

    def test_arithmetic_offset(self):
        w = windows_of(
            "p(X, I) :- receive_message(X, Y, M, I), "
            "superstep(X, J), J = I - 2."
        )
        assert w["superstep"] == 2

    def test_future_offsets_clamp_to_zero(self):
        w = windows_of(
            "p(X, I) :- superstep(X, I), superstep(X, J), J = I + 0."
        )
        assert w["superstep"] == 0

    def test_unbounded_via_evolution(self):
        w = windows_of(
            "p(X, I) :- value(X, D1, I), value(X, D2, J), "
            "evolution(X, J, I)."
        )
        assert w["value"] is None
        assert w["evolution"] == 0

    def test_constant_superstep_is_unbounded(self):
        # A fact pinned to an absolute superstep can be joined against at
        # every later anchor (e.g. with facts that arrive much later), so
        # the analysis must not prune it.
        w = windows_of("p(X, D) :- value(X, D, I), I = 0.")
        assert w["value"] is None

    def test_anchored_seed_rule_is_bounded(self):
        # ... but when the constant-constrained variable IS the anchor,
        # the anchor offset (0) applies and pruning is sound.
        w = windows_of(
            "seed(X, D, I) :- value(X, D, I), superstep(X, I), I = 0."
        )
        assert w["value"] == 0

    def test_apt_query_windows(self):
        w = windows_of(Q.APT_QUERY, eps=0.1)
        assert w["value"] is None
        assert w["superstep"] == 0
        assert w["receive_message"] == 0
        assert w["evolution"] == 0

    def test_rule_without_anchor_is_unbounded(self):
        # head has no superstep attribute: every scan is unbounded
        w = windows_of("p(X) :- superstep(X, I), I > 3.")
        assert w["superstep"] is None


class TestPruningEndToEnd:
    @pytest.fixture(scope="class")
    def wgraph(self):
        return with_random_weights(
            web_graph(200, avg_degree=6, target_diameter=10, seed=91),
            seed=91,
        )

    def test_results_identical_with_and_without_pruning(self, wgraph):
        from repro.engine.engine import PregelEngine
        from repro.pql.udf import FunctionRegistry
        from repro.runtime.online import OnlineQueryProgram

        analytic = SSSP(source=0)
        funcs = FunctionRegistry(Q.apt_udfs(analytic))
        program = parse(Q.APT_QUERY).bind(eps=0.1)
        compiled = compile_query(program, functions=funcs)

        results = {}
        for prune in (True, False):
            engine = PregelEngine(wgraph)
            wrapper = OnlineQueryProgram(
                analytic.make_program(), compiled, funcs, engine,
                value_projector=analytic.provenance_value,
                prune_history=prune,
            )
            wrapper.run_setup()
            engine.run(wrapper)
            results[prune] = {
                rel: sorted(wrapper.db.derived.rows(rel), key=repr)
                for rel in ("change", "no_execute", "safe", "unsafe")
            }
            if prune:
                assert wrapper.pruned_rows > 0

        assert results[True] == results[False]

    def test_pruning_reduces_transient_memory(self, wgraph):
        analytic = SSSP(source=0)
        result = run_online(
            wgraph, analytic, Q.APT_QUERY, params={"eps": 0.1},
            udfs=Q.apt_udfs(analytic),
        )
        assert result.query.stats["pruned_rows"] > 0
        assert (
            result.query.stats["transient_rows"]
            < result.query.stats["pruned_rows"]
        )
