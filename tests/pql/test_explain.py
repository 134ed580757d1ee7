"""Tests for the query EXPLAIN facility and the semi-join optimizer."""

import pytest

from repro.core import queries as Q
from repro.pql.analysis import compile_query
from repro.pql.explain import explain, explain_rule
from repro.pql.parser import parse
from repro.pql.plan import ScanStep
from repro.pql.udf import FunctionRegistry


def compiled_of(src, **params):
    program = parse(src)
    if params:
        program = program.bind(**params)
    funcs = FunctionRegistry({"udf_diff": lambda a, b, e: abs(a - b) < e})
    return compile_query(program, functions=funcs)


class TestExplain:
    def test_apt_report_mentions_everything(self):
        text = explain(compiled_of(Q.APT_QUERY, eps=0.01))
        assert "direction: forward" in text
        assert "online" in text and "layered" in text
        assert "window 0" in text
        assert "full history" in text  # value is unbounded
        assert "shipped to neighbors: change" in text
        assert "anti-join" in text
        assert "superstep-indexed" in text

    def test_backward_report(self):
        text = explain(
            compiled_of(Q.BACKWARD_LINEAGE_FULL_QUERY, alpha=0, sigma=5)
        )
        assert "direction: backward" in text
        assert "online" not in text.splitlines()[1]

    def test_static_rules_shown_as_setup(self):
        text = explain(compiled_of(Q.PAGERANK_CHECK_QUERY))
        assert "static (setup)" in text
        assert "setup plan" in text

    def test_verbose_shows_all_plans(self):
        cq = compiled_of("p(X, I) :- receive_message(X, Y, M, I).")
        short = explain(cq, verbose=False)
        long = explain(cq, verbose=True)
        assert "located plan" not in short
        assert "located plan" in long and "anchored plan" in long
        # only a static setup rule has a free plan
        assert "free plan" not in long

    def test_verbose_prints_each_plans_generated_function(self):
        """Verbose EXPLAIN lists the layer-program ops compiled for every
        plan, the static setup rule's included."""
        cq = compiled_of(Q.PAGERANK_CHECK_QUERY)
        assert "layer program:" not in explain(cq, verbose=False)
        long = explain(cq, verbose=True)
        # one setup rule (free plan) + one rule in two binding modes
        assert long.count("layer program:") == 3
        assert "setup plan (prebound: none) [layer program]" in long
        assert "one empty solution (free mode)" in long
        assert long.count("sites as column X") == 2
        # the ops follow the plan they were compiled from
        assert long.index("anchored plan") < long.index(
            "selection receive_message") < long.index("located plan")
        assert "row function" not in long and "def rule" not in long

    def test_stream_relations_listed(self):
        text = explain(compiled_of(Q.CAPTURE_FULL_QUERY))
        assert "stream relations:" in text

    def test_aggregate_annotation(self):
        text = explain(compiled_of(
            "deg(X, count(Y)) :- receive_message(X, Y, M, I)."
        ))
        assert "aggregate" in text


class TestSemiJoinOptimizer:
    def _scans(self, cq, rule_index=0):
        plan = cq.rules[rule_index].anchored_plan
        return [s for s in plan.steps if isinstance(s, ScanStep)]

    def test_projected_scan_becomes_exists(self):
        cq = compiled_of(
            "t(X, I) :- superstep(X, I)."
            "t(X, I) :- receive_message(X, Y, M, I), t(Y, W), W < I, "
            "superstep(X, I)."
        )
        # second rule: t(Y, W) binds W used only in the absorbed filter
        scans = self._scans(cq, 1)
        exists = [s for s in scans if s.exists]
        assert len(exists) == 1
        assert exists[0].relation == "t"
        assert len(exists[0].post_filters) == 1

    def test_used_binding_not_optimized(self):
        cq = compiled_of(
            "p(X, W, I) :- receive_message(X, Y, M, I), value(Y, W, J), "
            "J < I."
        )
        # W appears in the head: the scan must enumerate
        scans = self._scans(cq)
        assert all(not s.exists for s in scans if s.relation == "value")

    def test_aggregate_rules_never_optimized(self):
        cq = compiled_of(
            "cnt(X, count(Y)) :- receive_message(X, Y, M, I), M > 0."
        )
        plan = cq.rules[0].anchored_plan
        assert all(
            not (isinstance(s, ScanStep) and s.exists) for s in plan.steps
        )

    def test_fwd_lineage_uses_semi_join(self):
        cq = compiled_of(Q.CAPTURE_FWD_LINEAGE_QUERY, source=0)
        recursive = cq.rules[1]
        exists = [
            s for s in recursive.anchored_plan.steps
            if isinstance(s, ScanStep) and s.exists
        ]
        assert [s.relation for s in exists] == ["fwd_lineage"]

    def test_semi_join_preserves_results(self):
        from repro.analytics.sssp import SSSP
        from repro.graph.generators import web_graph, with_random_weights
        from repro.runtime.offline import run_reference
        from repro.runtime.online import run_online

        g = with_random_weights(
            web_graph(100, avg_degree=5, target_diameter=8, seed=111),
            seed=111,
        )
        online = run_online(
            g, SSSP(source=0), Q.CAPTURE_FWD_LINEAGE_QUERY,
            params={"source": 0},
        )
        store = run_online(
            g, SSSP(source=0), Q.CAPTURE_FULL_QUERY, capture=True
        ).store
        offline = run_reference(
            store, Q.CAPTURE_FWD_LINEAGE_QUERY, g, {"source": 0}
        )
        assert online.query.rows("fwd_lineage") == offline.rows("fwd_lineage")
