"""Unit tests for the PQL evaluator core over hand-built stores."""

import pytest

from repro.errors import PQLError
from repro.pql.analysis import compile_query
from repro.pql.ast import BinOp, Const, FuncCall, Var
from repro.pql.eval import eval_term
from repro.pql.parser import parse
from repro.pql.udf import FunctionRegistry
from repro.provenance.store import ProvenanceStore, Relations
from repro.runtime.db import StoreDatabase
from repro.runtime.offline import run_reference


def evaluate(src, store, graph=None, udfs=None, **params):
    return run_reference(store, src, graph=graph, params=params or None,
                         udfs=udfs)


@pytest.fixture
def store():
    s = ProvenanceStore()
    facts = {
        "superstep": [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)],
        "value": [(0, 5.0, 0), (0, 3.0, 1), (1, 7.0, 0), (1, 7.0, 1),
                  (2, 1.0, 1)],
        "evolution": [(0, 0, 1), (1, 0, 1)],
        "receive_message": [(0, 1, 4.0, 1), (2, 0, 2.0, 1)],
        "send_message": [(1, 0, 4.0, 0), (0, 2, 2.0, 0)],
    }
    for rel, rows in facts.items():
        s.add_batch(rel, rows)
    return s


class TestEvalTerm:
    def test_var_and_const(self):
        funcs = FunctionRegistry()
        assert eval_term(Var("X"), {"X": 3}, funcs) == 3
        assert eval_term(Const(2.5), {}, funcs) == 2.5

    def test_arithmetic(self):
        funcs = FunctionRegistry()
        expr = BinOp("+", Const(1), BinOp("*", Const(2), Var("X")))
        assert eval_term(expr, {"X": 3}, funcs) == 7
        assert eval_term(BinOp("/", Const(7), Const(2)), {}, funcs) == 3.5
        assert eval_term(BinOp("-", Const(7), Const(2)), {}, funcs) == 5

    def test_function_call(self):
        funcs = FunctionRegistry()
        assert eval_term(FuncCall("abs", (Const(-3),)), {}, funcs) == 3
        assert eval_term(
            FuncCall("elem", (Const((4, 5)), Const(1))), {}, funcs
        ) == 5

    def test_unbound_var_is_internal_error(self):
        with pytest.raises(PQLError):
            eval_term(Var("X"), {}, FunctionRegistry())


class TestJoins:
    def test_single_scan(self, store):
        result = evaluate("p(X, D) :- value(X, D, I), I = 0.", store)
        assert result.rows("p") == [(0, 5.0), (1, 7.0)]

    def test_local_join_across_relations(self, store):
        result = evaluate(
            "p(X, D1, D2) :- value(X, D1, I), value(X, D2, J), "
            "evolution(X, J, I).",
            store,
        )
        assert result.rows("p") == [(0, 3.0, 5.0), (1, 7.0, 7.0)]

    def test_repeated_variable_in_atom(self, store):
        s = ProvenanceStore()
        s.add_batch("evolution", [(0, 1, 1), (0, 1, 2)])
        result = evaluate("p(X) :- evolution(X, I, I).", s)
        assert result.rows("p") == [(0,)]

    def test_comparison_filters(self, store):
        result = evaluate("p(X, D) :- value(X, D, I), D > 4.0, I = 0.", store)
        assert result.rows("p") == [(0, 5.0), (1, 7.0)]

    def test_binding_comparison(self, store):
        result = evaluate(
            "p(X, J) :- receive_message(X, Y, M, I), J = I - 1.", store
        )
        assert result.rows("p") == [(0, 0), (2, 0)]

    def test_negation(self, store):
        result = evaluate(
            "got(X, I) :- receive_message(X, Y, M, I)."
            "quiet(X, I) :- superstep(X, I), !got(X, I).",
            store,
        )
        assert (1, 1) in result.rows("quiet")
        assert (0, 1) not in result.rows("quiet")

    def test_boolcall_filter(self, store):
        result = evaluate(
            "p(X, D) :- value(X, D, I), I = 1, outside(D, 2.0, 6.0).",
            store,
        )
        assert result.rows("p") == [(1, 7.0), (2, 1.0)]

    def test_udf(self, store):
        result = evaluate(
            "close(X, I) :- value(X, D1, I), value(X, D2, J), "
            "evolution(X, J, I), udf_diff(D1, D2, 0.5).",
            store,
            udfs={"udf_diff": lambda a, b, e: abs(a - b) < e},
        )
        assert result.rows("close") == [(1, 1)]

    def test_constant_in_atom_argument(self, store):
        result = evaluate("p(X) :- value(X, 7.0, 0).", store)
        assert result.rows("p") == [(1,)]

    def test_anonymous_variables_distinct(self, store):
        result = evaluate("p(X) :- receive_message(X, _, _, _).", store)
        assert result.rows("p") == [(0,), (2,)]

    def test_recursion_transitive_closure(self, store):
        result = evaluate(
            "t(X, I) :- superstep(X, I), I = 1, X = 2."
            "t(X, I) :- send_message(X, Y, M, I), t(Y, J), J = I + 1.",
            store,
        )
        # 2@1 <- 0 sent at 0 <- 1 sent... 1 sent to 0 at superstep 0, but
        # t(0, ...) only holds at superstep 0, so J = I + 1 fails for 1.
        assert result.rows("t") == [(0, 0), (2, 1)]

    def test_head_expression(self, store):
        result = evaluate(
            "p(X, D * 2) :- value(X, D, I), I = 0.", store
        )
        assert result.rows("p") == [(0, 10.0), (1, 14.0)]

    def test_static_edge_relation(self, store):
        from repro.graph.digraph import from_edge_list

        g = from_edge_list([(0, 1), (1, 2)])
        result = evaluate(
            "has_in(X) :- edge(Y, X)."
            "starved(X, I) :- superstep(X, I), !has_in(X).",
            store,
            graph=g,
        )
        assert result.rows("has_in") == [(1,), (2,)]
        assert result.rows("starved") == [(0, 0), (0, 1)]


class TestAggregates:
    def test_count_distinct_witnesses(self, store):
        result = evaluate(
            "active(X, count(I)) :- superstep(X, I).", store
        )
        assert result.rows("active") == [(0, 2), (1, 2), (2, 1)]

    def test_sum_and_groups(self, store):
        s = ProvenanceStore()
        s.add_batch("receive_message",
                  [(0, 1, 2.0, 1), (0, 2, 3.0, 1), (0, 1, 5.0, 2)])
        result = evaluate(
            "msum(X, I, sum(M)) :- receive_message(X, Y, M, I).", s
        )
        assert result.rows("msum") == [(0, 1, 5.0), (0, 2, 5.0)]

    def test_min_max_avg(self, store):
        result = evaluate(
            "vmin(X, min(D)) :- value(X, D, I)."
            "vmax(X, max(D)) :- value(X, D, I)."
            "vavg(X, avg(D)) :- value(X, D, I).",
            store,
        )
        assert result.rows("vmin") == [(0, 3.0), (1, 7.0), (2, 1.0)]
        assert result.rows("vmax") == [(0, 5.0), (1, 7.0), (2, 1.0)]
        assert result.rows("vavg") == [(0, 4.0), (1, 7.0), (2, 1.0)]

    def test_duplicate_values_from_distinct_witnesses_counted(self):
        s = ProvenanceStore()
        # two neighbors deliver the same message value: sum must be 4, not 2
        s.add_batch("receive_message", [(0, 1, 2.0, 1), (0, 2, 2.0, 1)])
        result = evaluate(
            "msum(X, sum(M)) :- receive_message(X, Y, M, I).", s
        )
        assert result.rows("msum") == [(0, 4.0)]

    def test_aggregate_feeds_downstream(self, store):
        result = evaluate(
            "active(X, count(I)) :- superstep(X, I)."
            "busy(X) :- active(X, C), C >= 2.",
            store,
        )
        assert result.rows("busy") == [(0,), (1,)]


class TestRelations:
    """The derived-fact container: layers by arrival superstep, set
    semantics over all of them."""

    def test_add_and_dedupe(self):
        rel = Relations()
        assert rel.insert("r", [(0, 1), (0, 1)]) == [(0, 1)]
        assert rel.insert("r", [(0, 1)], layer=3) == []  # held in layer None
        assert rel.counts() == {"r": 1}

    def test_unbound_read_is_every_layer(self):
        rel = Relations()
        rel.insert("r", [(0, "a", 1)], layer=1)
        rel.insert("r", [(0, "z", 5)])
        rel.insert("r", [(0, "b", 2)], layer=2)
        assert [layer.count for layer in rel.column_batches("r")] == [1, 1, 1]
        # a bound superstep reads the None layer, then its own
        assert [list(zip(*layer.columns)) for layer in
                rel.column_batches("r", [2])] == [[(0, "z", 5)], [(0, "b", 2)]]

    def test_layers_keyed_by_arrival(self):
        rel = Relations()
        rel.insert("r", [(0, "a", 1), (1, "c", 1)], layer=1)
        rel.insert("r", [(0, "b", 2)], layer=2)
        (one,) = rel.column_batches("r", [1])
        assert one.groups() == {0: (0, 1), 1: (1, 1)}
        assert rel.column_batches("r", [3]) == []
        # each vertex's rows in arrival order, and counted for watermarks
        assert list(rel.partition("r", 0)) == [(0, "a", 1), (0, "b", 2)]
        assert rel.sizes("r") == {0: 2, 1: 1}
        # a watermark through superstep 1 reads the layers up to it
        assert [layer.count for layer in
                rel.column_batches("r", None, through=1)] == [2]
        assert rel.drop_before("r", 2) == 2
        assert list(rel.rows("r")) == [(0, "b", 2)]

    def test_set_groups_replaces(self):
        rel = Relations()
        assert rel.set_groups("agg", [((0,), (0, 1))]) == 1
        assert rel.set_groups("agg", [((0,), (0, 2))]) == 1
        assert rel.set_groups("agg", [((0,), (0, 2))]) == 0
        assert set(rel.partition("agg", 0)) == {(0, 2)}
        assert len(rel.column_batches("agg", [7])) == 1  # one layer


class TestErrorContext:
    """The distributed drivers name the failing rule and its sites."""

    def test_rule_error_names_rule_and_site(self, store):
        from repro.errors import PQLError
        from repro.runtime.offline import run_naive

        with pytest.raises(PQLError, match=r"over \d+ sites: p\(X, \(D / 0\)\)"
                           ".*ZeroDivisionError"):
            run_naive(store, "p(X, D / 0) :- value(X, D, I).")

    def test_udf_exception_wrapped(self, store):
        from repro.errors import PQLError
        from repro.runtime.offline import run_naive

        def boom(*_args):
            raise RuntimeError("kaboom")

        with pytest.raises(PQLError, match="kaboom"):
            run_naive(store, "p(X) :- value(X, D, I), boom(D).",
                      udfs={"boom": boom})
