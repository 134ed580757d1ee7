"""The plan compiler: one case per construct a rule plan lowers to layer-
program column ops (:mod:`repro.pql.vectorized`), plus the rule that user
text never becomes code — lowering compiles no Python source at all."""

import builtins
import dataclasses
import pickle

import pytest

from repro.errors import PQLError
from repro.pql.analysis import compile_query
from repro.pql.ast import Const, Var
from repro.pql.eval import (
    MODE_ANCHORED,
    MODE_FREE,
    MODE_LOCATED,
    Database,
    evaluate_rule,
)
from repro.pql.parser import parse
from repro.pql.plan import CHECK_TERM, CompareStep, RulePlan, ScanStep
from repro.pql.udf import FunctionRegistry
from repro.pql.vectorized import VectorContext, layer_program
from repro.provenance.columnar import SlabColumns
from repro.provenance.store import Layer


class _Facts:
    """Facts in a dict as column batches, one per (relation, arity); no
    layers, so every read is a superset the scan's checks narrow."""

    def __init__(self, facts):
        self.facts = facts

    def has_relation(self, relation):
        return relation in self.facts

    def column_batches(self, relation, supersteps=None):
        by_arity = {}
        for row in self.facts.get(relation, ()):
            by_arity.setdefault(len(row), {}).setdefault(row[0], []).append(row)
        return [Layer.of(SlabColumns.of_rows(rows))
                for rows in by_arity.values()]


class DictDB(Database):
    """Stored and static facts from one dict, plus the derived overlay."""

    def __init__(self, facts, heads=()):
        super().__init__()
        self.store = self.static = _Facts(facts)
        self.head_predicates = set(heads)
        self.vector_ctx = VectorContext()


def rules_of(src, udfs=None, **params):
    program = parse(src)
    if params:
        program = program.bind(**params)
    funcs = FunctionRegistry(udfs)
    return compile_query(program, functions=funcs).rules, funcs


def derive(src, facts, mode=MODE_LOCATED, site=0, anchor_time=None,
           udfs=None, **params):
    """Evaluate the program's rules in order at one site; all derived rows."""
    rules, funcs = rules_of(src, udfs, **params)
    db = DictDB(facts, {c.head_predicate for c in rules})
    for crule in rules:
        evaluate_rule(crule, mode, db, funcs, [site], anchor_time)
    return {
        rel: sorted(db.derived.rows(rel)) for rel in db.derived.relations()
    }


class TestLowering:
    def test_repeated_variable_inside_one_atom(self):
        facts = {"receive_message": [(0, 5, 5, 1), (0, 5, 6, 1), (0, 7, 7, 2)]}
        out = derive("echo(X, Y, I) :- receive_message(X, Y, Y, I).", facts)
        assert out == {"echo": [(0, 5, 1), (0, 7, 2)]}

    def test_check_var_against_earlier_binding(self):
        facts = {
            "value": [(0, 1.5, 1), (0, 2.5, 2), (0, 3.5, 3)],
            "superstep": [(0, 1), (0, 3), (1, 2)],
        }
        out = derive("j(X, D, I) :- value(X, D, I), superstep(X, I).", facts)
        assert out == {"j": [(0, 1.5, 1), (0, 3.5, 3)]}

    def test_check_term_positions_are_hoisted_and_compared(self):
        facts = {
            "superstep": [(0, 2)],
            "value": [(0, 9.0, 1), (0, 8.0, 2), (0, 7.0, 0)],
        }
        out = derive(
            "prev(X, D, I) :- superstep(X, I), value(X, D, I - 1)."
            "zero(X, D) :- value(X, D, 0).",
            facts, mode=MODE_ANCHORED, anchor_time=2,
        )
        assert out == {"prev": [(0, 9.0, 2)], "zero": [(0, 7.0)]}
        rules, _ = rules_of("prev(X, D, I) :- superstep(X, I), value(X, D, I - 1).")
        program = layer_program(rules[0], MODE_ANCHORED)
        # evaluated once per run, as a scalar: one selection over the column
        value = next(op for op in program.ops if op.step.relation == "value")
        assert value.scalar_pos == [2] and value.key_pos == []
        assert value.known[2].scalar

    def test_check_term_location(self):
        """A partition selected by an expression (hand-built plan: the
        planner itself only locates atoms at variables)."""
        rules, funcs = rules_of("at(X, I) :- superstep(X, I).")
        crule = rules[0]
        scan = crule.located_plan.steps[0]
        moved = dataclasses.replace(
            scan, arg_ops=((CHECK_TERM, Const(3)),) + scan.arg_ops[1:]
        )
        crule = dataclasses.replace(
            crule, located_plan=RulePlan((moved,), crule.located_plan.prebound),
            layer_programs={},
        )
        db = DictDB({"superstep": [(0, 1), (3, 4), (3, 5)]})
        assert evaluate_rule(crule, MODE_LOCATED, db, funcs, [0]) == 2
        assert sorted(db.derived.rows("at")) == [(0, 4), (0, 5)]

    def test_row_of_wrong_arity_is_skipped(self):
        facts = {"value": [(0, 1.0), (0, 2.0, 1), (0, 3.0, 2, "extra")]}
        out = derive("v(X, D, I) :- value(X, D, I).", facts)
        assert out == {"v": [(0, 2.0, 1)]}

    def test_negated_scan(self):
        facts = {
            "superstep": [(0, 1), (0, 2), (0, 3)],
            "receive_message": [(0, 9, 1.0, 2)],
        }
        out = derive(
            "got(X, I) :- receive_message(X, Y, M, I)."
            "quiet(X, I) :- superstep(X, I), !got(X, I).",
            facts,
        )
        assert out["quiet"] == [(0, 1), (0, 3)]

    def test_exists_bindings_stay_out_of_scope(self):
        """A semi-join's bindings are local to it: the aggregate witness
        leaves them out, so two values passing the absorbed filter still
        count once."""
        rules, funcs = rules_of(
            "cnt(X, count(I)) :- superstep(X, I), value(X, D, I), D > 1.0."
        )
        crule = rules[0]
        sup, val, cmp = crule.located_plan.steps
        assert isinstance(val, ScanStep) and isinstance(cmp, CompareStep)
        semi = dataclasses.replace(val, exists=True, post_filters=(cmp,))
        crule = dataclasses.replace(
            crule, located_plan=RulePlan((sup, semi), ("X",)),
            layer_programs={},
        )
        program = layer_program(crule, MODE_LOCATED)
        assert len(program.witness) == len(crule.body_vars) - 1  # no D
        db = DictDB({
            "superstep": [(0, 1), (0, 2), (0, 3)],
            "value": [(0, 5.0, 1), (0, 6.0, 1), (0, 0.5, 2), (0, 2.0, 3)],
        })
        evaluate_rule(crule, MODE_LOCATED, db, funcs, [0])
        assert sorted(db.derived.rows("cnt")) == [(0, 2)]

    def test_exists_with_post_filter_from_planner(self):
        facts = {
            "superstep": [(0, 1), (0, 2)],
            "value": [(0, 0.5, 1), (0, 4.0, 1), (0, 0.1, 2)],
        }
        rules, _ = rules_of("big(X, I) :- superstep(X, I), value(X, D, I), D > 1.0.")
        assert any(
            isinstance(s, ScanStep) and s.exists and s.post_filters
            for s in rules[0].located_plan.steps
        )
        out = derive("big(X, I) :- superstep(X, I), value(X, D, I), D > 1.0.", facts)
        assert out == {"big": [(0, 1)]}

    def test_equality_binds_a_fresh_variable(self):
        facts = {"value": [(0, 2.0, 1), (0, 3.0, 2)]}
        out = derive("dbl(X, E, I) :- value(X, D, I), E = D * 2 + 1.", facts)
        assert out == {"dbl": [(0, 5.0, 1), (0, 7.0, 2)]}

    def test_mixed_type_ordering_is_false_not_an_error(self):
        facts = {"value": [(0, 2.0, 1), (0, "text", 2)]}
        out = derive("lt(X, D, I) :- value(X, D, I), D < 5.", facts)
        assert out == {"lt": [(0, 2.0, 1)]}

    def test_aggregates_group_and_reduce(self):
        facts = {"value": [(0, 2.0, 1), (0, 3.0, 2), (0, 3.0, 3)]}
        out = derive(
            "stats(X, count(I), sum(D), min(D), max(D), avg(D)) :- value(X, D, I).",
            facts,
        )
        assert out == {"stats": [(0, 3, 8.0, 2.0, 3.0, 8.0 / 3)]}

    def test_free_mode_scans_every_partition(self):
        """Only static setup rules have a free plan: its first scan reads
        the whole relation."""
        facts = {"edge": [(0, 1), (1, 1), (2, 2)]}
        out = derive("into1(X, Y) :- edge(X, Y), Y = 1.", facts,
                     mode=MODE_FREE, site=None)
        assert out == {"into1": [(0, 1), (1, 1)]}

    def test_anchored_binds_site_and_time(self):
        facts = {"superstep": [(0, 1), (0, 2), (1, 2)]}
        out = derive("s(X, I) :- superstep(X, I).", facts,
                     mode=MODE_ANCHORED, site=0, anchor_time=2)
        assert out == {"s": [(0, 2)]}

    def test_udf_failure_names_rule_and_site(self):
        def boom(d):
            raise ValueError("bad payload")

        rules, funcs = rules_of(
            "p(X, I) :- value(X, D, I), boom(D).", udfs={"boom": boom}
        )
        db = DictDB({"value": [(7, 1.0, 1)]})
        with pytest.raises(PQLError) as err:
            evaluate_rule(rules[0], MODE_LOCATED, db, funcs, [7])
        message = str(err.value)
        # one program runs over every site: the error counts them
        assert "over 1 sites" in message and "boom(D)" in message
        assert "ValueError: bad payload" in message
        assert isinstance(err.value.__cause__, ValueError)

    def test_memo_is_per_mode_and_not_pickled(self):
        rules, _ = rules_of("s(X, I) :- superstep(X, I), I > 0.")
        crule = rules[0]
        first = layer_program(crule, MODE_ANCHORED)
        assert layer_program(crule, MODE_ANCHORED) is first
        assert layer_program(crule, MODE_LOCATED) is not first
        clone = pickle.loads(pickle.dumps(crule))
        assert clone.layer_programs == {} and len(crule.layer_programs) == 2
        assert (layer_program(clone, MODE_ANCHORED).describe()
                == first.describe())

    def test_concurrent_first_use_is_benign(self):
        """Plan-cache entries are shared by serve's evaluator threads: a
        racing first use may build a program twice, but every caller gets
        rows from an equivalent one and the memo ends up with one entry
        per mode."""
        import sys
        import threading

        rules, funcs = rules_of("j(X, D, I) :- value(X, D, I), superstep(X, I).")
        crule = rules[0]
        facts = {"value": [(0, 1.5, i) for i in range(50)],
                 "superstep": [(0, i) for i in range(0, 50, 2)]}
        results, errors = [], []
        barrier = threading.Barrier(8)

        def worker():
            try:
                db = DictDB(facts)
                barrier.wait(timeout=10)
                for mode in (MODE_LOCATED, MODE_ANCHORED, MODE_LOCATED):
                    evaluate_rule(crule, mode, db, funcs, [0], 4)
                results.append(sorted(db.derived.rows("j")))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(th.is_alive() for th in threads)
        assert len(results) == 8 and all(r == results[0] for r in results)
        assert len(results[0]) == 25
        assert sorted(crule.layer_programs) == sorted([MODE_ANCHORED,
                                                       MODE_LOCATED])

    def test_plans_deeper_than_the_block_limit_continue_in_a_closure(self):
        """A plan is a flat list of column ops, so no depth limit applies:
        not CPython's 20 nested blocks, not the tokenizer's 100 indent
        levels (both bounded the generated functions this replaced)."""
        facts = {
            "value": [(0, float(i), i) for i in range(40)],
            "superstep": [(0, 3), (0, 5)],
        }
        chain = ["value(X, D0, I0)"] + [
            f"value(X, D{i}, I0 + {i})" for i in range(1, 25)
        ]
        src = f"deep(X, I0, D24) :- {', '.join(chain)}."
        assert derive(src, facts) == {
            "deep": [(0, i, float(i + 24)) for i in range(16)]
        }
        # outer bindings, a negated scan and the aggregate witness all
        # reach across every op
        mixed = chain[:16] + ["!superstep(X, I0)", "value(X, E, I0 + 20)"]
        out = derive(f"deep(X, I0, count(E)) :- {', '.join(mixed)}.", facts)
        assert out == {
            "deep": [(0, i, 1) for i in range(20) if i not in (3, 5)]
        }
        body = ", ".join(f"value(X, D{i}, I{i})" for i in range(120))
        assert derive(f"deep(X) :- {body}.", {"value": [(0, 1.0, 1)]}) == {
            "deep": [(0,)]}


# -- no user-controlled text becomes code ----------------------------------
HOSTILE = [
    "it's",
    'say "hi"',
    "line\nbreak",
    "__import__('os').system('true')",
    "'); import os; ('",
]


@pytest.fixture
def no_codegen(monkeypatch):
    """Fail any ``compile`` / ``exec`` / ``eval`` of source text."""
    def refuse(*args, **kwargs):
        raise AssertionError("lowering compiled source text")

    for name in ("compile", "exec", "eval"):
        monkeypatch.setattr(builtins, name, refuse)


class TestNoUserText:
    SRC = (
        "tag(X, M, I) :- receive_message(X, Y, M, I), M = $p."
        "tagged(X, count(I)) :- tag(X, M, I), M != $q."
        "other(X, I) :- superstep(X, I), !tag(X, $p, I), elem($r, 0) = $p."
    )

    @pytest.mark.parametrize("text", HOSTILE)
    def test_constants_and_params_stay_in_the_constants_tuple(self, text,
                                                             no_codegen):
        """Constants and parameters are values held by the compiled terms;
        lowering and running a program compiles no source."""
        rules, funcs = rules_of(self.SRC, p=text, q=text + "x", r=(text,))
        for crule in rules:
            for mode in (MODE_ANCHORED, MODE_LOCATED):
                for line in layer_program(crule, mode).describe():
                    assert text not in line
        # ... and the constants still do their job
        db = DictDB({
            "receive_message": [(0, 1, text, 1), (0, 2, "benign", 1)],
            "superstep": [(0, 1), (0, 2)],
        }, {c.head_predicate for c in rules})
        for crule in rules:
            evaluate_rule(crule, MODE_LOCATED, db, funcs, [0])
        assert sorted(db.derived.rows("tag")) == [(0, text, 1)]
        assert sorted(db.derived.rows("tagged")) == [(0, 1)]
        assert sorted(db.derived.rows("other")) == [(0, 2)]

    def test_hand_built_constants(self, no_codegen):
        """Constants that never went through the lexer (API callers)."""
        rules, funcs = rules_of("s(X, I) :- superstep(X, I).")
        crule = rules[0]
        scan = crule.located_plan.steps[0]
        for text in HOSTILE:
            hostile = dataclasses.replace(
                scan, relation=text,
                arg_ops=scan.arg_ops[:1] + ((CHECK_TERM, Const(text)),),
            )
            crule = dataclasses.replace(
                crule, layer_programs={},
                located_plan=RulePlan((hostile,), ("X",)),
                head_args=(Var("X"), Const(text)),
            )
            db = DictDB({text: [(0, text), (0, "other")]})
            evaluate_rule(crule, MODE_LOCATED, db, funcs, [0])
            assert sorted(db.derived.rows("s")) == [(0, text)]

    def test_same_shape_same_source(self):
        """The lowering depends on the plan's shape only: constants are
        values, never part of the program's structure."""
        a, _ = rules_of("s(X, I) :- superstep(X, I), I > $n.", n=1)
        b, _ = rules_of("s(X, I) :- superstep(X, I), I > $n.", n=10 ** 9)
        assert (layer_program(a[0], MODE_ANCHORED).describe()
                == layer_program(b[0], MODE_ANCHORED).describe())
