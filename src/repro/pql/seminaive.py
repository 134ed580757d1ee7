"""A standalone semi-naive Datalog evaluator.

This module is deliberately *independent* of the plan-based evaluator in
:mod:`repro.pql.eval`: it interprets rule ASTs directly, centrally (no
location semantics — the location specifier is just the first attribute),
with textbook stratified semi-naive iteration (Bancilhon & Ramakrishnan,
the paper's [4]): each iteration joins the previous iteration's *delta*
facts at one body occurrence at a time, so stable facts are never re-joined.

It serves two purposes:

* a second implementation for differential testing — the distributed
  online/layered/naive evaluators must agree with it on every query;
* the baseline for the semi-naive-vs-naive ablation benchmark.

Supported: positive/negated atoms, comparisons (with `=` binding),
boolean function calls, anonymous variables, non-recursive aggregates —
the same fragment the main compiler accepts.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import PQLSemanticError
from repro.pql.analysis import _stratify  # shared stratification
from repro.pql.ast import (
    Aggregate,
    Atom,
    AtomLiteral,
    BoolCall,
    Comparison,
    Const,
    FuncCall,
    Literal,
    Program,
    Rule,
    Var,
    term_vars,
)
from repro.pql.eval import _compare, eval_term
from repro.pql.udf import FunctionRegistry

Row = Tuple[Any, ...]
Facts = Dict[str, Set[Row]]
Env = Dict[str, Any]

ANONYMOUS = "_"

_MISSING = object()

#: Shared immutable empty relation for lookup misses.
_EMPTY_ROWS: frozenset = frozenset()


def _match_atom(atom: Atom, row: Row, env: Env,
                functions: FunctionRegistry) -> Optional[Env]:
    if len(row) != atom.arity:
        return None
    out = env
    for term, value in zip(atom.args, row):
        if isinstance(term, Var):
            if term.name == ANONYMOUS:
                continue
            bound = out.get(term.name, _MISSING)
            if bound is _MISSING:
                if out is env:
                    out = dict(env)
                out[term.name] = value
            elif bound != value:
                return None
        else:
            try:
                if eval_term(term, out, functions) != value:
                    return None
            except Exception:
                return None
    return out


class _PreparedLiteral:
    """Per-literal metadata computed once per rule, not per candidate row.

    The previous implementation rebuilt variable-name sets (and a
    ``set(env)`` copy) inside :func:`_literal_ready` for every literal on
    every partial solution; the sets only depend on the literal, so they
    are hoisted here and readiness becomes subset tests against
    ``env.keys()`` (a zero-copy set-like view).
    """

    __slots__ = ("lit", "names", "is_positive", "is_test", "eq_binds")

    def __init__(self, lit: Literal) -> None:
        self.lit = lit
        self.names = frozenset(
            v.name for v in lit.variables() if v.name != ANONYMOUS
        )
        self.is_positive = isinstance(lit, AtomLiteral) and not lit.negated
        self.is_test = not self.is_positive
        # For `=` comparisons: sides that may *bind* a variable, with the
        # opposite term and its (precomputed) variable names.
        eq: List[Tuple[str, Any, frozenset]] = []
        if isinstance(lit, Comparison) and lit.op == "=":
            for side, other in ((lit.left, lit.right), (lit.right, lit.left)):
                if isinstance(side, Var) and side.name != ANONYMOUS:
                    eq.append((
                        side.name,
                        other,
                        frozenset(
                            v.name for v in term_vars(other)
                            if v.name != ANONYMOUS
                        ),
                    ))
        self.eq_binds = tuple(eq)


def _prepare_body(rule: Rule) -> List[_PreparedLiteral]:
    return [_PreparedLiteral(lit) for lit in rule.body]


def _literal_ready(plit: _PreparedLiteral, env: Env) -> bool:
    """Can this literal be evaluated as a filter under ``env``?"""
    if plit.is_positive:
        return True  # positive atoms always evaluable (they bind)
    for name, _other, other_names in plit.eq_binds:
        if name not in env and other_names <= env.keys():
            return True  # may bind one side
    return plit.names <= env.keys()


class _EvalContext:
    """Shared evaluation state: fact sets, functions, and per-(relation,
    attribute) hash indexes, built on first use and rebuilt whenever the
    relation's size changed behind them (:meth:`add` keeps them current)."""

    __slots__ = ("facts", "functions", "_index")

    def __init__(self, facts: Facts, functions: FunctionRegistry) -> None:
        self.facts = facts
        self.functions = functions
        # (relation, attribute) -> (size when built, value -> rows)
        self._index: Dict[Tuple[str, int],
                          Tuple[int, Dict[Any, List[Row]]]] = {}

    def candidates(self, atom: Atom, env: Env) -> Iterable[Row]:
        """The rows of ``atom``'s relation that can match under ``env``:
        those holding the value of its first bound attribute, or all."""
        rows = self.facts.get(atom.predicate, _EMPTY_ROWS)
        for pos, term in enumerate(atom.args):
            if isinstance(term, Const):
                value = term.value
            elif isinstance(term, Var):
                value = env.get(term.name, _MISSING)
                if value is _MISSING:
                    continue
            else:
                continue
            key = (atom.predicate, pos)
            built = self._index.get(key)
            # only head relations (plain sets) grow; a read-only view of
            # the store is indexed once
            if built is None or (type(rows) is set and built[0] != len(rows)):
                by_value: Dict[Any, List[Row]] = {}
                for row in rows:
                    if len(row) > pos:
                        by_value.setdefault(row[pos], []).append(row)
                built = self._index[key] = (
                    len(rows) if type(rows) is set else -1, by_value)
            try:
                return built[1].get(value, ())
            except TypeError:  # an unhashable value matches by equality
                return rows
        return rows

    def add(self, predicate: str, fresh: Set[Row]) -> None:
        """Insert new facts, keeping the relation's indexes current."""
        rows = self.facts.setdefault(predicate, set())
        rows |= fresh
        for (relation, pos), (_size, by_value) in list(self._index.items()):
            if relation == predicate:
                for row in fresh:
                    if len(row) > pos:
                        by_value.setdefault(row[pos], []).append(row)
                self._index[relation, pos] = (len(rows), by_value)


def _solutions(
    body: Sequence[_PreparedLiteral],
    env: Env,
    ctx: _EvalContext,
    delta_at: Optional[int],
    delta: Optional[Facts],
) -> Iterator[Env]:
    """All satisfying valuations; literal at index ``delta_at`` (if any)
    reads the delta relation instead of the full one."""
    if not body:
        yield env
        return
    # choose the next evaluable literal: prefer ready filters, then the
    # delta occurrence (deltas are the smallest relation in a semi-naive
    # round, so driving the join from them minimizes re-scans of stable
    # facts — the same ordering the vectorized batch kernels use for
    # their delta joins), else the first positive atom
    index = None
    for i, plit in enumerate(body):
        if plit.is_test and _literal_ready(plit, env):
            index = i
            break
    if index is None and delta_at is not None and body[delta_at].is_positive:
        index = delta_at
    if index is None:
        for i, plit in enumerate(body):
            if plit.is_positive:
                index = i
                break
    if index is None:
        raise PQLSemanticError(
            f"cannot order body literals: {[p.lit for p in body]}"
        )
    plit = body[index]
    lit = plit.lit
    rest = list(body[:index]) + list(body[index + 1:])
    # shift the delta marker to follow its literal
    rest_delta: Optional[int] = None
    if delta_at is not None and delta_at != index:
        rest_delta = delta_at - 1 if delta_at > index else delta_at

    if isinstance(lit, AtomLiteral):
        if lit.negated:
            for row in ctx.candidates(lit.atom, env):
                if _match_atom(lit.atom, row, env, ctx.functions) is not None:
                    return
            yield from _solutions(rest, env, ctx, rest_delta, delta)
        else:
            if delta_at == index and delta is not None:
                rows: Iterable[Row] = delta.get(lit.atom.predicate,
                                                _EMPTY_ROWS)
            else:
                rows = ctx.candidates(lit.atom, env)
            for row in rows:
                extended = _match_atom(lit.atom, row, env, ctx.functions)
                if extended is not None:
                    yield from _solutions(rest, extended, ctx,
                                          rest_delta, delta)
    elif isinstance(lit, Comparison):
        if lit.op == "=":
            for name, other, other_names in plit.eq_binds:
                if name not in env and other_names <= env.keys():
                    extended = dict(env)
                    extended[name] = eval_term(other, env, ctx.functions)
                    yield from _solutions(rest, extended, ctx,
                                          rest_delta, delta)
                    return
        left = eval_term(lit.left, env, ctx.functions)
        right = eval_term(lit.right, env, ctx.functions)
        if _compare(lit.op, left, right):
            yield from _solutions(rest, env, ctx, rest_delta, delta)
    else:  # BoolCall
        fn = ctx.functions.get(lit.call.name)
        args = [eval_term(a, env, ctx.functions) for a in lit.call.args]
        if bool(fn(*args)) != lit.negated:
            yield from _solutions(rest, env, ctx, rest_delta, delta)


def _derive(
    rule: Rule,
    body: Sequence[_PreparedLiteral],
    ctx: _EvalContext,
    delta_at: Optional[int] = None,
    delta: Optional[Facts] = None,
) -> Set[Row]:
    if rule.head.has_aggregates():
        return _derive_aggregate(rule, body, ctx)
    out: Set[Row] = set()
    for env in _solutions(body, {}, ctx, delta_at, delta):
        out.add(
            tuple(eval_term(a, env, ctx.functions) for a in rule.head.args)
        )
    return out


def _derive_aggregate(rule: Rule, body: Sequence[_PreparedLiteral],
                      ctx: _EvalContext) -> Set[Row]:
    functions = ctx.functions
    body_vars = sorted({
        v.name for v in rule.variables() if v.name != ANONYMOUS
    })
    seen: Set[Row] = set()
    groups: Dict[Row, List[List[Any]]] = {}
    agg_args = [a for a in rule.head.args if isinstance(a, Aggregate)]
    group_args = [a for a in rule.head.args if not isinstance(a, Aggregate)]
    for env in _solutions(body, {}, ctx, None, None):
        witness = tuple(env.get(v) for v in body_vars)
        if witness in seen:
            continue
        seen.add(witness)
        key = tuple(eval_term(a, env, functions) for a in group_args)
        accs = groups.setdefault(
            key, [[0, 0, None, None] for _ in agg_args]
        )
        for acc, agg in zip(accs, agg_args):
            value = eval_term(agg.term, env, functions)
            acc[0] += 1
            if agg.func in ("sum", "avg"):
                acc[1] += value
            if acc[2] is None or value < acc[2]:
                acc[2] = value
            if acc[3] is None or value > acc[3]:
                acc[3] = value
    rows: Set[Row] = set()
    for key, accs in groups.items():
        key_iter = iter(key)
        acc_iter = iter(zip(accs, agg_args))
        values: List[Any] = []
        for arg in rule.head.args:
            if isinstance(arg, Aggregate):
                acc, agg = next(acc_iter)
                values.append({
                    "count": acc[0],
                    "sum": acc[1],
                    "min": acc[2],
                    "max": acc[3],
                    "avg": (acc[1] / acc[0]) if acc[0] else None,
                }[agg.func])
            else:
                values.append(next(key_iter))
        rows.add(tuple(values))
    return rows


def _resolve_functions(
    program: Program, relations: Set[str], functions: FunctionRegistry
) -> Program:
    """Atoms naming registered functions become boolean-call literals
    (mirrors the main compiler's resolution step)."""

    def resolve(lit: Literal) -> Literal:
        if (
            isinstance(lit, AtomLiteral)
            and lit.atom.predicate not in relations
            and lit.atom.predicate in functions
        ):
            return BoolCall(
                FuncCall(lit.atom.predicate, lit.atom.args), lit.negated
            )
        return lit

    return Program(
        tuple(
            Rule(rule.head, tuple(resolve(l) for l in rule.body))
            for rule in program.rules
        ),
        source=program.source,
    )


def evaluate_seminaive(
    program: Program,
    edb: Dict[str, Iterable[Row]],
    functions: Optional[FunctionRegistry] = None,
    naive: bool = False,
) -> Facts:
    """Evaluate a bound PQL program over plain fact sets.

    ``edb`` maps relation names to rows. Returns all facts (EDB + derived).
    With ``naive=True`` the delta optimization is disabled (every iteration
    re-derives from scratch) — the ablation baseline.

    EDB relations passed as set-like views (see
    :func:`store_to_facts` with ``readonly=True``) are consumed in place —
    never copied and never mutated. Head-predicate relations and plain
    iterables are copied into fresh sets as before.
    """
    functions = functions or FunctionRegistry()
    head_preds = {rule.head.predicate for rule in program.rules}
    facts: Facts = {}
    for rel, rows in edb.items():
        if (
            rel not in head_preds
            and isinstance(rows, AbstractSet)
            and not isinstance(rows, set)
        ):
            # Read-only set view (frozenset / store view): evaluation only
            # ever mutates head-predicate relations, so reuse it in place.
            facts[rel] = rows  # type: ignore[assignment]
        else:
            facts[rel] = set(rows)
    program = _resolve_functions(program, set(facts) | head_preds, functions)
    strata_of = _stratify(program, head_preds)
    max_stratum = max(strata_of.values(), default=0)
    ctx = _EvalContext(facts, functions)

    for level in range(max_stratum + 1):
        rules = [
            r for r in program.rules if strata_of[r.head.predicate] == level
        ]
        if not rules:
            continue
        recursive_preds = {
            r.head.predicate for r in rules
        }
        # per-literal metadata (bound-name sets, `=` binding sides) is
        # computed once per stratum, not per candidate row
        bodies = {id(r): _prepare_body(r) for r in rules}
        # initial round: full naive derivation of this stratum
        delta: Facts = {}
        for rule in rules:
            new = _derive(rule, bodies[id(rule)], ctx)
            fresh = new - facts.get(rule.head.predicate, _EMPTY_ROWS)
            ctx.add(rule.head.predicate, fresh)
            delta.setdefault(rule.head.predicate, set()).update(fresh)
        # iterate
        while any(delta.values()):
            next_delta: Facts = {}
            for rule in rules:
                body = bodies[id(rule)]
                if naive:
                    candidate_rows = _derive(rule, body, ctx)
                else:
                    candidate_rows = set()
                    for i, plit in enumerate(body):
                        if (
                            plit.is_positive
                            and plit.lit.atom.predicate in recursive_preds
                        ):
                            candidate_rows |= _derive(
                                rule, body, ctx, delta_at=i, delta=delta,
                            )
                fresh = candidate_rows - facts.get(rule.head.predicate,
                                                   _EMPTY_ROWS)
                ctx.add(rule.head.predicate, fresh)
                if fresh:
                    next_delta.setdefault(
                        rule.head.predicate, set()
                    ).update(fresh)
            delta = next_delta
    return facts


class _ReadOnlyRows(AbstractSet):
    """Base for zero-copy relation views; set algebra (``&``, ``|``, …)
    falls back to materialized plain sets."""

    __slots__ = ()

    @classmethod
    def _from_iterable(cls, iterable: Iterable[Row]) -> Set[Row]:
        return set(iterable)


class _StoreRelationView(_ReadOnlyRows):
    """All rows of one relation across a store's vertex partitions,
    exposed as a set without flattening them into one."""

    __slots__ = ("_store", "_relation")

    def __init__(self, store: Any, relation: str) -> None:
        self._store = store
        self._relation = relation

    def __iter__(self) -> Iterator[Row]:
        return self._store.rows(self._relation)

    def __len__(self) -> int:
        return sum(
            len(self._store.partition(self._relation, vertex))
            for vertex in self._store.vertices(self._relation)
        )

    def __contains__(self, row: Any) -> bool:
        try:
            schema = self._store.registry.get(self._relation)
            vertex = schema.location_of(row)
        except Exception:
            return False
        return row in self._store.partition(self._relation, vertex)


class _GraphVerticesView(_ReadOnlyRows):
    """The virtual ``vertex`` relation as 1-tuples over a live graph."""

    __slots__ = ("_graph",)

    def __init__(self, graph: Any) -> None:
        self._graph = graph

    def __iter__(self) -> Iterator[Row]:
        return ((v,) for v in self._graph.vertices())

    def __len__(self) -> int:
        return self._graph.num_vertices

    def __contains__(self, row: Any) -> bool:
        return (
            isinstance(row, tuple) and len(row) == 1
            and row[0] in self._graph
        )


class _GraphEdgesView(_ReadOnlyRows):
    """The virtual ``edge`` relation as 2-tuples over a live graph."""

    __slots__ = ("_graph",)

    def __init__(self, graph: Any) -> None:
        self._graph = graph

    def __iter__(self) -> Iterator[Row]:
        return ((u, v) for u, v, _w in self._graph.edges())

    def __len__(self) -> int:
        return self._graph.num_edges

    def __contains__(self, row: Any) -> bool:
        return (
            isinstance(row, tuple) and len(row) == 2
            and row[0] in self._graph
            and self._graph.has_edge(row[0], row[1])
        )


def store_to_facts(
    store: Any, graph: Any = None, readonly: bool = False
) -> Dict[str, Set[Row]]:
    """Flatten a provenance store (plus optional input graph) into the
    plain fact sets this evaluator consumes.

    The default copies every row — safe, but it duplicates the whole
    capture in memory just to query it. With ``readonly=True`` nothing is
    copied: each relation is a zero-copy set view over the live store and
    graph. Views are safe as long as the caller treats them as read-only
    and the store is not mutated while a query runs;
    :func:`evaluate_seminaive` honors that contract (it never mutates
    non-head relations).
    """
    if readonly:
        facts: Dict[str, Set[Row]] = {
            relation: _StoreRelationView(store, relation)
            for relation in store.relations()
        }
        if graph is not None:
            facts["vertex"] = _GraphVerticesView(graph)
            facts["edge"] = _GraphEdgesView(graph)
        return facts
    facts = {
        relation: set(store.rows(relation)) for relation in store.relations()
    }
    if graph is not None:
        facts["vertex"] = {(v,) for v in graph.vertices()}
        facts["edge"] = {(u, v) for u, v, _w in graph.edges()}
    return facts
