"""Abstract syntax tree of PQL (the paper's Datalog-based query language).

A PQL *program* is a list of rules ``head :- body.`` where the body is a
conjunction of literals:

* positive or negated relational atoms whose first term is the location
  specifier (Section 4.2),
* comparison predicates ``t1 op t2`` over arithmetic expressions,
* boolean function calls (built-in or user-defined, e.g. ``udf_diff``).

Terms are variables (capitalized identifiers), constants, ``$parameters``
bound at query instantiation, arithmetic expressions and function calls.
Head arguments may additionally be aggregate terms ``count(Y)`` / ``sum(E)``
/ ``min`` / ``max`` / ``avg``.

All nodes are frozen dataclasses so ASTs can live in sets/dicts and be
compared structurally in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, Tuple, Union

from repro.errors import PQLSemanticError

AGGREGATE_FUNCS = ("count", "sum", "min", "max", "avg")
COMPARISON_OPS = ("=", "==", "!=", "<", "<=", ">", ">=")


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    value: Any

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Param:
    """A ``$name`` placeholder substituted by :meth:`Program.bind`."""

    name: str

    def __str__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class FuncCall:
    name: str
    args: Tuple["Term", ...]

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: "Term"
    right: "Term"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Aggregate:
    """Aggregate head term, e.g. ``count(Y)`` or ``sum(E)``."""

    func: str
    term: "Term"

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCS:
            raise PQLSemanticError(f"unknown aggregate function {self.func!r}")

    def __str__(self) -> str:
        return f"{self.func}({self.term})"


Term = Union[Var, Const, Param, FuncCall, BinOp]
HeadTerm = Union[Var, Const, Param, FuncCall, BinOp, Aggregate]


def term_vars(term: Union[Term, Aggregate]) -> Iterator[Var]:
    """All variables occurring in a term (depth-first)."""
    if isinstance(term, Var):
        yield term
    elif isinstance(term, FuncCall):
        for arg in term.args:
            yield from term_vars(arg)
    elif isinstance(term, BinOp):
        yield from term_vars(term.left)
        yield from term_vars(term.right)
    elif isinstance(term, Aggregate):
        yield from term_vars(term.term)


def substitute_params(term: Union[Term, Aggregate], params: Dict[str, Any]):
    """Replace :class:`Param` nodes by constants (recursively)."""
    if isinstance(term, Param):
        if term.name not in params:
            raise PQLSemanticError(f"unbound parameter ${term.name}")
        return Const(params[term.name])
    if isinstance(term, FuncCall):
        return FuncCall(
            term.name, tuple(substitute_params(a, params) for a in term.args)
        )
    if isinstance(term, BinOp):
        return BinOp(
            term.op,
            substitute_params(term.left, params),
            substitute_params(term.right, params),
        )
    if isinstance(term, Aggregate):
        return Aggregate(term.func, substitute_params(term.term, params))
    return term


def term_params(term: Union[Term, Aggregate]) -> Iterator[str]:
    if isinstance(term, Param):
        yield term.name
    elif isinstance(term, FuncCall):
        for arg in term.args:
            yield from term_params(arg)
    elif isinstance(term, BinOp):
        yield from term_params(term.left)
        yield from term_params(term.right)
    elif isinstance(term, Aggregate):
        yield from term_params(term.term)


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Atom:
    """A relational atom ``pred(t1, ..., tn)``; arg 0 is the location."""

    predicate: str
    args: Tuple[HeadTerm, ...]

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> Iterator[Var]:
        for arg in self.args:
            yield from term_vars(arg)

    def has_aggregates(self) -> bool:
        return any(isinstance(a, Aggregate) for a in self.args)

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class AtomLiteral:
    atom: Atom
    negated: bool = False

    def variables(self) -> Iterator[Var]:
        return self.atom.variables()

    def __str__(self) -> str:
        return ("!" if self.negated else "") + str(self.atom)


@dataclass(frozen=True)
class Comparison:
    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise PQLSemanticError(f"unknown comparison operator {self.op!r}")

    def variables(self) -> Iterator[Var]:
        yield from term_vars(self.left)
        yield from term_vars(self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class BoolCall:
    """A boolean function call used as a body literal, e.g. udf_diff(...)."""

    call: FuncCall
    negated: bool = False

    def variables(self) -> Iterator[Var]:
        return term_vars(self.call)

    def __str__(self) -> str:
        return ("!" if self.negated else "") + str(self.call)


Literal = Union[AtomLiteral, Comparison, BoolCall]


# ---------------------------------------------------------------------------
# rules and programs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Rule:
    head: Atom
    body: Tuple[Literal, ...]

    @property
    def is_fact(self) -> bool:
        return not self.body

    def positive_atoms(self) -> Iterator[Atom]:
        for lit in self.body:
            if isinstance(lit, AtomLiteral) and not lit.negated:
                yield lit.atom

    def body_predicates(self) -> FrozenSet[str]:
        return frozenset(
            lit.atom.predicate for lit in self.body if isinstance(lit, AtomLiteral)
        )

    def variables(self) -> Iterator[Var]:
        yield from self.head.variables()
        for lit in self.body:
            yield from lit.variables()

    def __str__(self) -> str:
        if self.is_fact:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(map(str, self.body))}."


@dataclass(frozen=True)
class Program:
    """A parsed PQL query: an ordered collection of rules."""

    rules: Tuple[Rule, ...]
    source: str = field(default="", compare=False)

    def head_predicates(self) -> FrozenSet[str]:
        return frozenset(rule.head.predicate for rule in self.rules)

    def body_predicates(self) -> FrozenSet[str]:
        preds: set = set()
        for rule in self.rules:
            preds.update(rule.body_predicates())
        return frozenset(preds)

    def parameters(self) -> FrozenSet[str]:
        names: set = set()
        for rule in self.rules:
            for arg in rule.head.args:
                names.update(term_params(arg))
            for lit in rule.body:
                if isinstance(lit, AtomLiteral):
                    for arg in lit.atom.args:
                        names.update(term_params(arg))
                elif isinstance(lit, Comparison):
                    names.update(term_params(lit.left))
                    names.update(term_params(lit.right))
                else:
                    names.update(term_params(lit.call))
        return frozenset(names)

    def bind(self, **params: Any) -> "Program":
        """Return a copy with ``$name`` parameters replaced by constants."""
        missing = self.parameters() - set(params)
        if missing:
            raise PQLSemanticError(
                f"unbound parameters: {', '.join(sorted(missing))}"
            )

        def sub_literal(lit: Literal) -> Literal:
            if isinstance(lit, AtomLiteral):
                atom = Atom(
                    lit.atom.predicate,
                    tuple(substitute_params(a, params) for a in lit.atom.args),
                )
                return AtomLiteral(atom, lit.negated)
            if isinstance(lit, Comparison):
                return Comparison(
                    lit.op,
                    substitute_params(lit.left, params),
                    substitute_params(lit.right, params),
                )
            return BoolCall(substitute_params(lit.call, params), lit.negated)

        rules = tuple(
            Rule(
                Atom(
                    rule.head.predicate,
                    tuple(substitute_params(a, params) for a in rule.head.args),
                ),
                tuple(sub_literal(l) for l in rule.body),
            )
            for rule in self.rules
        )
        return Program(rules, source=self.source)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)
