"""Plan compiler: one straight-line Python function per (rule, mode).

:func:`compile_rule` lowers a :class:`~repro.pql.plan.RulePlan` plus the
rule head into nested ``for`` loops that enumerate solutions depth-first in
plan order, with PQL variables as function locals. The function is called
as ``fn(db, functions, site, anchor_time)`` and returns the list of head
rows — for aggregate heads, one ``(group key, aggregated values)`` pair per
distinct witness.

Generated source never contains user-controlled text (``repro serve``
compiles PQL sent by HTTP clients): identifiers come from the generator's
counters, operators from the tables below, and every constant, relation
name and function name is read from the closed-over tuple
``K``. The source is registered in ``linecache`` (tracebacks through a
generated frame show its lines) for as long as the function is alive.
"""

from __future__ import annotations

import itertools
import linecache
import weakref
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import PQLError, PQLSemanticError
from repro.pql.ast import Aggregate, BinOp, Const, FuncCall, Param, Var
from repro.pql.plan import (
    ANY,
    CHECK_TERM,
    CHECK_VAR,
    CallStep,
    CompareStep,
    CompiledRule,
    RulePlan,
    ScanStep,
)

_ARITHMETIC = {"+": "+", "-": "-", "*": "*", "/": "/"}
_COMPARISON = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
#: CPython caps statically nested blocks at 20 per function: after this many
#: scan loops the rest of the plan continues in a nested closure.
_SCANS_PER_FUNCTION = 16
_serial = itertools.count(1)

Scope = Dict[str, str]  # PQL variable name -> generated local name


def _tuple_of(parts: List[str]) -> str:
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


def _local(scope: Scope, name: str) -> str:
    if name not in scope:
        raise PQLError(f"internal: variable {name} unbound at evaluation")
    return scope[name]


class _Generator:
    def __init__(self, crule: CompiledRule, plan: RulePlan) -> None:
        self.crule = crule
        self.steps = plan.steps
        self.lines: List[str] = []
        self.consts: List[Any] = []
        self.slots = 0
        self.scans = 0

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def const(self, value: Any) -> str:
        self.consts.append(value)
        return f"K[{len(self.consts) - 1}]"

    def slot(self) -> str:
        self.slots += 1
        return f"v{self.slots}"

    def term(self, term: Any, scope: Scope) -> str:
        if isinstance(term, Var):
            return _local(scope, term.name)
        if isinstance(term, Const):
            return self.const(term.value)
        if isinstance(term, BinOp):
            if term.op not in _ARITHMETIC:
                raise PQLError(f"unknown operator {term.op!r}")
            return (f"({self.term(term.left, scope)} {_ARITHMETIC[term.op]} "
                    f"{self.term(term.right, scope)})")
        if isinstance(term, FuncCall):
            return self.call(term.name, term.args, scope)
        if isinstance(term, Param):
            raise PQLSemanticError(f"unbound parameter ${term.name}")
        raise PQLError(f"cannot evaluate term {term!r}")

    def call(self, name: str, args: Tuple[Any, ...], scope: Scope) -> str:
        # Looked up per call, like the registry lookup it replaces: an
        # unknown function only errors on a branch that reaches it.
        rendered = ", ".join(self.term(a, scope) for a in args)
        return f"F.get({self.const(name)})({rendered})"

    def test(self, step: Any, scope: Scope, depth: int, fail: str) -> None:
        """A pure filter step: run ``fail`` unless it holds."""
        if isinstance(step, CallStep):
            self.emit(depth, f"if bool({self.call(step.func, step.args, scope)})"
                             f" == {bool(step.negated)}:")
        elif step.op not in _COMPARISON:
            raise PQLError(f"unknown comparison {step.op!r}")
        else:
            # Operands are evaluated outside the try: only the comparison
            # itself treats a TypeError (mixed types) as "false".
            self.emit(depth, f"a = {self.term(step.left, scope)}")
            self.emit(depth, f"b = {self.term(step.right, scope)}")
            self.emit(depth, "try:")
            self.emit(depth + 1, f"ok = a {_COMPARISON[step.op]} b")
            self.emit(depth, "except TypeError:")
            self.emit(depth + 1, "ok = False")
            self.emit(depth, "if not ok:")
        self.emit(depth + 1, fail)

    def scan(self, step: ScanStep, k: int, scope: Scope, depth: int,
             fail: str) -> None:
        self.scans += 1
        row = f"r{self.scans}"
        # Values known before the loop: CHECK_TERMs (evaluated here, once
        # per scan invocation) and CHECK_VARs of earlier bindings.
        known: Dict[int, str] = {}
        mismatch = [f"len({row}) != {len(step.arg_ops)}"]
        first: Dict[str, int] = {}  # variables this atom binds -> position
        inner = dict(scope)
        binds: List[str] = []
        for pos, (op, payload) in enumerate(step.arg_ops):
            if op == ANY:
                continue
            cell = f"{row}[{pos}]"
            if op == CHECK_TERM:
                known[pos] = f"c{self.scans}_{pos}"
                self.emit(depth, f"{known[pos]} = {self.term(payload, scope)}")
                mismatch.append(f"{cell} != {known[pos]}")
            elif payload in first:  # repeated inside this atom
                mismatch.append(f"{row}[{first[payload]}] != {cell}")
            elif op == CHECK_VAR:
                known[pos] = _local(scope, payload)
                mismatch.append(f"{known[pos]} != {cell}")
            else:  # BIND
                first[payload] = pos
                inner[payload] = self.slot()
                binds.append(f"{inner[payload]} = {cell}")
        relation = self.const(step.relation)
        if 0 not in known:  # unlocated: setup / oracle mode only
            rows = f"db.all_rows({relation})"
        else:
            timed = step.time_bound and step.time_arg is not None
            time = known[step.time_arg] if timed else "None"
            rows = f"db.candidates({relation}, {known[0]}, {time})"
        # Candidates only narrow: every row is still matched in full.
        self.emit(depth, f"for {row} in {rows}:")
        self.emit(depth + 1, f"if {' or '.join(mismatch)}:")
        self.emit(depth + 2, "continue")
        if step.negated:
            # anti-join: the rest of the plan runs iff no row matched
            self.emit(depth + 1, "break")
            self.emit(depth, "else:")
            self.body(k + 1, scope, depth + 1, fail)
            return
        for line in binds:
            self.emit(depth + 1, line)
        if step.exists:
            # semi-join: the first row passing the absorbed filters settles
            # the branch; its bindings stay out of the outer scope
            for post in step.post_filters:
                self.test(post, inner, depth + 1, "continue")
            self.body(k + 1, scope, depth + 1, "break")
            self.emit(depth + 1, "break")
        else:
            self.body(k + 1, inner, depth + 1, "continue")

    def body(self, k: int, scope: Scope, depth: int, fail: str) -> None:
        """Steps ``k..`` then the head; ``fail`` abandons this branch."""
        for k in range(k, len(self.steps)):
            step = self.steps[k]
            if isinstance(step, ScanStep):
                if self.scans and self.scans % _SCANS_PER_FUNCTION == 0:
                    # a closure over the locals; a failed branch returns
                    tail = f"g{self.scans}"
                    self.emit(depth, f"def {tail}():")
                    self.scan(step, k, scope, depth + 1, "return")
                    self.emit(depth, f"{tail}()")
                else:
                    self.scan(step, k, scope, depth, fail)
                return
            if isinstance(step, CompareStep) and step.bind_var is not None:
                expr = step.right if step.bind_from_left else step.left
                value = self.term(expr, scope)
                scope = {**scope, step.bind_var: self.slot()}
                self.emit(depth, f"{scope[step.bind_var]} = {value}")
            elif isinstance(step, (CompareStep, CallStep)):
                self.test(step, scope, depth, fail)
            else:  # pragma: no cover - plan construction guarantees types
                raise PQLError(f"unknown plan step {step!r}")
        head_args = self.crule.head_args
        if not self.crule.is_aggregate:
            row = _tuple_of([self.term(arg, scope) for arg in head_args])
            self.emit(depth, f"out.append({row})")
            return
        # Distinct witnesses only; a variable projected away by a semi-join
        # reads as None, which is all the dedup key needs.
        witness = _tuple_of([scope.get(v, "None") for v in self.crule.body_vars])
        self.emit(depth, f"w = {witness}")
        self.emit(depth, "if w not in seen:")
        self.emit(depth + 1, "seen.add(w)")
        group = _tuple_of([self.term(arg, scope) for arg in head_args
                           if not isinstance(arg, Aggregate)])
        values = _tuple_of([self.term(arg.term, scope) for arg in head_args
                            if isinstance(arg, Aggregate)])
        self.emit(depth + 1, f"out.append(({group}, {values}))")

    def source(self, prebound: Tuple[str, ...]) -> str:
        crule = self.crule
        scope: Scope = {}
        prologue = ["out = []", "seen = set()"] if crule.is_aggregate else ["out = []"]
        for name in prebound:
            if name not in (crule.loc_var, crule.time_var):
                raise PQLError(f"internal: cannot pre-bind variable {name}")
            scope[name] = self.slot()
            prologue.append(
                f"{scope[name]} = {'site' if name == crule.loc_var else 't'}"
            )
        self.body(0, scope, 2, "return out")
        return "\n".join(
            ["def _make(K):", "    def rule(db, F, site, t):"]
            + ["        " + line for line in prologue]
            + self.lines
            + ["        return out", "    return rule", ""]
        )


def compile_rule(crule: CompiledRule, plan: RulePlan) -> Callable[..., List[Any]]:
    """Build the generated function for ``plan``; ``fn.source`` keeps its
    text (``repro explain --verbose``)."""
    generator = _Generator(crule, plan)
    source = generator.source(plan.prebound)
    filename = f"<pql-codegen {next(_serial)}>"
    try:
        code = compile(source, filename, "exec")
    except SyntaxError as exc:  # the tokenizer stops at 100 indent levels
        raise PQLSemanticError(
            f"rule body nests too deeply to compile ({exc.msg}): {crule.rule}"
        ) from None
    namespace: Dict[str, Any] = {}
    exec(code, namespace)  # noqa: S102 - the source holds no user text
    fn = namespace["_make"](tuple(generator.consts))
    fn.source = source
    linecache.cache[filename] = len(source), None, source.splitlines(True), filename
    weakref.finalize(fn, linecache.cache.pop, filename, None)
    return fn
