"""Semantic analysis and compilation of PQL programs.

This is Ariadne's query compiler. Given a parsed
:class:`~repro.pql.ast.Program` it:

1. resolves atoms whose name is a registered function into boolean calls;
2. validates arities and head shapes (first head argument = location
   variable, per the paper's location-specifier convention);
3. stratifies the program (stratified negation; aggregates restricted to
   non-recursive strata, per Section 4.2's monotonic-aggregate semantics);
4. infers which attributes of derived relations carry supersteps (for layer
   slicing) and which derived relations are *topological* (edge-shaped, so
   they can guard remote access like Query 12's ``prov_edges``);
5. checks VC-compatibility (Definition 4.1): every remote location variable
   must be guarded by a message/topology predicate co-locating it with the
   head's location;
6. classifies every rule and the whole query as local / forward / backward /
   mixed (Definition 5.2) — forward queries are online-eligible
   (Theorem 5.4), directed queries are layered-eligible (Lemma 5.3);
7. builds join plans with binding propagation for the binding modes a
   rule runs in: anchored and located, or free for a static setup rule;
8. marks the remote scans Theorem 5.4 proves complete online (a sender's
   rows before the anchor) and the rules layered evaluation can hoist out
   of its layer loop (anchor-free, reading no layer's derivations).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import PQLCompatibilityError, PQLSemanticError
from repro.pql.ast import (
    Aggregate,
    Atom,
    AtomLiteral,
    BinOp,
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
from repro.pql.plan import (
    ANY,
    BIND,
    CHECK_TERM,
    CHECK_VAR,
    CallStep,
    CompareStep,
    CompiledRule,
    PlanStep,
    RulePlan,
    ScanStep,
    head_stamps,
)
from repro.pql.udf import FunctionRegistry
from repro.provenance.model import (
    AUTO_CAPTURED,
    CORE_SCHEMAS,
    DERIVED,
    STATIC,
    STREAM,
    TOPO_RECEIVE,
    RelationSchema,
    SchemaRegistry,
)

DIRECTION_LOCAL = "local"
DIRECTION_FORWARD = "forward"
DIRECTION_BACKWARD = "backward"
DIRECTION_MIXED = "mixed"

ANONYMOUS = "_"


@dataclass
class CompiledQuery:
    """The output of :func:`compile_query` — everything evaluators need."""

    program: Program
    rules: List[CompiledRule]
    strata: List[List[CompiledRule]]  # non-static rules, by stratum
    static_rules: List[CompiledRule]  # setup rules, in stratum order
    idb_schemas: Dict[str, RelationSchema]
    edb_relations: Set[str]  # every non-IDB relation referenced
    stream_relations: Set[str]  # transient stream relations referenced
    auto_capture: Set[str]  # provenance relations to auto-populate online
    remote_relations: Set[str]  # relations read at remote vertices (shipped)
    direction: str
    head_predicates: Set[str]

    @property
    def compiled_rules(self) -> int:
        """(rule, mode) layer programs built so far (result stats)."""
        return sum(len(crule.layer_programs) for crule in self.rules)

    @property
    def online_eligible(self) -> bool:
        """Forward queries evaluate online alongside the analytic."""
        return self.direction in (DIRECTION_LOCAL, DIRECTION_FORWARD)

    @property
    def layered_eligible(self) -> bool:
        """Directed queries admit layered evaluation (Lemma 5.3)."""
        return self.direction != DIRECTION_MIXED

    @property
    def uses_stream(self) -> bool:
        return bool(self.stream_relations)

    def require_online(self) -> None:
        if not self.online_eligible:
            raise PQLCompatibilityError(
                f"query direction is {self.direction!r}; only local/forward "
                "queries can be evaluated online (Theorem 5.4)"
            )
        for crule in self.rules:
            if crule.time_var is not None and any(
                    lit.atom.predicate == "evolution" and lit.atom.arity > 1
                    and lit.atom.args[1] == Var(crule.time_var)
                    for lit in crule.rule.body
                    if isinstance(lit, AtomLiteral)):
                raise PQLCompatibilityError(
                    "rule is anchored on evolution's earlier superstep, but "
                    "online an evolution(X, J, I) row only exists from the "
                    f"later superstep I on: {crule.rule}")
            if crule.is_static:
                continue
            offsets = _anchor_offsets(crule)
            for atom, term in _timed_atoms(self, crule):
                if isinstance(term, Var) and offsets.get(term.name, 0) < 0:
                    raise PQLCompatibilityError(
                        f"rule reads {atom.predicate} at a superstep after "
                        "its anchor, which online has not run yet when the "
                        f"rule is evaluated: {crule.rule}")

    def require_layered(self) -> None:
        if not self.layered_eligible:
            raise PQLCompatibilityError(
                "mixed-direction queries cannot be evaluated layered "
                "(Section 5.1); use naive evaluation"
            )
        if self.uses_stream:
            raise PQLCompatibilityError(
                "queries over transient stream relations "
                f"({sorted(self.stream_relations)}) only run online"
            )


# ---------------------------------------------------------------------------
# resolution and validation
# ---------------------------------------------------------------------------
def _resolve_literals(
    program: Program,
    registry: SchemaRegistry,
    functions: FunctionRegistry,
    head_preds: Set[str],
) -> Program:
    """Rewrite atoms naming registered functions into BoolCall literals."""

    def resolve(lit: Literal) -> Literal:
        if not isinstance(lit, AtomLiteral):
            return lit
        pred = lit.atom.predicate
        if pred in registry or pred in head_preds:
            return lit
        if pred in functions:
            return BoolCall(FuncCall(pred, lit.atom.args), lit.negated)
        raise PQLSemanticError(
            f"unknown predicate {pred!r} (not a provenance relation, "
            "derived relation, or registered function)"
        )

    rules = tuple(
        Rule(rule.head, tuple(resolve(l) for l in rule.body))
        for rule in program.rules
    )
    return Program(rules, source=program.source)


def _check_heads_and_arities(
    program: Program, registry: SchemaRegistry, head_preds: Set[str]
) -> Dict[str, int]:
    """Validate head shapes and collect/verify arities. Returns IDB arities."""
    arities: Dict[str, int] = {}

    def note_arity(pred: str, arity: int) -> None:
        schema = registry.maybe_get(pred)
        if schema is not None:
            if schema.arity != arity:
                raise PQLSemanticError(
                    f"relation {pred!r} has arity {schema.arity}, used with "
                    f"{arity} arguments"
                )
            return
        seen = arities.get(pred)
        if seen is None:
            arities[pred] = arity
        elif seen != arity:
            raise PQLSemanticError(
                f"derived relation {pred!r} used with inconsistent arities "
                f"{seen} and {arity}"
            )

    for rule in program.rules:
        head = rule.head
        schema = registry.maybe_get(head.predicate)
        if schema is not None and schema.kind in (STATIC, STREAM):
            raise PQLSemanticError(
                f"rule head cannot redefine {schema.kind} relation "
                f"{head.predicate!r}"
            )
        if not head.args:
            raise PQLSemanticError(f"head {head.predicate!r} has no arguments")
        loc = head.args[0]
        if not isinstance(loc, Var) or loc.name == ANONYMOUS:
            raise PQLSemanticError(
                f"the first head argument of {head.predicate!r} must be the "
                "location variable (Section 4.2)"
            )
        if isinstance(loc, Aggregate):
            raise PQLSemanticError("location argument cannot be an aggregate")
        note_arity(head.predicate, head.arity)
        for lit in rule.body:
            if isinstance(lit, AtomLiteral):
                atom = lit.atom
                if atom.has_aggregates():
                    raise PQLSemanticError(
                        "aggregates are only allowed in rule heads"
                    )
                if not atom.args:
                    raise PQLSemanticError(
                        f"atom {atom.predicate!r} has no arguments"
                    )
                if (
                    not isinstance(atom.args[0], Var)
                    or atom.args[0].name == ANONYMOUS
                ):
                    raise PQLSemanticError(
                        f"the first argument of {atom.predicate!r} must be a "
                        "(named) location variable"
                    )
                note_arity(atom.predicate, atom.arity)
    return arities


# ---------------------------------------------------------------------------
# stratification
# ---------------------------------------------------------------------------
def _stratify(program: Program, head_preds: Set[str]) -> Dict[str, int]:
    """Assign strata; raise on unstratifiable negation/aggregation."""
    stratum: Dict[str, int] = {p: 0 for p in head_preds}
    edges: List[Tuple[str, str, int]] = []
    for rule in program.rules:
        head = rule.head.predicate
        aggregating = rule.head.has_aggregates()
        for lit in rule.body:
            if not isinstance(lit, AtomLiteral):
                continue
            body_pred = lit.atom.predicate
            if body_pred not in head_preds:
                continue  # EDB: always stratum 0, no constraint
            weight = 1 if (lit.negated or aggregating) else 0
            edges.append((body_pred, head, weight))
    for _round in range(len(head_preds) + 1):
        changed = False
        for body_pred, head, weight in edges:
            need = stratum[body_pred] + weight
            if stratum[head] < need:
                if need > len(head_preds):
                    raise PQLSemanticError(
                        "program is not stratifiable: recursion through "
                        f"negation or aggregation involving {head!r}"
                    )
                stratum[head] = need
                changed = True
        if not changed:
            break
    else:  # pragma: no cover - guarded by the need > len check above
        raise PQLSemanticError("program is not stratifiable")
    return stratum


# ---------------------------------------------------------------------------
# static closure, time and topology inference
# ---------------------------------------------------------------------------
def _static_closure(
    program: Program, registry: SchemaRegistry, head_preds: Set[str]
) -> Set[str]:
    """Predicates computable from the static input graph alone."""

    def relation_static(pred: str, static_idb: Set[str]) -> bool:
        schema = registry.maybe_get(pred)
        if schema is not None:
            if schema.kind == STATIC:
                return True
            if schema.kind != DERIVED:
                # A stream/provenance core relation is runtime data even when
                # the program also derives into it (Query 2's
                # ``superstep(X, I) :- superstep(X, I)``).
                return False
        return pred in static_idb

    static_idb = set(head_preds)
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            head = rule.head.predicate
            if head not in static_idb:
                continue
            for lit in rule.body:
                if isinstance(lit, AtomLiteral) and not relation_static(
                    lit.atom.predicate, static_idb
                ):
                    static_idb.discard(head)
                    changed = True
                    break
    return static_idb


#: Attribute positions that hold supersteps, for relations where it is not
#: just the schema's time_index (evolution carries two supersteps).
_EXTRA_TIME_POSITIONS: Dict[str, Tuple[int, ...]] = {"evolution": (1, 2)}


def _rule_time_vars(
    rule: Rule, time_index_of: Callable[[str], Optional[int]]
) -> Set[str]:
    """Variables of ``rule`` that denote supersteps."""
    time_vars: Set[str] = set()
    for lit in rule.body:
        if not isinstance(lit, AtomLiteral):
            continue
        atom = lit.atom
        positions = set(_EXTRA_TIME_POSITIONS.get(atom.predicate, ()))
        ti = time_index_of(atom.predicate)
        if ti is not None:
            positions.add(ti)
        for pos in positions:
            if pos < atom.arity and isinstance(atom.args[pos], Var):
                time_vars.add(atom.args[pos].name)
    # Propagate through arithmetic equalities like J = I - 1.
    changed = True
    while changed:
        changed = False
        for lit in rule.body:
            if not isinstance(lit, Comparison) or lit.op != "=":
                continue
            for var_side, expr_side in ((lit.left, lit.right), (lit.right, lit.left)):
                if not isinstance(var_side, Var) or var_side.name in time_vars:
                    continue
                expr_var_names = {v.name for v in term_vars(expr_side)}
                if expr_var_names and expr_var_names <= time_vars:
                    time_vars.add(var_side.name)
                    changed = True
    time_vars.discard(ANONYMOUS)
    return time_vars


def _infer_time_indexes(
    program: Program,
    registry: SchemaRegistry,
    head_preds: Set[str],
) -> Tuple[Dict[str, Optional[int]], Dict[int, Optional[str]]]:
    """Infer IDB time attributes and each rule's head time variable.

    Returns ``(relation -> time index or None, rule index -> time var)``.
    Relations whose rules disagree get no relation-level time index (the
    per-rule anchors remain valid).
    """

    idb_time: Dict[str, Optional[int]] = {}
    rule_time_var: Dict[int, Optional[str]] = {}
    conflicted: Set[str] = set()

    def time_index_of(pred: str) -> Optional[int]:
        schema = registry.maybe_get(pred)
        if schema is not None and pred not in head_preds:
            return schema.time_index
        if schema is not None and schema.kind != DERIVED:
            return schema.time_index
        return idb_time.get(pred)

    for _ in range(len(program.rules) + 1):
        changed = False
        for idx, rule in enumerate(program.rules):
            time_vars = _rule_time_vars(rule, time_index_of)
            head_time_idx: Optional[int] = None
            head_time_var: Optional[str] = None
            # Anchor preference: a registered schema's time position wins
            # (evolution anchors on its *later* superstep); otherwise the
            # last time variable in the head (derivation happens when the
            # most recent fact it joins becomes available).
            schema = registry.maybe_get(rule.head.predicate)
            if schema is not None and schema.time_index is not None:
                pos = schema.time_index
                arg = rule.head.args[pos] if pos < rule.head.arity else None
                if isinstance(arg, Var) and arg.name in time_vars:
                    head_time_idx = pos
                    head_time_var = arg.name
            if head_time_var is None:
                for pos, arg in enumerate(rule.head.args):
                    if pos == 0:
                        continue
                    if isinstance(arg, Var) and arg.name in time_vars:
                        head_time_idx = pos
                        head_time_var = arg.name  # keep last match
            if rule_time_var.get(idx, "sentinel") != head_time_var:
                rule_time_var[idx] = head_time_var
                changed = True
            pred = rule.head.predicate
            if pred in conflicted:
                continue
            known = idb_time.get(pred, "unset")
            if known == "unset":
                idb_time[pred] = head_time_idx
                changed = True
            elif known != head_time_idx:
                conflicted.add(pred)
                idb_time[pred] = None
                changed = True
        if not changed:
            break
    return idb_time, rule_time_var


def _infer_topologies(
    program: Program, registry: SchemaRegistry, head_preds: Set[str]
) -> Dict[str, Optional[str]]:
    """Derived relations that inherit edge topology (e.g. prov_edges)."""

    def topology_of(pred: str, idb_topo: Dict[str, Optional[str]]) -> Optional[str]:
        schema = registry.maybe_get(pred)
        if schema is not None and pred not in head_preds:
            return schema.topology
        return idb_topo.get(pred)

    idb_topo: Dict[str, Optional[str]] = {}
    for _ in range(len(program.rules) + 1):
        changed = False
        by_pred: Dict[str, Set[Optional[str]]] = {}
        for rule in program.rules:
            head = rule.head
            candidate: Optional[str] = None
            if (
                head.arity >= 2
                and isinstance(head.args[0], Var)
                and isinstance(head.args[1], Var)
            ):
                x, y = head.args[0].name, head.args[1].name
                for atom in rule.positive_atoms():
                    topo = topology_of(atom.predicate, idb_topo)
                    if (
                        topo
                        and atom.arity >= 2
                        and isinstance(atom.args[0], Var)
                        and isinstance(atom.args[1], Var)
                        and atom.args[0].name == x
                        and atom.args[1].name == y
                    ):
                        candidate = topo
                        break
            by_pred.setdefault(head.predicate, set()).add(candidate)
        for pred, candidates in by_pred.items():
            # Rules that are not themselves topological (candidate None) do
            # not veto: WCC's undirected capture derives prov_edges from
            # both edge(X, Y) and edge(Y, X), and the relation is still a
            # communication topology. Conflicting non-None candidates do.
            concrete = {c for c in candidates if c is not None}
            topo = concrete.pop() if len(concrete) == 1 else None
            if idb_topo.get(pred, "unset") != topo:
                idb_topo[pred] = topo
                changed = True
        if not changed:
            break
    return idb_topo


# ---------------------------------------------------------------------------
# history-window analysis (online memory pruning)
# ---------------------------------------------------------------------------
def relation_windows(compiled: "CompiledQuery") -> Dict[str, Optional[int]]:
    """How far back each auto-captured relation is read, per superstep.

    For online evaluation anchored at superstep *s*, a relation whose every
    time argument is provably ``s - k`` (k bounded) only needs its last
    ``k`` supersteps of history — older facts can be pruned, keeping the
    transient provenance bounded (the "window" optimization).

    Returns relation -> window (0 = current superstep only) or ``None``
    when some reference is unbounded (e.g. a superstep bound through
    ``evolution``, which can reach arbitrarily far back).

    Only relations in ``compiled.auto_capture`` are reported; derived and
    remotely-shipped relations are never pruned by the runtime.
    """
    windows: Dict[str, Optional[int]] = {}

    def note(relation: str, window: Optional[int]) -> None:
        if relation not in compiled.auto_capture:
            return
        current = windows.get(relation, 0)
        if window is None or current is None:
            windows[relation] = None
        else:
            windows[relation] = max(current, window)

    for crule in compiled.rules:
        if crule.is_static:
            continue
        offsets = _anchor_offsets(crule)
        for atom, term in _timed_atoms(compiled, crule):
            if isinstance(term, Var) and term.name in offsets:
                note(atom.predicate, max(0, offsets[term.name]))
            else:
                # constants, unknown variables, expressions: the fact may
                # be re-read arbitrarily late — no pruning
                note(atom.predicate, None)
    # relations captured but never scanned with a time attribute (cannot
    # happen for the core schemas, but stay safe)
    for relation in compiled.auto_capture:
        windows.setdefault(relation, None)
    return windows


def _anchor_offsets(crule: CompiledRule) -> Dict[str, int]:
    """``anchor - v`` for each variable ``v`` that equalities pin to the
    anchor superstep plus or minus a constant (an absolute superstep, as
    in "value(X, D, 0)", can be re-read at every later anchor: none)."""
    offsets: Dict[str, int] = {}
    if crule.time_var is not None:
        offsets[crule.time_var] = 0
    changed = True
    while changed:
        changed = False
        for lit in crule.rule.body:
            if not isinstance(lit, Comparison) or lit.op != "=":
                continue
            for var_side, expr in ((lit.left, lit.right),
                                   (lit.right, lit.left)):
                if not isinstance(var_side, Var) or var_side.name in offsets:
                    continue
                offset = _expr_offset(expr, offsets)
                if offset is not None:
                    offsets[var_side.name] = offset
                    changed = True
    return offsets


def _timed_atoms(compiled: "CompiledQuery", crule: CompiledRule,
                 ) -> List[Tuple[Atom, Any]]:
    """``(atom, time term)`` for each body atom of ``crule`` whose relation
    has a superstep attribute, negated atoms included."""
    timed = []
    for lit in crule.rule.body:
        if not isinstance(lit, AtomLiteral):
            continue
        atom = lit.atom
        schema = (compiled.idb_schemas.get(atom.predicate)
                  or CORE_SCHEMAS.get(atom.predicate))
        index = schema.time_index if schema is not None else None
        if index is not None and index < atom.arity:
            timed.append((atom, atom.args[index]))
    return timed


def _expr_offset(expr: Any, offsets: Dict[str, int]) -> Optional[int]:
    """``anchor - expr`` if expr is a known time var plus/minus a constant."""
    if isinstance(expr, Var):
        return offsets.get(expr.name)
    if isinstance(expr, BinOp) and isinstance(expr.right, Const) and (
        isinstance(expr.right.value, int)
    ):
        base = _expr_offset(expr.left, offsets)
        if base is None:
            return None
        if expr.op == "-":
            return base + expr.right.value
        if expr.op == "+":
            return base - expr.right.value
    return None


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------
def _literal_vars(lit: Literal) -> Set[str]:
    return {v.name for v in lit.variables() if v.name != ANONYMOUS}


def _term_is_bound(term, bound: Set[str]) -> bool:
    return all(
        v.name in bound for v in term_vars(term) if v.name != ANONYMOUS
    )


def _make_scan(
    atom: Atom,
    negated: bool,
    bound: Set[str],
    loc_var: str,
    schema: Optional[RelationSchema],
    allow_scan_all: bool,
) -> Optional[ScanStep]:
    """Build a scan step if the atom is evaluable under ``bound``."""
    loc = atom.args[0]
    assert isinstance(loc, Var)
    loc_bound = loc.name in bound
    if not loc_bound and (negated or not allow_scan_all):
        return None
    arg_ops: List[Tuple[str, object]] = []
    seen: Set[str] = set()
    for term in atom.args:
        if isinstance(term, Var):
            if term.name == ANONYMOUS:
                arg_ops.append((ANY, None))
            elif term.name in bound or term.name in seen:
                arg_ops.append((CHECK_VAR, term.name))
            else:
                if negated:
                    return None  # negated atoms must be fully bound
                arg_ops.append((BIND, term.name))
                seen.add(term.name)
        elif isinstance(term, Const):
            arg_ops.append((CHECK_TERM, term))
        else:  # BinOp / FuncCall
            if not _term_is_bound(term, bound):
                return None
            arg_ops.append((CHECK_TERM, term))
    time_arg = schema.time_index if schema is not None else None
    time_bound = False
    if time_arg is not None and time_arg < len(arg_ops):
        op, payload = arg_ops[time_arg]
        time_bound = op == CHECK_TERM or (op == CHECK_VAR and payload in bound)
    return ScanStep(
        relation=atom.predicate,
        negated=negated,
        arg_ops=tuple(arg_ops),
        remote=loc.name != loc_var,
        time_bound=time_bound,
        time_arg=time_arg,
    )


def build_plan(
    rule: Rule,
    schema_of: Callable[[str], Optional[RelationSchema]],
    prebound: Sequence[str],
    allow_scan_all: bool,
    loc_var: str,
) -> RulePlan:
    """Greedy join-order planning with binding propagation.

    Among the positive scans evaluable next, the planner prefers one whose
    time attribute is bound (it reads a single superstep's slice), then the
    one with the most bound arguments, then the earliest in the body. The
    order depends on the rule text alone, so every caller — with or
    without a store — gets the same plan.

    Raises :class:`PQLSemanticError` if the rule cannot be ordered safely
    (an unbound variable in a negated atom, comparison or function call).
    """
    bound: Set[str] = set(prebound)
    remaining: List[Literal] = list(rule.body)
    steps: List[PlanStep] = []

    def scan_priority(step: ScanStep) -> Tuple[int, ...]:
        checks = sum(1 for op, _ in step.arg_ops if op != BIND and op != ANY)
        return (1 if step.time_bound else 0, checks)

    while remaining:
        placed: Optional[int] = None
        step: Optional[PlanStep] = None

        # 1. fully bound filters: comparisons and boolean calls
        for i, lit in enumerate(remaining):
            if isinstance(lit, Comparison) and _literal_vars(lit) <= bound:
                step = CompareStep(lit.op, lit.left, lit.right, bind_var=None)
                placed = i
                break
            if isinstance(lit, BoolCall) and _literal_vars(lit) <= bound:
                step = CallStep(lit.call.name, lit.call.args, lit.negated)
                placed = i
                break
        # 2. fully bound negated atoms (anti-join filters)
        if placed is None:
            for i, lit in enumerate(remaining):
                if isinstance(lit, AtomLiteral) and lit.negated:
                    candidate = _make_scan(
                        lit.atom, True, bound, loc_var,
                        schema_of(lit.atom.predicate), allow_scan_all,
                    )
                    if candidate is not None:
                        step = candidate
                        placed = i
                        break
        # 3. binding equality comparisons: V = <bound expression>
        if placed is None:
            for i, lit in enumerate(remaining):
                if not isinstance(lit, Comparison) or lit.op != "=":
                    continue
                for var_side, expr_side, from_left in (
                    (lit.left, lit.right, True),
                    (lit.right, lit.left, False),
                ):
                    if (
                        isinstance(var_side, Var)
                        and var_side.name != ANONYMOUS
                        and var_side.name not in bound
                        and _term_is_bound(expr_side, bound)
                    ):
                        step = CompareStep(
                            "=", lit.left, lit.right,
                            bind_var=var_side.name, bind_from_left=from_left,
                        )
                        bound.add(var_side.name)
                        placed = i
                        break
                if placed is not None:
                    break
        # 4. positive atom scans, best-bound first
        if placed is None:
            best_key: Optional[Tuple[int, ...]] = None
            best_idx = -1
            best_scan: Optional[ScanStep] = None
            for i, lit in enumerate(remaining):
                if not isinstance(lit, AtomLiteral) or lit.negated:
                    continue
                loc = lit.atom.args[0]
                if isinstance(loc, Var) and loc.name not in bound:
                    continue  # defer scan-all atoms to step 5
                candidate = _make_scan(
                    lit.atom, False, bound, loc_var,
                    schema_of(lit.atom.predicate), allow_scan_all,
                )
                if candidate is None:
                    continue
                key = scan_priority(candidate) + (-i,)
                if best_key is None or key > best_key:
                    best_key, best_idx, best_scan = key, i, candidate
            if best_scan is not None:
                step = best_scan
                placed = best_idx
                bound.update(
                    payload for op, payload in step.arg_ops if op == BIND
                )
        # 5. unlocated positive scans (setup mode only)
        if placed is None and allow_scan_all:
            for i, lit in enumerate(remaining):
                if isinstance(lit, AtomLiteral) and not lit.negated:
                    candidate = _make_scan(
                        lit.atom, False, bound, loc_var,
                        schema_of(lit.atom.predicate), True,
                    )
                    if candidate is not None:
                        step = candidate
                        bound.update(
                            payload
                            for op, payload in candidate.arg_ops
                            if op == BIND
                        )
                        placed = i
                        break
        if placed is None:
            raise PQLSemanticError(
                f"rule is unsafe or not evaluable in this mode: {rule}"
            )
        assert step is not None
        steps.append(step)
        remaining.pop(placed)

    # Safety: every head variable must now be bound.
    head_vars: Set[str] = set()
    for arg in rule.head.args:
        inner = arg.term if isinstance(arg, Aggregate) else arg
        for v in term_vars(inner):
            if v.name == ANONYMOUS:
                raise PQLSemanticError(
                    f"anonymous variable in rule head: {rule}"
                )
            if v.name not in bound:
                raise PQLSemanticError(
                    f"unsafe rule: head variable {v.name} is unbound: {rule}"
                )
            head_vars.add(v.name)
    if not rule.head.has_aggregates():
        steps = _semijoin_optimize(steps, head_vars)
    return RulePlan(steps=tuple(steps), prebound=tuple(sorted(prebound)))


def _step_vars(step: PlanStep) -> Set[str]:
    """Variables a plan step reads or binds."""
    names: Set[str] = set()
    if isinstance(step, ScanStep):
        for op, payload in step.arg_ops:
            if op in (BIND, CHECK_VAR):
                names.add(payload)
            elif op == CHECK_TERM:
                names.update(v.name for v in term_vars(payload))
        for post in step.post_filters:
            names |= _step_vars(post)
    elif isinstance(step, CompareStep):
        names.update(v.name for v in term_vars(step.left))
        names.update(v.name for v in term_vars(step.right))
        if step.bind_var:
            names.add(step.bind_var)
    elif isinstance(step, CallStep):
        for arg in step.args:
            names.update(v.name for v in term_vars(arg))
    return names


def _semijoin_optimize(
    steps: List[PlanStep], head_vars: Set[str]
) -> List[PlanStep]:
    """Turn scans whose bindings are projected away into existence checks.

    A positive scan followed only by pure filter steps over its bindings —
    with none of those bindings used by later steps or the head — only
    needs its *first* passing row. This is the classical semi-join
    reduction; it is what keeps recursive lineage rules (Query 3, Query 10)
    from re-enumerating a neighbor's entire accumulated table on every
    superstep.
    """
    out = list(steps)
    i = 0
    while i < len(out):
        step = out[i]
        if isinstance(step, ScanStep) and not step.negated and not step.exists:
            binds = {
                payload for op, payload in step.arg_ops if op == BIND
            }
            if binds:
                # absorb the contiguous run of pure test steps that follows
                j = i + 1
                while j < len(out):
                    nxt = out[j]
                    if isinstance(nxt, CompareStep) and nxt.bind_var is None:
                        j += 1
                    elif isinstance(nxt, CallStep):
                        j += 1
                    else:
                        break
                used_later: Set[str] = set(head_vars)
                for later in out[j:]:
                    used_later |= _step_vars(later)
                if binds.isdisjoint(used_later):
                    absorbed = tuple(out[i + 1:j])
                    out[i] = ScanStep(
                        relation=step.relation,
                        negated=False,
                        arg_ops=step.arg_ops,
                        remote=step.remote,
                        time_bound=step.time_bound,
                        time_arg=step.time_arg,
                        post_filters=absorbed,
                        exists=True,
                    )
                    del out[i + 1:j]
        i += 1
    return out


# ---------------------------------------------------------------------------
# proven-complete far reads and hoisted rules
# ---------------------------------------------------------------------------
def _prove_complete(crule: CompiledRule,
                    stamps: Dict[str, Optional[int]]) -> RulePlan:
    """``crule``'s anchored plan with every remote scan Theorem 5.4 proves
    complete marked ``complete``.

    A scan qualifies when its location is the sender ``Y`` of a positive
    ``receive_message(X, Y, M, I)`` at the rule's location and anchor, and
    its time is provably at most ``I − 1``: a variable or term pinned to
    ``I − c`` with ``c ≥ 1``, or a bind the scan's absorbed ``J < I`` /
    ``J <= I − 1`` bounds. ``Y`` messaged ``X`` at ``I − 1`` and shipped
    after that superstep's evaluation, so its watermark toward ``X`` covers
    every layer through ``I − 1`` — and a layer holds only rows whose time
    is its superstep (the scanned relation's every rule writes its anchor
    at the scanned time position), so a later layer holds nothing the time
    bound admits. A far read of any other shape keeps its watermark."""
    plan = crule.anchored_plan
    if crule.time_var is None:
        return plan
    offsets = _anchor_offsets(crule)
    senders = {
        lit.atom.args[1].name for lit in crule.rule.body
        if isinstance(lit, AtomLiteral) and not lit.negated
        and lit.atom.predicate == "receive_message" and lit.atom.arity == 4
        and lit.atom.args[0] == Var(crule.loc_var)
        and isinstance(lit.atom.args[1], Var)
        and isinstance(lit.atom.args[3], Var)
        and offsets.get(lit.atom.args[3].name) == 0
    } - {ANONYMOUS}
    if not senders:
        return plan
    steps = tuple(
        replace(step, complete=True)
        if isinstance(step, ScanStep) and step.remote
        and step.arg_ops[0][0] == CHECK_VAR and step.arg_ops[0][1] in senders
        and step.time_arg is not None
        and stamps.get(step.relation, step.time_arg) == step.time_arg
        and _before_anchor(step, offsets)
        else step
        for step in plan.steps)
    return replace(plan, steps=steps)


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def _before_anchor(step: ScanStep, offsets: Dict[str, int]) -> bool:
    """Is the scan's time provably at most the anchor − 1?"""
    op, payload = step.arg_ops[step.time_arg]
    if op == CHECK_VAR:
        return offsets.get(payload, 0) >= 1
    if op == CHECK_TERM:
        return (_expr_offset(payload, offsets) or 0) >= 1
    if op != BIND:
        return False
    time = Var(payload)
    for post in step.post_filters:
        if not isinstance(post, CompareStep) or post.bind_var is not None:
            continue
        cmp, bound = post.op, post.right
        if post.right == time:
            cmp, bound = _FLIPPED.get(cmp), post.left
        elif post.left != time:
            continue
        offset = _expr_offset(bound, offsets)
        if offset is not None and (cmp == "<" and offset >= 0
                                   or cmp in ("<=", "=") and offset >= 1):
            return True
    return False


def _mark_hoisted(rules: Sequence[CompiledRule], remote: Set[str],
                  schema_of: Callable[[str], Optional[RelationSchema]],
                  ) -> None:
    """Mark the rules layered evaluation runs once, before its layer loop:
    every rule of a head that is anchor-free, has no superstep attribute
    and is read remotely by no rule, and whose body reads only stored
    relations, setup heads and other such heads. Anchored on no layer, such
    a rule derives at each layer's sites exactly what it derives for them
    over the whole store, and every reader reads it at its own location,
    where that layer's evaluation has already derived it."""
    by_head: Dict[str, List[CompiledRule]] = {}
    for crule in rules:
        by_head.setdefault(crule.head_predicate, []).append(crule)
    ready = {head for head, defs in by_head.items()
             if all(c.is_static for c in defs)}
    pending = [head for head in by_head if head not in ready]
    changed = True
    while changed:
        changed = False
        for head in pending:
            schema = schema_of(head)
            if head not in ready and head not in remote and (
                    schema is None or schema.time_index is None) and all(
                    crule.time_var is None and all(
                        rel in ready or rel not in by_head
                        for rel in crule.body_relations)
                    for crule in by_head[head]):
                ready.add(head)
                changed = True
    for crule in rules:
        crule.hoisted = not crule.is_static and crule.head_predicate in ready


# ---------------------------------------------------------------------------
# main entry point
# ---------------------------------------------------------------------------
def compile_query(
    program: Program,
    registry: Optional[SchemaRegistry] = None,
    functions: Optional[FunctionRegistry] = None,
) -> CompiledQuery:
    """Compile a parsed PQL program against a relation registry.

    ``registry`` supplies the available EDB relations — the core provenance
    schemas plus, for offline queries, whatever a capture run stored.
    ``functions`` is only consulted for *names* here (to resolve boolean
    calls); actual callables are looked up at evaluation time.
    """
    registry = registry or SchemaRegistry()
    functions = functions or FunctionRegistry()
    if program.parameters():
        raise PQLSemanticError(
            "program has unbound parameters "
            f"{sorted(program.parameters())}; call .bind() first"
        )
    head_preds = {rule.head.predicate for rule in program.rules}
    program = _resolve_literals(program, registry, functions, head_preds)
    idb_arities = _check_heads_and_arities(program, registry, head_preds)
    strata_of = _stratify(program, head_preds)
    static_preds = _static_closure(program, registry, head_preds)
    idb_time, rule_time_var = _infer_time_indexes(program, registry, head_preds)
    idb_topo = _infer_topologies(program, registry, head_preds)

    # Aggregate-defined predicates must be defined only by aggregate rules.
    agg_preds = {
        r.head.predicate for r in program.rules if r.head.has_aggregates()
    }
    for rule in program.rules:
        if rule.head.predicate in agg_preds and not rule.head.has_aggregates():
            raise PQLSemanticError(
                f"predicate {rule.head.predicate!r} mixes aggregate and "
                "non-aggregate rules"
            )

    idb_schemas: Dict[str, RelationSchema] = {}
    for pred in head_preds:
        schema = registry.maybe_get(pred)
        if schema is not None:
            idb_schemas[pred] = schema  # capture into a core relation
        else:
            idb_schemas[pred] = RelationSchema(
                pred,
                idb_arities[pred],
                DERIVED,
                time_index=idb_time.get(pred),
                topology=idb_topo.get(pred),
            )

    def schema_of(pred: str) -> Optional[RelationSchema]:
        schema = registry.maybe_get(pred)
        if schema is not None and pred not in head_preds:
            return schema
        return idb_schemas.get(pred) or schema

    compiled: List[CompiledRule] = []
    edb_relations: Set[str] = set()
    stream_relations: Set[str] = set()
    remote_relations: Set[str] = set()
    rule_directions: Set[str] = set()

    for idx, rule in enumerate(program.rules):
        loc_var = rule.head.args[0].name  # validated Var already
        body_rels: List[str] = []
        for lit in rule.body:
            if isinstance(lit, AtomLiteral):
                pred = lit.atom.predicate
                body_rels.append(pred)
                schema = registry.maybe_get(pred)
                # A body reference reads the underlying (captured/core)
                # relation even when the program also derives into it.
                if pred not in head_preds or (
                    schema is not None and schema.kind != DERIVED
                ):
                    if schema is not None:
                        edb_relations.add(pred)
                        if schema.kind == STREAM:
                            stream_relations.add(pred)

        is_static = rule.head.predicate in static_preds
        # Remote refs: body atoms located at a variable other than the head's.
        remote_vars: Set[str] = set()
        rule_remote_rels: Set[str] = set()
        for lit in rule.body:
            if isinstance(lit, AtomLiteral):
                loc = lit.atom.args[0]
                if isinstance(loc, Var) and loc.name not in (loc_var, ANONYMOUS):
                    remote_vars.add(loc.name)
                    rule_remote_rels.add(lit.atom.predicate)

        direction = DIRECTION_LOCAL
        if remote_vars and not is_static:
            guard_dirs: Set[str] = set()
            for rvar in remote_vars:
                dirs: Set[str] = set()
                for atom in rule.positive_atoms():
                    schema = schema_of(atom.predicate)
                    topo = schema.topology if schema else None
                    if (
                        topo
                        and atom.arity >= 2
                        and isinstance(atom.args[0], Var)
                        and isinstance(atom.args[1], Var)
                        and atom.args[0].name == loc_var
                        and atom.args[1].name == rvar
                    ):
                        dirs.add(
                            DIRECTION_FORWARD
                            if topo == TOPO_RECEIVE
                            else DIRECTION_BACKWARD
                        )
                if not dirs:
                    raise PQLCompatibilityError(
                        f"rule is not VC-compatible: remote location variable "
                        f"{rvar!r} is not guarded by a send/receive-message "
                        f"or edge predicate (Definition 4.1): {rule}"
                    )
                guard_dirs |= dirs
            if guard_dirs == {DIRECTION_FORWARD}:
                direction = DIRECTION_FORWARD
            elif guard_dirs == {DIRECTION_BACKWARD}:
                direction = DIRECTION_BACKWARD
            else:
                direction = DIRECTION_MIXED
            rule_directions.add(direction)
            remote_relations |= rule_remote_rels

        time_var = rule_time_var.get(idx)
        head_time_index = None
        if time_var is not None:
            for pos, arg in enumerate(rule.head.args):
                if pos > 0 and isinstance(arg, Var) and arg.name == time_var:
                    head_time_index = pos
                    break

        anchored = located = free = None
        if is_static:
            free = build_plan(rule, schema_of, (), True, loc_var)
        else:
            prebound_anchor = [loc_var] + ([time_var] if time_var else [])
            anchored = build_plan(rule, schema_of, prebound_anchor, False, loc_var)
            located = build_plan(rule, schema_of, [loc_var], False, loc_var)

        body_vars = sorted(
            {v.name for v in rule.variables() if v.name != ANONYMOUS}
        )
        compiled.append(
            CompiledRule(
                rule=rule,
                index=idx,
                head_predicate=rule.head.predicate,
                head_args=tuple(rule.head.args),
                loc_var=loc_var,
                time_var=time_var,
                head_time_index=head_time_index,
                stratum=strata_of[rule.head.predicate],
                direction=direction,
                is_static=is_static,
                is_aggregate=rule.head.has_aggregates(),
                remote_relations=tuple(sorted(rule_remote_rels)),
                body_relations=tuple(body_rels),
                anchored_plan=anchored,
                located_plan=located,
                free_plan=free,
                body_vars=tuple(body_vars),
            )
        )

    if not rule_directions:
        query_direction = DIRECTION_LOCAL
    elif rule_directions == {DIRECTION_FORWARD}:
        query_direction = DIRECTION_FORWARD
    elif rule_directions == {DIRECTION_BACKWARD}:
        query_direction = DIRECTION_BACKWARD
    else:
        query_direction = DIRECTION_MIXED

    _mark_hoisted(compiled, remote_relations, schema_of)
    if "receive_message" not in head_preds:  # else a body atom may be derived
        stamps = head_stamps(compiled)
        for crule in compiled:
            if crule.anchored_plan is not None:
                crule.anchored_plan = _prove_complete(crule, stamps)

    max_stratum = max((c.stratum for c in compiled), default=0)
    strata: List[List[CompiledRule]] = [[] for _ in range(max_stratum + 1)]
    static_rules: List[CompiledRule] = []
    for crule in compiled:
        if crule.is_static:
            static_rules.append(crule)
        else:
            strata[crule.stratum].append(crule)
    static_rules.sort(key=lambda c: (c.stratum, c.index))

    return CompiledQuery(
        program=program,
        rules=compiled,
        strata=strata,
        static_rules=static_rules,
        idb_schemas=idb_schemas,
        edb_relations=edb_relations,
        stream_relations=stream_relations,
        auto_capture=edb_relations & AUTO_CAPTURED,
        remote_relations=remote_relations,
        direction=query_direction,
        head_predicates=head_preds,
    )
