"""PQL evaluation core.

Runs the plans produced by :mod:`repro.pql.analysis`: every rule runs as a
layer program (:mod:`repro.pql.vectorized`), once per (rule, layer) over
all of the layer's sites as a column. The same core drives all three of
the paper's evaluation methods — online, layered offline and naive
offline — which differ only in

* the *database view* they evaluate against (what "the partition at vertex
  v" means and whether remote partitions are reachable),
* the *binding mode* (anchored to a superstep, located at a vertex, or free
  for static setup rules),
* the *driver loop* (per-superstep, per-layer, or global fixpoint).

Derived tuples land in the database's ``derived``
:class:`~repro.provenance.store.Relations` — the container the stores
use, one layer per superstep that derived rows — with set semantics over
all layers (Datalog). A layer program reads them through the same
column-batch matchers as stored relations.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import PQLError, PQLSemanticError
from repro.pql.ast import BinOp, Const, FuncCall, Param, Term, Var
from repro.pql.plan import (
    CHECK_VAR,
    CompareStep,
    CompiledRule,
    RulePlan,
    ScanStep,
    head_stamps,
)
from repro.pql.udf import FunctionRegistry
from repro.provenance.store import Relations

Row = Tuple[Any, ...]
Env = Dict[str, Any]

MODE_ANCHORED = "anchored"
MODE_LOCATED = "located"
MODE_FREE = "free"


# ---------------------------------------------------------------------------
# term evaluation
# ---------------------------------------------------------------------------
def eval_term(term: Term, env: Env, functions: FunctionRegistry) -> Any:
    """Evaluate an expression term under a variable binding."""
    if isinstance(term, Var):
        try:
            return env[term.name]
        except KeyError:
            raise PQLError(
                f"internal: variable {term.name} unbound at evaluation"
            ) from None
    if isinstance(term, Const):
        return term.value
    if isinstance(term, BinOp):
        left = eval_term(term.left, env, functions)
        right = eval_term(term.right, env, functions)
        if term.op == "+":
            return left + right
        if term.op == "-":
            return left - right
        if term.op == "*":
            return left * right
        if term.op == "/":
            return left / right
        raise PQLError(f"unknown operator {term.op!r}")
    if isinstance(term, FuncCall):
        fn = functions.get(term.name)
        args = [eval_term(a, env, functions) for a in term.args]
        return fn(*args)
    if isinstance(term, Param):
        raise PQLSemanticError(f"unbound parameter ${term.name}")
    raise PQLError(f"cannot evaluate term {term!r}")


def _compare(op: str, left: Any, right: Any) -> bool:
    try:
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        return False
    raise PQLError(f"unknown comparison {op!r}")


# ---------------------------------------------------------------------------
# derived facts
# ---------------------------------------------------------------------------
class Database:
    """What the evaluator writes derivations to: ``derived``, a
    :class:`~repro.provenance.store.Relations` layered by the superstep
    each row was derived at. The backends (:mod:`repro.runtime.db`) add
    the reads a layer program makes — ``store`` and ``static`` column
    batches, and under locality what another vertex shipped — and the
    drivers attach the :class:`~repro.pql.vectorized.VectorContext` every
    rule runs in."""

    #: Whether a vertex may read another vertex's partition only through
    #: what that vertex shipped to it (the online view: the paper's
    #: locality restriction); offline views read every partition.
    locality = False

    def __init__(self) -> None:
        self.derived = Relations()
        self.vector_ctx: Optional[Any] = None

    def add_rows(self, relation: str, rows: Iterable[Row],
                 layer: Any = None) -> int:
        """Insert derived rows in order at ``layer`` (the superstep that
        derived them); returns how many were new."""
        return len(self.derived.insert(relation, rows, layer))


def _select_plan(crule: CompiledRule, mode: str) -> Optional[RulePlan]:
    if mode == MODE_ANCHORED and crule.anchored_plan is not None:
        return crule.anchored_plan
    if mode == MODE_LOCATED and crule.located_plan is not None:
        return crule.located_plan
    return crule.free_plan


# ---------------------------------------------------------------------------
# rule evaluation
# ---------------------------------------------------------------------------
def evaluate_rule(
    crule: CompiledRule,
    mode: str,
    db: Database,
    functions: FunctionRegistry,
    sites: Sequence[Any],
    anchor_time: Optional[int] = None,
) -> int:
    """Evaluate one rule over ``sites`` as one layer program; returns the
    number of new facts. An aggregate head replaces each group's row
    (recomputed from the current database on every evaluation;
    stratification guarantees the aggregated relations are complete)."""
    if mode == MODE_ANCHORED and anchor_time is None and crule.time_var is not None:
        raise PQLError("anchored evaluation requires an anchor time")
    head = crule.head_predicate
    try:
        rows = db.vector_ctx.evaluate(
            crule, mode, sites, anchor_time, db, functions)
        if crule.is_aggregate:
            return db.derived.set_groups(head, rows)
        return db.add_rows(head, rows, anchor_time) if rows else 0
    except (PQLError, MemoryError):  # budgets pass through by name
        raise
    except Exception as exc:
        raise PQLError(
            f"error evaluating rule over {len(sites)} sites: {crule.rule} "
            f"({type(exc).__name__}: {exc})"
        ) from exc


# ---------------------------------------------------------------------------
# stratum driver
# ---------------------------------------------------------------------------
PreparedStrata = List[Tuple[List[CompiledRule], bool]]


def prepare_strata(
    strata: Sequence[Sequence[CompiledRule]],
    anchored: bool = False,
) -> PreparedStrata:
    """Precompute, per stratum, whether fixpoint iteration is needed.

    Two cases avoid the repeat-until-stable loop entirely:

    * no rule reads a relation defined in the same stratum, or
    * the intra-stratum dependencies are *acyclic* — then evaluating the
      rules in topological order makes a single pass complete (each rule's
      same-stratum inputs are final by the time it runs).

    Only genuinely recursive strata (a dependency cycle, e.g. transitive
    closure) keep the fixpoint loop. Callers that drive evaluation per
    vertex per superstep (the online runtime) prepare once and reuse.

    ``anchored`` prepares for anchored evaluation only (the layered
    driver): there every fact a rule derives carries the anchor superstep,
    so a scan that reads the relation one or more supersteps away
    (``back_trace(Y, J), J = I + 1``) cannot see anything derived at this
    anchor and is no dependency within it — Lemma 5.3's one pass per layer,
    applied inside the layer.

    A relation whose every rule here copies it onto itself
    (``superstep(X, I) :- superstep(X, I)``, Query 2) is no dependency
    either: its readers already see every row such a rule derives, through
    the stored rows a scan reads beside the derived ones.
    """
    prepared: PreparedStrata = []
    for stratum in strata:
        if not stratum:
            continue
        # heads in first-rule order: _topological breaks ties by it
        heads = dict.fromkeys(
            c.head_predicate for c in sorted(stratum, key=lambda c: c.index))
        copies = {
            head for head in heads
            if all(c.is_self_copy for c in stratum if c.head_predicate == head)
        }
        # head -> the position where *every* rule deriving it writes the
        # anchor superstep (absent: some rule does not)
        stamped: Dict[str, int] = {
            head: position for head, position in head_stamps(stratum).items()
            if position is not None} if anchored else {}
        # predicate-level dependency edges within the stratum
        deps: Dict[str, Set[str]] = {h: set() for h in heads}
        for crule in stratum:
            for rel in crule.body_relations:
                if rel in heads and rel not in copies and not (
                        rel in stamped and _lagged(crule, rel, stamped[rel])):
                    deps[crule.head_predicate].add(rel)
        order = _topological(deps)
        if order is None:
            prepared.append((list(stratum), True))
        else:
            rank = {pred: i for i, pred in enumerate(order)}
            ordered = sorted(
                stratum, key=lambda c: (rank[c.head_predicate], c.index)
            )
            prepared.append((ordered, False))
    return prepared


def _lagged(crule: CompiledRule, relation: str, position: int) -> bool:
    """Does every scan of ``relation`` in ``crule``'s anchored plan check,
    at ``position``, a variable bound to the anchor superstep plus or minus
    a non-zero integer constant?"""
    if crule.time_var is None or crule.anchored_plan is None:
        return False
    shifted: Set[str] = set()
    scans: List[ScanStep] = []
    for step in crule.anchored_plan.steps:
        if isinstance(step, ScanStep) and step.relation == relation:
            scans.append(step)
        elif isinstance(step, CompareStep) and step.bind_var is not None:
            expr = step.right if step.bind_from_left else step.left
            if (isinstance(expr, BinOp) and expr.op in ("+", "-")
                    and expr.left == Var(crule.time_var)
                    and isinstance(expr.right, Const)
                    and type(expr.right.value) is int and expr.right.value):
                shifted.add(step.bind_var)
    return bool(scans) and all(
        position < len(scan.arg_ops)
        and scan.arg_ops[position][0] == CHECK_VAR
        and scan.arg_ops[position][1] in shifted
        for scan in scans
    )


def _topological(deps: Dict[str, Set[str]]) -> Optional[List[str]]:
    """Dependency order: each step places the first node listed in
    ``deps`` whose dependencies are all placed. None when the graph has a
    cycle (including self-loops, i.e. genuine recursion)."""
    order: List[str] = []
    pending = list(deps)
    while pending:
        node = next((n for n in pending if deps[n].issubset(order)), None)
        if node is None:
            return None
        pending.remove(node)
        order.append(node)
    return order


def run_prepared(
    prepared: PreparedStrata,
    mode: str,
    db: Database,
    functions: FunctionRegistry,
    sites: Sequence[Any],
    anchor_time: Optional[int] = None,
    stratum_seconds: Optional[Dict[int, float]] = None,
    budget: Optional[Any] = None,
) -> int:
    """Evaluate prepared strata in order, each to fixpoint over ``sites``.

    ``stratum_seconds`` is the observability hook: a dict that accumulates
    wall time per stratum number (the offline drivers pass one when
    tracing is enabled, and the timings feed ``EXPLAIN``). When ``None``
    (the online superstep program) the only cost is one ``is not None``
    check per stratum.

    ``budget`` is an optional :class:`repro.pql.budget.QueryBudget`: its
    ``tick`` runs once per kernel stride inside a layer program (the
    context's, cancellation + strided clock), and each fixpoint
    round's new derivations are charged against the row budget, so a
    bounded request raises ``BudgetExceededError`` from inside the loop
    rather than discovering the overrun at the end.
    """
    total = 0
    timing = stratum_seconds is not None
    for stratum, recursive in prepared:
        if timing:
            started = time.perf_counter()
        while True:
            new = 0
            for crule in stratum:
                new += evaluate_rule(
                    crule, mode, db, functions, sites, anchor_time)
            total += new
            if budget is not None:
                budget.add_rows(new)
            if new == 0 or not recursive:
                break
        if timing:
            key = stratum[0].stratum
            stratum_seconds[key] = (
                stratum_seconds.get(key, 0.0)
                + time.perf_counter() - started
            )
    return total


def run_strata(
    strata: Sequence[Sequence[CompiledRule]],
    mode: str,
    db: Database,
    functions: FunctionRegistry,
    sites: Iterable[Any],
    anchor_time: Optional[int] = None,
    stratum_seconds: Optional[Dict[int, float]] = None,
    budget: Optional[Any] = None,
) -> int:
    """Evaluate strata in order, each to fixpoint over ``sites``.

    Returns the total number of new derivations. ``sites`` may be ``[None]``
    for free-mode (centralized) evaluation.
    """
    return run_prepared(
        prepare_strata(strata), mode, db, functions, list(sites), anchor_time,
        stratum_seconds, budget,
    )


def run_setup(
    static_rules: Sequence[CompiledRule],
    db: Database,
    functions: FunctionRegistry,
    stratum_seconds: Optional[Dict[int, float]] = None,
) -> int:
    """Evaluate a query's static rules (``edge`` / ``vertex`` and what
    derives from them only, e.g. Query 4's in-degree) once, stratum by
    stratum, as free-mode layer programs — the setup the offline drivers
    and the online wrapper run before anything else."""
    if not static_rules:
        return 0
    buckets: List[List[CompiledRule]] = [
        [] for _ in range(max(c.stratum for c in static_rules) + 1)]
    for crule in static_rules:
        buckets[crule.stratum].append(crule)
    return run_strata(buckets, MODE_FREE, db, functions, [None],
                      stratum_seconds=stratum_seconds)
