"""Physical plan structures for compiled PQL rules.

A rule body compiles into an ordered list of plan steps — a left-deep join
with binding propagation, which :mod:`repro.pql.vectorized` compiles to one
layer program per binding mode. Three binding modes exist because the same
rule text is evaluated differently per mode:

* ``anchored`` — online / layered evaluation: the head's location variable is
  bound to the evaluating vertex and the head's time variable to the current
  superstep (layer);
* ``located`` — naive offline evaluation: only the location variable is
  pre-bound (rules are evaluated for all supersteps at once);
* ``free`` — setup evaluation of static rules (the only rules with a free
  plan): nothing is pre-bound and location arguments may scan all
  partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple, Union

from repro.pql.ast import AtomLiteral, Rule, Term

# Argument matching ops for relational scans.
BIND = "bind"  # first occurrence of a variable: bind it from the tuple
CHECK_VAR = "check_var"  # variable already bound: compare
CHECK_TERM = "check_term"  # evaluable expression: compare
ANY = "any"  # anonymous variable: always matches

ArgOp = Tuple[str, Any]  # (op, payload)

@dataclass(frozen=True)
class ScanStep:
    """Iterate one relation partition, matching / binding arguments.

    The partition to read is determined by ``arg_ops[0]`` (the location
    specifier): when it is a check op the location value is known and the
    evaluator reads exactly that partition; when it is a bind op (possible
    only for static rules evaluated in setup mode) the evaluator scans every
    partition of the relation.

    ``post_filters`` are comparison/call steps absorbed into the scan by the
    semi-join optimization; when ``exists`` is set, none of the scan's
    bindings are used downstream, so the evaluator stops at the first row
    passing the filters (turning O(partition) enumeration into an
    existence check — crucial for recursive lineage rules whose join
    variables are projected away).

    ``complete`` marks a remote scan of an anchored plan that Theorem 5.4
    proves complete online: its location is the sender of a message the
    anchor received and its time is at most the anchor − 1, so the
    sender's layers are read with no watermark (``repro.pql.analysis``).
    """

    relation: str
    negated: bool
    arg_ops: Tuple[ArgOp, ...]
    remote: bool  # partition lives at a vertex other than the evaluating one
    time_bound: bool  # the relation's time attribute is bound => read a slice
    time_arg: Optional[int]  # index of the time attribute, if any
    post_filters: Tuple["PlanStep", ...] = ()
    exists: bool = False
    complete: bool = False

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        neg = "!" if self.negated else ""
        mark = "?exists" if self.exists else ""
        return (
            f"{neg}scan {self.relation}{mark}"
            + ("@remote" if self.remote else "")
        )


@dataclass(frozen=True)
class CompareStep:
    """A comparison; ``bind_var`` set means it binds rather than tests."""

    op: str
    left: Term
    right: Term
    bind_var: Optional[str]  # variable bound by `V = expr`
    bind_from_left: bool = False  # the variable is the left side

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"cmp {self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class CallStep:
    """A boolean function call literal."""

    func: str
    args: Tuple[Term, ...]
    negated: bool

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        neg = "!" if self.negated else ""
        return f"{neg}call {self.func}/{len(self.args)}"


PlanStep = Union[ScanStep, CompareStep, CallStep]


@dataclass(frozen=True)
class RulePlan:
    """One rule's ordered steps under one binding mode."""

    steps: Tuple[PlanStep, ...]
    # Variables pre-bound before the first step runs.
    prebound: Tuple[str, ...]


@dataclass
class CompiledRule:
    """A rule plus everything the evaluators need to run it."""

    rule: Rule
    index: int  # position in the program (for diagnostics)
    head_predicate: str
    head_args: Tuple[Any, ...]  # Term | Aggregate
    loc_var: str  # head location variable name
    time_var: Optional[str]  # head's superstep variable name, if any
    head_time_index: Optional[int]
    stratum: int
    direction: str  # 'local' | 'forward' | 'backward' | 'mixed'
    is_static: bool  # body uses only static relations (setup rule)
    is_aggregate: bool
    remote_relations: Tuple[str, ...]  # relations read at remote vertices
    body_relations: Tuple[str, ...]
    anchored_plan: Optional[RulePlan]  # non-static rules only
    located_plan: Optional[RulePlan]  # non-static rules only
    free_plan: Optional[RulePlan]  # static (setup) rules only
    # Names of all body variables, for aggregate witness deduplication.
    body_vars: Tuple[str, ...]
    # Anchor-free and reading only what no layer changes: the layered
    # drivers run it once, before the layer loop (repro.pql.analysis).
    hoisted: bool = False
    # Binding mode -> layer program (repro.pql.vectorized). Racing first
    # uses assign equivalent programs (no lock); never pickled, rebuilt
    # lazily.
    layer_programs: Dict[str, Any] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def is_self_copy(self) -> bool:
        """``superstep(X, I) :- superstep(X, I)``: the body is one positive
        atom equal to the head, so every row it derives is a row its head
        relation already has."""
        return self.rule.body == (AtomLiteral(self.rule.head),)

    def __getstate__(self) -> Dict[str, Any]:
        return {**self.__dict__, "layer_programs": {}}

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.direction}{'/static' if self.is_static else ''}] {self.rule}"


def head_stamps(rules: Iterable[CompiledRule]) -> Dict[str, Optional[int]]:
    """Per head of ``rules``, the position where every rule deriving it
    writes its anchor superstep (``None``: some rule writes none, or
    another one). Anchored evaluation stores such a head's rows in the
    layer of that superstep."""
    positions: Dict[str, set] = {}
    for crule in rules:
        positions.setdefault(crule.head_predicate, set()).add(
            None if crule.is_static or crule.time_var is None
            else crule.head_time_index)
    return {head: next(iter(held)) if len(held) == 1 else None
            for head, held in positions.items()}
