"""PQL: Ariadne's Datalog-based provenance query language."""

from repro.pql.analysis import (
    DIRECTION_BACKWARD,
    DIRECTION_FORWARD,
    DIRECTION_LOCAL,
    DIRECTION_MIXED,
    CompiledQuery,
    compile_query,
    relation_windows,
)
from repro.pql.explain import explain, explain_rule
from repro.pql.seminaive import evaluate_seminaive, store_to_facts
from repro.pql.ast import (
    Aggregate,
    Atom,
    AtomLiteral,
    BinOp,
    BoolCall,
    Comparison,
    Const,
    FuncCall,
    Param,
    Program,
    Rule,
    Var,
)
from repro.pql.eval import (
    MODE_ANCHORED,
    MODE_FREE,
    MODE_LOCATED,
    Database,
    eval_term,
    evaluate_rule,
    run_strata,
)
from repro.pql.parser import parse, parse_rule
from repro.pql.udf import BUILTIN_FUNCTIONS, FunctionRegistry

__all__ = [
    "DIRECTION_BACKWARD",
    "DIRECTION_FORWARD",
    "DIRECTION_LOCAL",
    "DIRECTION_MIXED",
    "CompiledQuery",
    "compile_query",
    "relation_windows",
    "explain",
    "explain_rule",
    "evaluate_seminaive",
    "store_to_facts",
    "Aggregate",
    "Atom",
    "AtomLiteral",
    "BinOp",
    "BoolCall",
    "Comparison",
    "Const",
    "FuncCall",
    "Param",
    "Program",
    "Rule",
    "Var",
    "MODE_ANCHORED",
    "MODE_FREE",
    "MODE_LOCATED",
    "Database",
    "eval_term",
    "evaluate_rule",
    "run_strata",
    "parse",
    "parse_rule",
    "BUILTIN_FUNCTIONS",
    "FunctionRegistry",
]
