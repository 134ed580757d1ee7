"""Offline PQL evaluation over a captured provenance store.

Every driver takes a store that implements the read protocol shared by the
in-memory :class:`~repro.provenance.store.ProvenanceStore` and the
out-of-core :class:`~repro.provenance.store.SealedStoreView`; the
``*_from_spill`` entry points hand a sealed store's read session (one view
per manager, warm across queries) to the same drivers. The first two
drivers run every rule as a layer program (:mod:`repro.pql.vectorized`)
over whichever store they are given:

* :func:`run_layered` — Section 5.1's layered evaluation. Layers are visited
  in the direction dictated by the query class (ascending for forward,
  descending for backward, per Lemma 5.3); each layer's rules are anchored to
  that superstep, so one pass over the layers suffices.
* :func:`run_naive` — the traditional "straightforward" offline evaluation
  the paper compares against: the whole provenance graph is materialized and
  unanchored rules are re-evaluated over every vertex until a global
  fixpoint, which is why it is consistently the slowest mode (Figure 8).
* :func:`run_reference` — a centralized stratified-Datalog oracle: the
  standalone semi-naive interpreter (:mod:`repro.pql.seminaive`) over the
  store's rows. Not part of the paper's system; the test suite uses it as
  ground truth for the distributed modes.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Union

from repro.errors import PQLCompatibilityError
from repro.graph.digraph import DiGraph
from repro.obs.log import get_logger
from repro.obs.trace import PHASE_QUERY, get_tracer
from repro.pql.analysis import (
    DIRECTION_BACKWARD,
    CompiledQuery,
    compile_query,
)
from repro.pql.ast import Atom, Program, Rule
from repro.pql.budget import QueryBudget
from repro.pql.eval import (
    MODE_ANCHORED,
    MODE_LOCATED,
    prepare_strata,
    run_prepared,
    run_setup,
    run_strata,
)
from repro.pql.parser import parse
from repro.pql.seminaive import evaluate_seminaive, store_to_facts
from repro.pql.udf import FunctionRegistry
from repro.pql.vectorized import VectorContext
from repro.provenance.spill import SLAB_FORMAT
from repro.provenance.store import ProvenanceStore, Relations
from repro.runtime.db import StoreDatabase
from repro.runtime.results import QueryResult

logger = get_logger("runtime.offline")


def _compile_offline(
    query: Union[str, Program, CompiledQuery],
    store: ProvenanceStore,
    functions: FunctionRegistry,
    params: Optional[Dict[str, Any]],
) -> CompiledQuery:
    if isinstance(query, CompiledQuery):
        return query
    program = parse(query) if isinstance(query, str) else query
    if params:
        program = program.bind(**params)
    return compile_query(program, registry=store.registry, functions=functions)


def run_layered(
    store: ProvenanceStore,
    query: Union[str, Program, CompiledQuery],
    graph: Optional[DiGraph] = None,
    params: Optional[Dict[str, Any]] = None,
    udfs: Optional[Dict[str, Callable[..., Any]]] = None,
    budget: Optional[QueryBudget] = None,
) -> QueryResult:
    """Layered offline evaluation of a directed query.

    Each rule runs once per layer as a layer program over the store's
    column batches; static setup rules run once, first, and then the
    hoisted rules (anchor-free, reading no layer's derivations: Query 8's
    ``degree``) once, over every layer's sites.

    ``budget`` bounds the evaluation (depth = layers visited, derived
    rows, wall clock); overruns raise
    :class:`~repro.errors.BudgetExceededError` mid-evaluation — including
    from inside batch kernels, which tick the budget per processed rows.
    """
    functions = FunctionRegistry(udfs)
    compiled = _compile_offline(query, store, functions, params)
    compiled.require_layered()
    if budget is not None:
        budget.start()

    tracer = get_tracer()
    # Cold path: per-stratum timing is always on here (two clock reads per
    # stratum per layer) so EXPLAIN can show observed costs untraced.
    stratum_seconds: Dict[int, float] = {}
    db = StoreDatabase(store, graph, compiled.head_predicates)
    ctx = db.vector_ctx = VectorContext(budget=budget)
    start = time.perf_counter()
    derivations = run_setup(compiled.static_rules, db, functions,
                            stratum_seconds)

    num_layers = store.num_layers
    order = range(num_layers)
    if compiled.direction == DIRECTION_BACKWARD:
        order = range(num_layers - 1, -1, -1)

    # Hoisted rules derive the same rows at every layer: run them once,
    # over every site a layer has, before the loop.
    hoisted = [[c for c in stratum if c.hoisted]
               for stratum in compiled.strata]
    if any(hoisted):
        sites = set().union(*map(store.layer_sites, order))
        with tracer.span("query-eval", PHASE_QUERY, mode="hoisted",
                         sites=len(sites)):
            derivations += run_prepared(
                prepare_strata(hoisted), MODE_LOCATED, db, functions,
                sorted(sites, key=repr), stratum_seconds=stratum_seconds,
                budget=budget)

    prepared = prepare_strata(
        [[c for c in stratum if not c.hoisted] for stratum in compiled.strata],
        anchored=True)
    peak_layer_rows = 0
    layers_visited = 0
    for layer_index in order:
        if budget is not None:
            budget.note_layer()
        # Sealed views answer both from slab footers + group keys,
        # without materializing a single row column.
        sites = store.layer_sites(layer_index)
        peak_layer_rows = max(peak_layer_rows, store.layer_rows(layer_index))
        layers_visited += 1
        if not sites:
            continue
        with tracer.span(
            "query-eval", PHASE_QUERY, mode="layered", layer=layer_index,
            sites=len(sites),
        ):
            derivations += run_prepared(
                prepared, MODE_ANCHORED, db, functions,
                sorted(sites, key=repr),
                anchor_time=layer_index,
                stratum_seconds=stratum_seconds,
                budget=budget,
            )

    stats = {
        "direction": compiled.direction,
        "peak_layer_rows": peak_layer_rows,
        "store_rows": store.num_rows,
        "head_predicates": sorted(compiled.head_predicates),
        "stratum_seconds": stratum_seconds,
        "compiled_rules": compiled.compiled_rules,
        **ctx.stats(),
    }
    return QueryResult(
        derived=db.derived,
        mode="layered",
        wall_seconds=time.perf_counter() - start,
        supersteps=layers_visited,
        derivations=derivations,
        stats=stats,
    )


def run_naive(
    store: ProvenanceStore,
    query: Union[str, Program, CompiledQuery],
    graph: Optional[DiGraph] = None,
    params: Optional[Dict[str, Any]] = None,
    udfs: Optional[Dict[str, Callable[..., Any]]] = None,
    memory_budget_bytes: Optional[int] = None,
    budget: Optional[QueryBudget] = None,
) -> QueryResult:
    """Straightforward offline evaluation over the fully materialized graph.

    ``memory_budget_bytes`` reproduces the paper's scaling limit: loading the
    whole provenance graph fails when it exceeds the budget ("Naive was not
    able to scale beyond the two smallest datasets").

    ``budget`` bounds the evaluation like :func:`run_layered`; naive mode
    materializes every layer at once, so the depth bound is checked
    up front against the store's layer count.
    """
    functions = FunctionRegistry(udfs)
    compiled = _compile_offline(query, store, functions, params)
    if compiled.uses_stream:
        raise PQLCompatibilityError(
            "queries over transient stream relations only run online"
        )
    if budget is not None:
        budget.start()
        budget.check_depth(store.num_layers)
    loaded_bytes = store.total_bytes()
    if memory_budget_bytes is not None and loaded_bytes > memory_budget_bytes:
        raise MemoryError(
            f"naive evaluation must materialize the full provenance graph "
            f"({loaded_bytes} bytes) but the budget is {memory_budget_bytes}"
        )

    tracer = get_tracer()
    # Cold path: per-stratum timing is always on here (two clock reads per
    # stratum per layer) so EXPLAIN can show observed costs untraced.
    stratum_seconds: Dict[int, float] = {}
    db = StoreDatabase(store, graph, compiled.head_predicates)
    ctx = db.vector_ctx = VectorContext(budget=budget)
    start = time.perf_counter()
    derivations = run_setup(compiled.static_rules, db, functions,
                            stratum_seconds)
    # The straightforward engine materializes the *unfolded* provenance
    # graph and runs the query vertex program at every provenance node —
    # one per (vertex, superstep) execution. The evaluation site list
    # therefore repeats each vertex once per superstep it was active in,
    # which is exactly the redundancy the compact representation (and
    # layered evaluation) avoid.
    nodes = sorted(store.execution_nodes(), key=repr)
    if nodes:
        sites = [vertex for vertex, _superstep in nodes]
    else:
        sites = sorted(store.vertices(), key=repr)
    with tracer.span(
        "query-eval", PHASE_QUERY, mode="naive", sites=len(sites)
    ):
        derivations += run_strata(
            compiled.strata, MODE_LOCATED, db, functions, sites,
            stratum_seconds=stratum_seconds,
            budget=budget,
        )
    stats = {
        "loaded_bytes": loaded_bytes,
        "unfolded_nodes": len(nodes),
        "sites": len(sites),
        "head_predicates": sorted(compiled.head_predicates),
        "stratum_seconds": stratum_seconds,
        "compiled_rules": compiled.compiled_rules,
        **ctx.stats(),
    }
    return QueryResult(
        derived=db.derived,
        mode="naive",
        wall_seconds=time.perf_counter() - start,
        supersteps=store.num_layers,
        derivations=derivations,
        stats=stats,
    )


def _run_from_spill(
    driver: Callable[..., QueryResult], spill: Any,
    view_budget_bytes: Optional[int], *args: Any, **kwargs: Any,
) -> QueryResult:
    """Run ``driver`` on the manager's read session as one charged run
    (:meth:`~repro.provenance.store.SealedStoreView.charged`) and stamp
    the run's read-side accounting into the result stats. The session
    stays open for the next query."""
    start = time.perf_counter()
    view = spill.view()
    with view.charged(view_budget_bytes) as charge:
        result = driver(view, *args, **kwargs)
    result.wall_seconds = time.perf_counter() - start
    result.stats["from_spill"] = True
    result.stats["store_format"] = SLAB_FORMAT
    result.stats["decoded_bytes"] = charge.decoded_bytes
    result.stats["peak_slab_bytes"] = charge.peak_slab_bytes
    return result


def run_layered_from_spill(
    spill: Any,
    query: Union[str, Program, CompiledQuery],
    graph: Optional[DiGraph] = None,
    params: Optional[Dict[str, Any]] = None,
    udfs: Optional[Dict[str, Callable[..., Any]]] = None,
    memory_budget_bytes: Optional[int] = None,
) -> QueryResult:
    """Layered evaluation straight off sealed layer slabs.

    This is the realistic offline path the paper measures: provenance was
    offloaded to storage during capture and each layer is read when its
    turn comes — no store is rebuilt, and only the columns the plan
    touches are decoded.

    ``memory_budget_bytes`` bounds the load *unit*, one slab's decoded
    column bytes (``stats["peak_slab_bytes"]``): the view raises
    :class:`MemoryError` inside the evaluator the moment any slab
    over-decodes. Layered evaluation therefore succeeds under budgets
    where naive evaluation (which must afford the whole graph — see
    :func:`run_naive_from_spill`) cannot even start. This is Section
    5.1's scalability argument made checkable.
    """
    return _run_from_spill(
        run_layered, spill, memory_budget_bytes, query, graph, params, udfs,
    )


def run_naive_from_spill(
    spill: Any,
    query: Union[str, Program, CompiledQuery],
    graph: Optional[DiGraph] = None,
    params: Optional[Dict[str, Any]] = None,
    udfs: Optional[Dict[str, Callable[..., Any]]] = None,
    memory_budget_bytes: Optional[int] = None,
) -> QueryResult:
    """Naive evaluation over a sealed store.

    ``memory_budget_bytes`` is :func:`run_naive`'s: naive evaluation *is*
    the materialize-everything mode, so it must afford the store's whole
    decoded size up front ("Naive was not able to scale beyond the two
    smallest datasets") — not the smaller compressed size on disk.
    """
    return _run_from_spill(
        run_naive, spill, None, query, graph, params, udfs,
        memory_budget_bytes=memory_budget_bytes,
    )


def run_reference(
    store: ProvenanceStore,
    query: Union[str, Program, CompiledQuery],
    graph: Optional[DiGraph] = None,
    params: Optional[Dict[str, Any]] = None,
    udfs: Optional[Dict[str, Callable[..., Any]]] = None,
) -> QueryResult:
    """Centralized stratified-Datalog oracle (testing ground truth): the
    semi-naive interpreter over the store's rows and the graph. A head
    that is also a stored relation (``superstep(X, I) :- ...``) answers,
    like the other drivers, with what its rules derive from the fixpoint,
    not with its stored rows."""
    functions = FunctionRegistry(udfs)
    compiled = _compile_offline(query, store, functions, params)
    if compiled.uses_stream:
        raise PQLCompatibilityError(
            "queries over transient stream relations only run online"
        )
    start = time.perf_counter()
    with get_tracer().span("query-eval", PHASE_QUERY, mode="reference"):
        facts = evaluate_seminaive(
            compiled.program, store_to_facts(store, graph, readonly=True),
            functions)
    stored = [rel for rel in sorted(compiled.head_predicates)
              if store.has_relation(rel)]
    if stored:  # their rules once more over the fixpoint, heads renamed
        again = Program(tuple(
            Rule(Atom(f"{rule.head.predicate}\x00derived", rule.head.args),
                 rule.body)
            for rule in compiled.program.rules
            if rule.head.predicate in stored))
        rederived = evaluate_seminaive(again, facts, functions)
        for rel in stored:
            facts[rel] = rederived.get(f"{rel}\x00derived", set())
    derived = Relations()
    derivations = sum(len(derived.insert(relation, facts.get(relation, ())))
                      for relation in sorted(compiled.head_predicates))
    return QueryResult(
        derived=derived,
        mode="reference",
        wall_seconds=time.perf_counter() - start,
        supersteps=store.num_layers,
        derivations=derivations,
        stats={"head_predicates": sorted(compiled.head_predicates)},
    )
