"""Offline PQL evaluation over a captured provenance store.

Three drivers share the evaluator core:

* :func:`run_layered` — Section 5.1's layered evaluation. Layers are visited
  in the direction dictated by the query class (ascending for forward,
  descending for backward, per Lemma 5.3); each layer's rules are anchored to
  that superstep, so one pass over the layers suffices.
* :func:`run_naive` — the traditional "straightforward" offline evaluation
  the paper compares against: the whole provenance graph is materialized and
  unanchored rules are re-evaluated over every vertex until a global
  fixpoint, which is why it is consistently the slowest mode (Figure 8).
* :func:`run_reference` — a centralized stratified-Datalog oracle (free
  binding mode, no distribution at all). Not part of the paper's system; the
  test suite uses it as ground truth for the distributed modes.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Set, Union

from repro.errors import PQLCompatibilityError
from repro.graph.digraph import DiGraph
from repro.obs.log import get_logger
from repro.obs.trace import PHASE_QUERY, get_tracer
from repro.pql.analysis import (
    DIRECTION_BACKWARD,
    CompiledQuery,
    compile_query,
)

logger = get_logger("runtime.offline")
from repro.pql.ast import Program
from repro.pql.budget import QueryBudget
from repro.pql.eval import (
    MODE_ANCHORED,
    MODE_FREE,
    MODE_LOCATED,
    run_strata,
)
from repro.pql.parser import parse
from repro.pql.udf import FunctionRegistry
from repro.pql.vectorized import VectorContext
from repro.provenance.store import ProvenanceStore
from repro.runtime.db import StoreDatabase
from repro.runtime.results import QueryResult


def _planner_stats(store: Any, use_index: bool) -> Optional[Dict[str, Any]]:
    """Statistics handed to the planner for scan ordering.

    Sealed columnar stores expose footer statistics (row counts plus
    per-column distinct counts — richer literal ordering); everything
    else degrades to plain row counts. ``None`` (indexing off) keeps the
    stats-free plan shape for the escape-hatch path.
    """
    if not use_index:
        return None
    stats = getattr(store, "stats", None)
    if stats is not None:
        return stats()
    return store.counts()


def _attach_vector_ctx(
    db: StoreDatabase, store: Any, vectorize: bool,
    budget: Optional[QueryBudget] = None,
) -> Optional[VectorContext]:
    """Enable batch-kernel evaluation when the store can serve column
    batches (sealed columnar views); other formats keep the row path —
    attaching a context there would only re-route scans through the
    per-row fallback for no gain."""
    if not vectorize or not hasattr(store, "column_batches"):
        return None
    ctx = VectorContext(budget=budget)
    db.vector_ctx = ctx
    return ctx


def _evaluator_stats(
    ctx: Optional[VectorContext], use_index: bool, vectorize: bool,
    compiled: CompiledQuery,
) -> Dict[str, Any]:
    """The evaluator-choice block shared by all offline drivers (and
    surfaced verbatim by the CLI, benchmarks, and the query server)."""
    out: Dict[str, Any] = {
        "vectorize": vectorize,
        "compiled_rules": compiled.compiled_rules,
        "evaluator": (
            "vectorized" if ctx is not None and ctx.used
            else ("indexed" if use_index else "scan")
        ),
    }
    if ctx is not None:
        out.update(ctx.stats())
    return out


def _compile_offline(
    query: Union[str, Program, CompiledQuery],
    store: ProvenanceStore,
    functions: FunctionRegistry,
    params: Optional[Dict[str, Any]],
    stats: Optional[Dict[str, int]] = None,
) -> CompiledQuery:
    if isinstance(query, CompiledQuery):
        return query
    program = parse(query) if isinstance(query, str) else query
    if params:
        program = program.bind(**params)
    return compile_query(
        program, registry=store.registry, functions=functions, stats=stats
    )


def _run_setup(compiled: CompiledQuery, db: StoreDatabase,
               functions: FunctionRegistry,
               stratum_seconds: Optional[Dict[int, float]] = None) -> int:
    if not compiled.static_rules:
        return 0
    max_stratum = max(c.stratum for c in compiled.static_rules)
    buckets: List[List[Any]] = [[] for _ in range(max_stratum + 1)]
    for crule in compiled.static_rules:
        buckets[crule.stratum].append(crule)
    return run_strata(buckets, MODE_FREE, db, functions, [None],
                      stratum_seconds=stratum_seconds)


def run_layered(
    store: ProvenanceStore,
    query: Union[str, Program, CompiledQuery],
    graph: Optional[DiGraph] = None,
    params: Optional[Dict[str, Any]] = None,
    udfs: Optional[Dict[str, Callable[..., Any]]] = None,
    use_index: bool = True,
    budget: Optional[QueryBudget] = None,
    vectorize: bool = True,
) -> QueryResult:
    """Layered offline evaluation of a directed query.

    ``use_index=False`` disables hash-probe access paths (the ``--no-index``
    escape hatch); ``vectorize=False`` disables batch-kernel evaluation
    over sealed columnar stores (``--no-vectorize``); results are
    byte-identical in every combination.

    ``budget`` bounds the evaluation (depth = layers visited, derived
    rows, wall clock); overruns raise
    :class:`~repro.errors.BudgetExceededError` mid-evaluation — including
    from inside batch kernels, which tick the budget per processed rows.
    """
    functions = FunctionRegistry(udfs)
    compiled = _compile_offline(
        query, store, functions, params,
        stats=_planner_stats(store, use_index),
    )
    compiled.require_layered()
    if budget is not None:
        budget.start()

    tracer = get_tracer()
    # Cold path: per-stratum timing is always on here (two clock reads per
    # stratum per layer) so EXPLAIN can show observed costs untraced.
    stratum_seconds: Dict[int, float] = {}
    db = StoreDatabase(store, graph, compiled.head_predicates)
    db.index_enabled = use_index
    ctx = _attach_vector_ctx(db, store, vectorize, budget)
    start = time.perf_counter()
    derivations = _run_setup(compiled, db, functions, stratum_seconds)

    num_layers = store.num_layers
    order = range(num_layers)
    if compiled.direction == DIRECTION_BACKWARD:
        order = range(num_layers - 1, -1, -1)

    # Sealed columnar views answer "who was active in layer t" from slab
    # footers + group keys without materializing a single row column; the
    # in-memory store materializes the layer dict as before.
    layer_sites = getattr(store, "layer_sites", None)

    peak_layer_rows = 0
    layers_visited = 0
    for layer_index in order:
        if budget is not None:
            budget.note_layer()
        if layer_sites is not None:
            sites: Set[Any] = layer_sites(layer_index)
            layer_rows = store.layer_rows(layer_index)
        else:
            layer = store.layer(layer_index)
            sites = set()
            layer_rows = 0
            for by_vertex in layer.values():
                sites.update(by_vertex)
                layer_rows += sum(len(rows) for rows in by_vertex.values())
        peak_layer_rows = max(peak_layer_rows, layer_rows)
        layers_visited += 1
        if not sites:
            continue
        with tracer.span(
            "query-eval", PHASE_QUERY, mode="layered", layer=layer_index,
            sites=len(sites),
        ):
            derivations += run_strata(
                compiled.strata, MODE_ANCHORED, db, functions,
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
        "use_index": use_index,
        "index_probes": db.index_probes,
        "index_scans": db.index_scans,
    }
    stats.update(_evaluator_stats(ctx, use_index, vectorize, compiled))
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
    use_index: bool = True,
    budget: Optional[QueryBudget] = None,
    vectorize: bool = True,
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
    compiled = _compile_offline(
        query, store, functions, params,
        stats=_planner_stats(store, use_index),
    )
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
    db.index_enabled = use_index
    ctx = _attach_vector_ctx(db, store, vectorize, budget)
    start = time.perf_counter()
    derivations = _run_setup(compiled, db, functions, stratum_seconds)
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
        "use_index": use_index,
        "index_probes": db.index_probes,
        "index_scans": db.index_scans,
    }
    stats.update(_evaluator_stats(ctx, use_index, vectorize, compiled))
    return QueryResult(
        derived=db.derived,
        mode="naive",
        wall_seconds=time.perf_counter() - start,
        supersteps=store.num_layers,
        derivations=derivations,
        stats=stats,
    )


def run_layered_from_spill(
    spill: Any,
    query: Union[str, Program, CompiledQuery],
    graph: Optional[DiGraph] = None,
    params: Optional[Dict[str, Any]] = None,
    udfs: Optional[Dict[str, Callable[..., Any]]] = None,
    memory_budget_bytes: Optional[int] = None,
    use_index: bool = True,
    vectorize: bool = True,
) -> QueryResult:
    """Layered evaluation streaming sealed layer slabs from disk.

    This is the realistic offline path the paper measures: provenance was
    offloaded to storage during capture and each layer is deserialized when
    its turn comes. The working store accumulates (a vertex's compact tables
    must stay addressable), but the *load* is incremental and the evaluation
    visits each layer exactly once.

    ``memory_budget_bytes`` bounds the load *unit*: layered evaluation only
    ever pulls one layer slab through memory at a time, so it succeeds
    under budgets where naive evaluation (which must materialize every slab
    at once — see :func:`run_naive_from_spill`) cannot even load. This is
    Section 5.1's scalability argument made checkable. Columnar stores
    shrink the unit further — from one slab to the columns the plan
    actually decodes — so captures whose *layers* outgrow the budget stay
    queryable as long as no single slab's decoded columns exceed it.
    """
    from repro.provenance.model import SchemaRegistry
    from repro.provenance.spill import open_store_view
    from repro.provenance.store import ProvenanceStore

    functions = FunctionRegistry(udfs)
    start = time.perf_counter()
    view = open_store_view(spill, memory_budget_bytes=memory_budget_bytes)
    if view is not None:
        # Columnar out-of-core path: evaluate directly over the sealed
        # slabs. No store is rebuilt; the view's budget enforcement fires
        # inside the evaluator the moment any slab over-decodes.
        try:
            result = run_layered(
                view, query, graph, params, udfs, use_index=use_index,
                vectorize=vectorize,
            )
            result.wall_seconds = time.perf_counter() - start
            result.stats["from_spill"] = True
            result.stats["store_format"] = "columnar"
            result.stats["decoded_bytes"] = view.decoded_bytes
            result.stats["peak_slab_bytes"] = view.peak_slab_decoded_bytes
            return result
        finally:
            view.close()
    static = spill.load_static()
    registry = SchemaRegistry()
    registry.register_all(static["schemas"].values())
    store = ProvenanceStore(registry)
    # add_all delegates to the store's batched ingestion path, so slab
    # replay amortizes schema checks and size accounting per partition.
    for relation, by_vertex in static["relations"].items():
        for rows in by_vertex.values():
            store.add_all(relation, rows)

    program = parse(query) if isinstance(query, str) else query
    if isinstance(program, Program) and params:
        program = program.bind(**params)
    compiled = (
        program
        if isinstance(program, CompiledQuery)
        else compile_query(
            program, registry=registry, functions=functions,
            stats=store.counts() if use_index else None,
        )
    )
    compiled.require_layered()

    tracer = get_tracer()
    # Cold path: per-stratum timing is always on here (two clock reads per
    # stratum per layer) so EXPLAIN can show observed costs untraced.
    stratum_seconds: Dict[int, float] = {}
    db = StoreDatabase(store, graph, compiled.head_predicates)
    db.index_enabled = use_index
    derivations = _run_setup(compiled, db, functions, stratum_seconds)

    num_layers = static["num_layers"]
    order = range(num_layers)
    if compiled.direction == DIRECTION_BACKWARD:
        order = range(num_layers - 1, -1, -1)

    peak_layer_rows = 0
    peak_slab_bytes = 0
    for layer_index in order:
        slab_bytes = spill.layer_size(layer_index)
        if memory_budget_bytes is not None and slab_bytes > memory_budget_bytes:
            raise MemoryError(
                f"layer {layer_index} slab ({slab_bytes} bytes) exceeds the "
                f"memory budget ({memory_budget_bytes})"
            )
        peak_slab_bytes = max(peak_slab_bytes, slab_bytes)
        layer = spill.load_layer(layer_index)
        sites: Set[Any] = set()
        layer_rows = 0
        for relation, by_vertex in layer.items():
            for vertex, rows in by_vertex.items():
                store.add_all(relation, rows)
                sites.add(vertex)
                layer_rows += len(rows)
        peak_layer_rows = max(peak_layer_rows, layer_rows)
        if not sites:
            continue
        with tracer.span(
            "query-eval", PHASE_QUERY, mode="layered", layer=layer_index,
            sites=len(sites),
        ):
            derivations += run_strata(
                compiled.strata, MODE_ANCHORED, db, functions,
                sorted(sites, key=repr), anchor_time=layer_index,
                stratum_seconds=stratum_seconds,
            )

    stats = {
        "direction": compiled.direction,
        "peak_layer_rows": peak_layer_rows,
        "peak_slab_bytes": peak_slab_bytes,
        "from_spill": True,
        "store_format": (
            spill.store_format() if hasattr(spill, "store_format")
            else "pickle"
        ),
        "head_predicates": sorted(compiled.head_predicates),
        "stratum_seconds": stratum_seconds,
        "use_index": use_index,
        "index_probes": db.index_probes,
        "index_scans": db.index_scans,
    }
    # Rebuilt in-memory stores serve no column batches; the evaluator
    # choice is still reported so callers see why nothing vectorized.
    stats.update(_evaluator_stats(None, use_index, vectorize, compiled))
    return QueryResult(
        derived=db.derived,
        mode="layered",
        wall_seconds=time.perf_counter() - start,
        supersteps=num_layers,
        derivations=derivations,
        stats=stats,
    )


def run_naive_from_spill(
    spill: Any,
    query: Union[str, Program, CompiledQuery],
    graph: Optional[DiGraph] = None,
    params: Optional[Dict[str, Any]] = None,
    udfs: Optional[Dict[str, Callable[..., Any]]] = None,
    memory_budget_bytes: Optional[int] = None,
    use_index: bool = True,
    vectorize: bool = True,
) -> QueryResult:
    """Naive evaluation with its full-materialization load included.

    The budget check stays format-independent: naive evaluation *is* the
    materialize-everything mode, so even over a columnar store it must
    afford every sealed slab up front ("Naive was not able to scale
    beyond the two smallest datasets"). Only after the check passes does
    the columnar path evaluate through the sealed view instead of
    rebuilding an in-memory store.
    """
    from repro.provenance.spill import open_store_view, rebuild_store

    start = time.perf_counter()
    if memory_budget_bytes is not None:
        loaded = spill.total_sealed_bytes()
        if loaded > memory_budget_bytes:
            raise MemoryError(
                f"naive evaluation must materialize all sealed slabs "
                f"({loaded} bytes) but the budget is {memory_budget_bytes}"
            )
    view = open_store_view(spill)
    if view is not None:
        try:
            result = run_naive(
                view, query, graph, params, udfs,
                memory_budget_bytes=None, use_index=use_index,
                vectorize=vectorize,
            )
            result.stats["store_format"] = "columnar"
            result.stats["decoded_bytes"] = view.decoded_bytes
        finally:
            view.close()
    else:
        store = rebuild_store(spill)
        result = run_naive(
            store, query, graph, params, udfs,
            memory_budget_bytes=None, use_index=use_index,
            vectorize=vectorize,
        )
        result.stats["store_format"] = (
            spill.store_format() if hasattr(spill, "store_format")
            else "pickle"
        )
    result.wall_seconds = time.perf_counter() - start
    result.stats["from_spill"] = True
    return result


def run_reference(
    store: ProvenanceStore,
    query: Union[str, Program, CompiledQuery],
    graph: Optional[DiGraph] = None,
    params: Optional[Dict[str, Any]] = None,
    udfs: Optional[Dict[str, Callable[..., Any]]] = None,
    use_index: bool = False,
) -> QueryResult:
    """Centralized stratified-Datalog oracle (testing ground truth).

    Hash-probing is off by default so the oracle stays a pure scanning
    evaluator — an index bug can then never blind the differential tests
    that compare the other modes against it.
    """
    functions = FunctionRegistry(udfs)
    compiled = _compile_offline(query, store, functions, params)
    if compiled.uses_stream:
        raise PQLCompatibilityError(
            "queries over transient stream relations only run online"
        )
    db = StoreDatabase(store, graph, compiled.head_predicates)
    db.index_enabled = use_index
    start = time.perf_counter()
    derivations = _run_setup(compiled, db, functions)
    with get_tracer().span("query-eval", PHASE_QUERY, mode="reference"):
        derivations += run_strata(
            compiled.strata, MODE_FREE, db, functions, [None]
        )
    return QueryResult(
        derived=db.derived,
        mode="reference",
        wall_seconds=time.perf_counter() - start,
        supersteps=store.num_layers,
        derivations=derivations,
        stats={
            "head_predicates": sorted(compiled.head_predicates),
            "use_index": use_index,
            "index_probes": db.index_probes,
            "index_scans": db.index_scans,
            "compiled_rules": compiled.compiled_rules,
        },
    )
