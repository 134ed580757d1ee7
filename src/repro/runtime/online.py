"""Online PQL evaluation — the paper's headline contribution (Section 5.2).

A forward (or local) query is compiled into a *query vertex program*
appended to the unmodified analytic. The engine runs the analytic's own
``compute`` on its own context, unwrapped; the query rides along once per
superstep, in :meth:`OnlineQueryProgram.post_superstep` — the engine's
program-level hook, after the superstep's last compute — which reads the
superstep as relations:

1. the *vertex relation*: the engine's executed vertices in compute order
   (``engine.order``) and their values (``engine.values``) become the
   ``superstep`` / ``value`` / ``vertex_value`` / ``evolution`` frames in
   one column pass each, a row per vertex, each value frozen once — only
   the relations the query references (the paper's customized capture);
2. the *message relation*: ``send_message`` / ``send`` are framed from the
   superstep's send log (:class:`~repro.engine.engine.SendLog`) and
   ``edge_value`` from its edge-update log; ``receive_message`` /
   ``receive`` are the receiver table the barrier built out of the previous
   superstep's log (:class:`~repro.runtime.db.Inbox`), its payload column
   that log's, regrouped by receiver.

Then the *superstep program* runs: every rule evaluates once, as a layer
program over all the executed vertices (the location a column, the frames
and stored relations column batches), the fresh head rows go to the
capture store, the frames die, windowed relations drop the layers that
left their window, and each sender's watermark toward every target it
messaged moves on to this superstep. A vertex reads another vertex's
relations only up to that watermark — what per-target deltas would have
shipped — unless the compiler proved the read complete: the sender of a
message the anchor received, read at a time before the anchor, has
shipped all of it (``ScanStep.complete``).

Theorem 5.4's two guarantees hold by construction (DESIGN.md §18): the
analytic computes on the bare engine's context and the query reads the
engine's tables only in the hook; a vertex reads another vertex's
relations only through a watermark, which exists only for a (sender,
target) pair in the analytic's send log, or where that watermark provably
covers the read.

When a ``capture`` store is supplied, every derived head tuple is also
persisted — capture *is* online evaluation of the capture query (Figure 1a).
A persisted head no other rule reads is held by the store alone, and the
result answers it from there.
"""

from __future__ import annotations

import time
from itertools import compress, groupby, repeat
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.analytics.base import Analytic
from repro.engine.config import EngineConfig
from repro.engine.engine import PregelEngine, SendLog
from repro.engine.vertex import VertexProgram
from repro.errors import EngineError, PQLCompatibilityError
from repro.graph.digraph import DiGraph
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.obs.trace import PHASE_CAPTURE, PHASE_PLAN, PHASE_QUERY, get_tracer
from repro.pql.analysis import CompiledQuery, compile_query, relation_windows
from repro.pql.ast import Program
from repro.pql.eval import MODE_ANCHORED, prepare_strata, run_prepared, run_setup
from repro.pql.parser import parse
from repro.pql.udf import FunctionRegistry
from repro.pql.vectorized import CopiedRows, VectorContext
from repro.provenance.columnar import SlabColumns
from repro.provenance.model import CORE_SCHEMAS, SchemaRegistry, freeze
from repro.provenance.spill import SpillManager
from repro.provenance.store import Layer, ProvenanceStore
from repro.runtime.db import Inbox, OnlineDatabase, frozen_payloads
from repro.runtime.results import OnlineRunResult, QueryResult

logger = get_logger("runtime.online")

_second = itemgetter(1)
#: The columns a multi-row frame tests for repeats: the target and the
#: payload or value (``send_message``, ``send``, ``edge_value``).
_PROBE = (1, 2)


class _PersistingOnlineDatabase(OnlineDatabase):
    """Online database that also persists derived head tuples to a store.

    A persisted head's fresh rows go to the store as they are derived, one
    :meth:`ProvenanceStore.add_batch` per rule and superstep — safe because
    the capture store is write-only while the run is live: online
    evaluation reads the frames and the derived/local layers, never the
    store.

    A persisted head in ``store_only`` — no rule reads it but its own exact
    copy, it is not shipped, and its rows cannot repeat across supersteps
    — is held once: its rows go to the store only, which deduplicates them,
    and never into ``derived``. A copy program's rows arrive as columns
    (:class:`~repro.pql.vectorized.CopiedRows`) and are appended as such.
    """

    def __init__(self, *args: Any, capture: Optional[ProvenanceStore],
                 persist: Set[str], **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.capture = capture
        self.persist = persist if capture is not None else set()
        self.store_only: Set[str] = set()

    def add_rows(self, relation: str, rows: Any, layer: Any = None) -> int:
        if relation in self.store_only:
            if type(rows) is CopiedRows:
                return self.capture.append_columns(
                    relation, rows.columns, rows.spans)
            return self.capture.add_batch(relation, rows)
        fresh = self.derived.insert(relation, rows, layer)
        if relation in self.persist:
            self.capture.add_batch(relation, fresh)
        return len(fresh)


class OnlineQueryProgram(VertexProgram):
    """The analytic with the compiled PQL query appended (Figure 2).

    The engine runs the analytic's own ``compute``, ``initial_value`` and
    ``aggregators``: the program binds them. :meth:`post_superstep` reads
    the superstep from ``engine`` — its executed vertices, their values,
    its send log and receiver table — and evaluates the query once over
    every vertex the superstep executed. The program runs on ``engine``
    only.
    """

    def __init__(
        self,
        inner: VertexProgram,
        compiled: CompiledQuery,
        functions: FunctionRegistry,
        engine: PregelEngine,
        store: Optional[ProvenanceStore] = None,
        value_projector: Optional[Callable[[Any], Any]] = None,
        prune_history: bool = True,
        spill: Optional[SpillManager] = None,
    ) -> None:
        compiled.require_online()
        aggregate_heads = {
            c.head_predicate for c in compiled.rules if c.is_aggregate
        }
        shipped_aggregates = aggregate_heads & compiled.remote_relations
        if shipped_aggregates:
            raise PQLCompatibilityError(
                "aggregate relations cannot be referenced remotely in online "
                f"evaluation: {sorted(shipped_aggregates)}"
            )
        self.inner = inner
        self.name = f"online[{inner.name}]"
        # the engine calls the analytic itself
        self.compute = inner.compute
        self.initial_value = inner.initial_value
        self.aggregators = inner.aggregators
        self.compiled = compiled
        self.functions = functions
        self.value_projector = value_projector
        # Superstep frames and window pruning. A relation that no rule
        # reads at any superstep but the anchor one (the stream relations
        # always; with `prune_history`, every auto-captured relation of
        # window 0) lives in the superstep's frame and is gone when the
        # superstep has been evaluated; one with a bounded window >= 1 is
        # stored and pruned per superstep; the rest are stored for the
        # whole run. Shipped relations are always stored and never pruned:
        # a watermark reads every layer up to a superstep. Persisted heads
        # are unaffected: capture hands them to the store, not to these
        # transient relations.
        framed = set(compiled.stream_relations)
        self._windows: Dict[str, int] = {}
        if prune_history:
            for relation, window in relation_windows(compiled).items():
                if window is None or relation in compiled.remote_relations:
                    continue
                if window == 0:
                    framed.add(relation)
                else:
                    self._windows[relation] = window
        self._stored = sorted(compiled.auto_capture - framed)
        # receive_message / receive are the Inbox, not frames.
        self._recorded = {
            relation: CORE_SCHEMAS[relation].arity
            for relation in sorted(compiled.auto_capture
                                   | compiled.stream_relations)
            if relation not in ("receive_message", "receive")}
        self.engine = engine
        self.db = _PersistingOnlineDatabase(
            engine.graph,
            compiled.head_predicates,
            framed,
            compiled.remote_relations,
            capture=store,
            persist=set(compiled.head_predicates),
        )
        self.db.vector_ctx = VectorContext()
        if store is not None:
            self.db.store_only = _store_only_heads(compiled)
        # Incremental layer sealing: with a spill manager attached, each
        # superstep's completed layer is handed to the writer at the
        # barrier (master_halt) instead of being re-materialized by
        # seal_all at run end.
        self._capture_spill = spill
        self.sealed_layers = 0
        # superstep -> the layer's row count at its last seal
        self._sealed_rows: List[int] = []
        need = compiled.auto_capture
        self._need_superstep = "superstep" in need
        self._need_value = "value" in need
        self._need_evolution = "evolution" in need
        self._need_send = "send_message" in need
        self._need_edge_value = "edge_value" in need
        stream = compiled.stream_relations
        self._need_stream_value = "vertex_value" in stream
        self._need_stream_send = "send" in stream
        self._reads_inbox = "receive_message" in need or "receive" in stream
        # The last superstep's send log and the frozen copy of its payloads
        # a send frame made (None: none did): what the next Inbox reads.
        self._sent: Tuple[SendLog, Optional[List[Any]]] = (SendLog(), None)
        # Every fact a superstep program derives carries its superstep, so
        # a lagged scan is no dependency within it (Lemma 5.3).
        self._prepared = prepare_strata(compiled.strata, anchored=True)
        self.pruned_rows = 0
        self.shipped_tuples = 0
        self._last_active: Dict[Any, int] = {}
        self.derivations = 0
        self.query_seconds = 0.0

    # -- the analytic's master hooks ----------------------------------------
    def master_halt(self, aggregators: Any, superstep: int) -> bool:
        halt = self.inner.master_halt(aggregators, superstep)
        if self.db.persist:
            # The barrier for `superstep` has passed: its layer is
            # complete. Seal the finished layer(s).
            self._capture_barrier(superstep, superstep=superstep)
        return halt

    def _capture_barrier(self, through: int, **attrs: Any) -> None:
        """One ``provenance-capture`` span: seal the completed layers up to
        ``through`` and stamp the store's ingest counters."""
        store = self.db.capture
        with get_tracer().span("provenance-capture", PHASE_CAPTURE,
                               **attrs) as span:
            if self._capture_spill is not None:
                self._seal_completed(min(through, store.max_superstep))
            span.set(permuted_layers=store.permuted_layers,
                     dedup_rows=store.dedup_rows)

    def _seal_completed(self, through: int) -> None:
        """Seal every layer up to ``through`` that is not sealed yet, and
        re-seal any sealed layer that gained rows since its last seal (a
        re-seal just overwrites the slab, so late rows cost one write)."""
        store = self.db.capture
        sealed = self._sealed_rows
        for t in range(max(through + 1, len(sealed))):
            rows = store.layer_rows(t)
            if t == len(sealed):
                sealed.append(rows)
            elif sealed[t] != rows:
                sealed[t] = rows
            else:
                continue
            self._capture_spill.seal_layer(t)
            self.sealed_layers += 1

    def finish_capture(self) -> None:
        """Seal what the last supersteps added after the engine loop — the
        engine's early-halt paths can skip the final ``master_halt``. The
        static slab is left to ``seal_all``."""
        if self.db.persist:
            self._capture_barrier(self.db.capture.max_superstep)

    def combiner(self):
        return None  # receive_message needs each sender's message

    # -- setup -------------------------------------------------------------
    def run_setup(self) -> None:
        """Evaluate static rules (e.g. Query 4's in-degree) once."""
        if not self.compiled.static_rules:
            return
        with get_tracer().span("query-eval", PHASE_QUERY, mode="setup"):
            self.derivations += run_setup(
                self.compiled.static_rules, self.db, self.functions)

    # -- the superstep's frames ----------------------------------------------
    def _record_vertices(self, superstep: int,
                         sites: List[Any]) -> Dict[str, Layer]:
        """The executed vertices' frames, one column pass each: a row per
        vertex in compute order, its value frozen once."""
        n = len(sites)
        groups = dict(zip(sites, zip(range(n), repeat(1))))
        stamp = [superstep] * n
        frames: Dict[str, List[List[Any]]] = {}
        if self._need_superstep:
            frames["superstep"] = [sites, stamp]
        if self._need_value or self._need_stream_value:
            values = list(map(self.engine.values.__getitem__, sites))
            if self.value_projector is not None:
                values = list(map(self.value_projector, values))
            values = frozen_payloads(values)
            if self._need_value:
                frames["value"] = [sites, values, stamp]
            if self._need_stream_value:
                frames["vertex_value"] = [sites, values]
        out = {relation: Layer.of(SlabColumns(columns, n, groups))
               for relation, columns in frames.items()}
        if self._need_evolution:
            last = self._last_active
            before = list(map(last.get, sites))
            last.update(zip(sites, repeat(superstep)))
            xs = sites
            if None in before:
                ran = [j is not None for j in before]
                xs = list(compress(sites, ran))
                before = list(compress(before, ran))
            out["evolution"] = Layer.of(SlabColumns(
                [xs, before, [superstep] * len(xs)], len(xs),
                groups if xs is sites
                else dict(zip(xs, zip(range(len(xs)), repeat(1))))))
        return out

    def _record_messages(self, superstep: int, frames: Dict[str, Layer],
                         ) -> None:
        """Frame the superstep's sends and edge updates from the engine's
        logs — the send log's columns, each sender's span one group, its
        payloads frozen once — and keep the log for the next superstep's
        Inbox."""
        log = self.engine.send_log
        frozen = None
        if log.spans and (self._need_send or self._need_stream_send):
            frozen = frozen_payloads(log.payloads)
            runs = list(zip(log.spans, map(_second, log.spans.values())))
            columns = [log.senders, log.targets, frozen]
            if self._need_send:
                frames["send_message"].append(
                    columns + [[superstep] * len(log.targets)], runs, _PROBE)
            if self._need_stream_send:
                frames["send"].append(columns, runs, _PROBE)
        self._sent = (log, frozen)
        updates = self.engine.edge_updates
        if self._need_edge_value and updates:
            vertices, targets, values = map(list, zip(*updates))
            frames["edge_value"].append(
                [vertices, targets, [freeze(value) for value in values],
                 [superstep] * len(updates)],
                [(x, len(list(run))) for x, run in groupby(vertices)],
                _PROBE)

    def post_superstep(self, superstep: int) -> None:
        """Evaluate the query over the superstep just computed: every rule
        runs once as a layer program over all the executed vertices, then
        the frames are dropped, windows pruned and each sender's watermarks
        moved. Reads no analytic context, and moves watermarks only along
        the analytic's own sends (Theorem 5.4)."""
        engine = self.engine
        if engine.superstep != superstep:  # its logs are what we read
            raise EngineError("an online query runs on its own engine only")
        self.inner.post_superstep(superstep)
        received = self._sent  # what the last superstep sent
        sites = engine.order
        frames = {relation: Layer(arity)
                  for relation, arity in self._recorded.items()}
        self._record_messages(superstep, frames)
        if not sites:
            return
        frames.update(self._record_vertices(superstep, sites))
        with get_tracer().span("query-eval", PHASE_QUERY,
                               superstep=superstep, sites=len(sites)):
            started = time.perf_counter()
            db = self.db
            inbox = (Inbox(engine.inbox_senders, sites, superstep, *received)
                     if self._reads_inbox else None)
            # Facts a later superstep may read leave the frame for the store.
            for relation in self._stored:
                db.keep(relation, superstep, inbox.layer()
                        if relation == "receive_message"
                        else frames.pop(relation))
            db.begin(superstep, frames, inbox)
            self.derivations += run_prepared(
                self._prepared, MODE_ANCHORED, db, self.functions, sites,
                anchor_time=superstep,
            )
            # The frames die here; a bounded-window relation sheds the
            # layer that just left its window.
            db.begin(None, {}, None)
            for frame in frames.values():
                self.pruned_rows += frame.count
            framed = db.frame_relations & {"receive_message", "receive"}
            if inbox is not None and framed:
                self.pruned_rows += len(framed) * inbox.distinct_count()
            for relation, window in self._windows.items():
                self.pruned_rows += db.local.drop_before(
                    relation, superstep - window)
            if db.shipped:
                self.shipped_tuples += db.ship(engine.send_log, superstep)
            self.query_seconds += time.perf_counter() - started

    @property
    def transient_rows(self) -> int:
        """The auto-captured rows the run still holds for later supersteps
        (what window pruning and frames keep down)."""
        return sum(self.db.local.counts().values())

    def publish_metrics(self) -> None:
        """Fold the run's capture counters into the process metrics
        registry."""
        registry = get_registry()
        registry.counter(
            "repro_capture_derivations_total", "derived head tuples"
        ).inc(self.derivations)
        registry.counter(
            "repro_capture_shipped_tuples_total",
            "delta tuples piggybacked on messages",
        ).inc(self.shipped_tuples)
        registry.counter(
            "repro_capture_pruned_rows_total",
            "transient rows dropped with their frame or by window pruning",
        ).inc(self.pruned_rows)
        store = self.db.capture
        if store is not None:
            registry.counter(
                "repro_capture_permuted_layers_total",
                "capture layers scattered by a second append of a vertex "
                "(permuted vertex-major before a read or seal)",
            ).inc(store.permuted_layers)
            registry.counter(
                "repro_capture_dedup_rows_total",
                "captured rows checked row by row against a vertex's "
                "stored rows",
            ).inc(store.dedup_rows)


def _store_only_heads(compiled: CompiledQuery) -> Set[str]:
    """The captured heads a capture holds in its store only: no rule reads
    one but its own exact copy, none is shipped or aggregated, and its
    rows cannot repeat across supersteps — every rule deriving it writes
    the anchor superstep at one head position, or it is derived once, in
    setup — so deduplicating one flush's rows deduplicates them all."""
    read = {rel for c in compiled.rules if not c.is_self_copy
            for rel in c.body_relations}
    rules: Dict[str, List[Any]] = {}
    for crule in compiled.rules:
        rules.setdefault(crule.head_predicate, []).append(crule)
    heads = set()
    for head, defs in rules.items():
        stamps = {c.head_time_index for c in defs}
        if (head not in read and head not in compiled.remote_relations
                and not any(c.is_aggregate for c in defs)
                and (all(c.is_static for c in defs)
                     or len(stamps) == 1 and None not in stamps)):
            heads.add(head)
    return heads


def _as_program(
    inner: Union[Analytic, VertexProgram]
) -> Tuple[VertexProgram, Optional[Callable[[Any], Any]]]:
    if isinstance(inner, Analytic):
        return inner.make_program(), inner.provenance_value
    return inner, None


def run_online(
    graph: DiGraph,
    analytic: Union[Analytic, VertexProgram],
    query: Union[str, Program, CompiledQuery],
    params: Optional[Dict[str, Any]] = None,
    udfs: Optional[Dict[str, Callable[..., Any]]] = None,
    capture: bool = False,
    config: Optional[EngineConfig] = None,
    spill_directory: Optional[str] = None,
) -> OnlineRunResult:
    """Run ``analytic`` on ``graph`` with ``query`` evaluated online.

    ``query`` may be PQL source text, a parsed program, or an already
    compiled query. With ``capture=True`` the derived head relations are
    persisted into a fresh :class:`ProvenanceStore` returned on the result.
    With ``spill_directory`` as well, a :class:`SpillManager` seals each
    layer to a zlib ARSC slab at the barrier that completes it, on the
    engine's thread, and is returned on ``result.spill`` — call
    ``result.spill.seal_all()`` to finish the static slab.

    ``config`` is the engine's, unchanged: its ``max_supersteps`` caps the
    run. The engine folds no messages, because the query program's
    :meth:`~OnlineQueryProgram.combiner` is ``None`` — ``receive_message``
    needs each sender's message.
    """
    functions = FunctionRegistry(udfs)
    tracer = get_tracer()
    with tracer.span("plan", PHASE_PLAN):
        compiled = _compile(query, functions, params)
        program, projector = _as_program(analytic)

        store: Optional[ProvenanceStore] = None
        if capture:
            store = ProvenanceStore()
            store.registry.register_all(compiled.idb_schemas.values())

        spill: Optional[SpillManager] = None
        if capture and spill_directory is not None:
            spill = SpillManager(store, directory=spill_directory)
        engine = PregelEngine(graph, config=config)
        wrapper = OnlineQueryProgram(
            program, compiled, functions, engine, store=store,
            value_projector=projector,
            spill=spill,
        )
    wrapper.run_setup()

    run = engine.run(wrapper)
    wrapper.finish_capture()
    wrapper.publish_metrics()
    logger.debug(
        "online run %s: %d supersteps, %d derivations, %.3fs query time",
        wrapper.name, run.num_supersteps, wrapper.derivations,
        wrapper.query_seconds,
    )

    query_result = QueryResult(
        derived=wrapper.db.derived,
        mode="capture" if capture else "online",
        wall_seconds=run.metrics.wall_seconds,
        supersteps=run.num_supersteps,
        derivations=wrapper.derivations,
        stats={
            "query_seconds": wrapper.query_seconds,
            "head_predicates": sorted(compiled.head_predicates),
            "pruned_rows": wrapper.pruned_rows,
            "transient_rows": wrapper.transient_rows,
            "shipped_tuples": wrapper.shipped_tuples,
            "sealed_layers": wrapper.sealed_layers,
            "compiled_rules": compiled.compiled_rules,
            **({"permuted_layers": store.permuted_layers,
                "dedup_rows": store.dedup_rows} if store is not None else {}),
            **wrapper.db.vector_ctx.stats(),
        },
        store=store,
        store_only=frozenset(wrapper.db.store_only),
    )
    return OnlineRunResult(
        analytic=run, query=query_result, store=store, spill=spill
    )


def _compile(
    query: Union[str, Program, CompiledQuery],
    functions: FunctionRegistry,
    params: Optional[Dict[str, Any]],
    registry: Optional[SchemaRegistry] = None,
) -> CompiledQuery:
    if isinstance(query, CompiledQuery):
        return query
    program = parse(query) if isinstance(query, str) else query
    if params:
        program = program.bind(**params)
    return compile_query(program, registry=registry, functions=functions)
