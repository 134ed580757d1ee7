"""Online PQL evaluation — the paper's headline contribution (Section 5.2).

A forward (or local) query is compiled into a *query vertex program* that
wraps the unmodified analytic. Every superstep, each active vertex:

1. unwraps incoming envelopes, handing the analytic its payloads and merging
   piggybacked query tables into the vertex's remote partitions;
2. runs the analytic's ``compute`` through a recording context that buffers
   its outgoing messages and observes value/edge updates;
3. records the transient provenance facts of this superstep — but only the
   relations the query actually references (the paper's customized capture)
   — into the compute's *frame*; only the relations a later superstep can
   still read (or a neighbor is shipped) move on into the tuple store;
4. evaluates the query's strata to a local fixpoint, anchored at the current
   superstep;
5. drops the frame, prunes the stored relations whose window just moved,
   and releases the buffered messages as envelopes, each carrying the delta
   of every remotely-referenced relation since the last shipment to its
   target (one watermark tuple per target; targets at the same watermark
   share one table).

Theorem 5.4's two guarantees hold by construction: the analytic cannot see
query state (its context is a proxy; tables ride in envelope fields the
analytic never reads), and query messages travel only on edges the analytic
itself used.

When a ``capture`` store is supplied, every derived head tuple is also
persisted — capture *is* online evaluation of the capture query (Figure 1a).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analytics.base import Analytic
from repro.engine.config import EngineConfig
from repro.engine.vertex import VertexContext, VertexProgram
from repro.errors import PQLCompatibilityError
from repro.graph.digraph import DiGraph
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.obs.trace import PHASE_CAPTURE, PHASE_QUERY, get_tracer
from repro.parallel.backend import make_engine
from repro.pql.analysis import CompiledQuery, compile_query, relation_windows
from repro.pql.ast import Program
from repro.pql.eval import (
    MODE_ANCHORED, MODE_FREE, compiled_fn, prepare_strata, run_prepared, run_strata,
)
from repro.pql.parser import parse
from repro.pql.udf import FunctionRegistry
from repro.provenance.model import SchemaRegistry, freeze
from repro.provenance.spill import SpillManager
from repro.provenance.store import ProvenanceStore
from repro.runtime.db import OnlineDatabase
from repro.runtime.envelope import Envelope
from repro.runtime.results import OnlineRunResult, QueryResult

logger = get_logger("runtime.online")


class RecordingContext:
    """Proxy context handed to the analytic: buffers sends, observes
    value/edge updates, delegates everything else to the real context.

    One recorder is reused across all compute calls of a run (rebound per
    vertex via :meth:`_rebind`) to keep the capture hot path allocation-free,
    mirroring how the engine reuses its :class:`VertexContext`.
    """

    __slots__ = ("_ctx", "sends", "edge_updates")

    def __init__(self, ctx: Optional[VertexContext] = None) -> None:
        self._ctx = ctx
        self.sends: List[Tuple[Any, Any]] = []
        self.edge_updates: List[Tuple[Any, Any]] = []

    def _rebind(self, ctx: VertexContext) -> None:
        self._ctx = ctx
        self.sends = []
        self.edge_updates = []

    # -- intercepted -------------------------------------------------------
    def send(self, target: Any, message: Any) -> None:
        self.sends.append((target, message))

    def send_to_all(self, message: Any) -> None:
        for target, _value in self._ctx.out_edges():
            self.sends.append((target, message))

    def set_edge_value(self, target: Any, value: Any) -> None:
        self.edge_updates.append((target, value))
        self._ctx.set_edge_value(target, value)

    # -- delegated ---------------------------------------------------------
    @property
    def vertex_id(self) -> Any:
        return self._ctx.vertex_id

    @property
    def superstep(self) -> int:
        return self._ctx.superstep

    @property
    def value(self) -> Any:
        return self._ctx.value

    def set_value(self, value: Any) -> None:
        self._ctx.set_value(value)

    @property
    def num_vertices(self) -> int:
        return self._ctx.num_vertices

    def out_edges(self):
        return self._ctx.out_edges()

    def out_neighbors(self):
        return self._ctx.out_neighbors()

    def in_neighbors(self):
        return self._ctx.in_neighbors()

    def out_degree(self) -> int:
        return self._ctx.out_degree()

    def edge_value(self, target: Any) -> Any:
        return self._ctx.edge_value(target)

    def vote_to_halt(self) -> None:
        self._ctx.vote_to_halt()

    def aggregate(self, name: str, value: Any) -> None:
        self._ctx.aggregate(name, value)

    def aggregated(self, name: str) -> Any:
        return self._ctx.aggregated(name)


class _PersistingOnlineDatabase(OnlineDatabase):
    """Online database that also persists derived head tuples to a store.

    Fresh head tuples are buffered per relation and drained in batches
    through :meth:`ProvenanceStore.add_batch` (schema checks, interning and
    size accounting amortize per batch instead of per row). Buffering is
    safe because the capture store is write-only while the run is live:
    online evaluation reads the derived/local partitions, never the store.
    """

    def __init__(self, *args: Any, store: Optional[ProvenanceStore],
                 persist: Set[str], **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.store = store
        self.persist = persist if store is not None else set()
        self._pending: Dict[str, List[Tuple[Any, ...]]] = {}

    def add_rows(self, relation: str, rows: Any) -> int:
        if relation not in self.persist:
            return self._insert(relation, rows, None)
        # A bucket appears with its first fresh row: the store's relation
        # order (and so its sealed bytes) follows bucket order.
        bucket = self._pending.get(relation, [])
        new = self._insert(relation, rows, bucket)
        if new:
            self._pending[relation] = bucket
        return new

    def disable_persistence(self) -> None:
        """Stop persisting and drop the buffer (forked parallel workers:
        their store copy dies with the process; the master re-derives the
        shard's head tuples from ``parallel_state``)."""
        self.persist = set()
        self._pending.clear()

    def flush_captured(self) -> Set[int]:
        """Drain buffered head tuples into the store; returns the set of
        supersteps the flush touched (for incremental layer sealing)."""
        pending = self._pending
        if not pending:
            return set()
        self._pending = {}
        store = self.store
        registry = store.registry
        touched: Set[int] = set()
        for relation, rows in pending.items():
            store.add_batch(relation, rows)
            time_index = registry.get(relation).time_index
            if time_index is not None:
                for row in rows:
                    touched.add(row[time_index])
        return touched


class OnlineQueryProgram(VertexProgram):
    """The analytic with the compiled PQL query appended (Figure 2)."""

    def __init__(
        self,
        inner: VertexProgram,
        compiled: CompiledQuery,
        functions: FunctionRegistry,
        graph: DiGraph,
        store: Optional[ProvenanceStore] = None,
        value_projector: Optional[Callable[[Any], Any]] = None,
        prune_history: bool = True,
        ship_full_tables: bool = False,
        timed_index: bool = True,
        spill: Optional[SpillManager] = None,
        eager_seal: bool = True,
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
        self.compiled = compiled
        self.functions = functions
        self.value_projector = value_projector or (lambda v: v)
        # Superstep frames and window pruning. A relation that no rule
        # reads at any superstep but the anchor one (the stream relations
        # always; with `prune_history`, every auto-captured relation of
        # window 0) lives in the per-compute frame and is gone when
        # `compute` returns; one with a bounded window >= 1 is stored and
        # pruned per superstep; the rest are stored for the whole run.
        # Shipped relations are always stored — their watermarks index the
        # insertion-order log. Persisted heads are unaffected: capture
        # hands them to the store, not to these transient relations.
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
        self.db = _PersistingOnlineDatabase(
            graph,
            compiled.head_predicates,
            framed,
            store=store,
            persist=set(compiled.head_predicates),
        )
        # Incremental layer sealing: with a spill manager attached, each
        # superstep's completed layer is handed to the writer at the
        # barrier (master_halt) instead of being re-materialized by
        # seal_all at run end. Serial backend only (``eager_seal``) — under
        # the parallel backend the master's store fills at merge time.
        self._capture_spill = spill if eager_seal else None
        self.sealed_layers = 0
        self._sealed_through = -1
        need = compiled.auto_capture
        self._need_superstep = "superstep" in need
        self._need_value = "value" in need
        self._need_evolution = "evolution" in need
        self._need_send = "send_message" in need
        self._need_receive = "receive_message" in need
        self._need_edge_value = "edge_value" in need
        stream = compiled.stream_relations
        self._need_stream_value = "vertex_value" in stream
        self._need_stream_send = "send" in stream
        self._need_stream_receive = "receive" in stream
        self._prepared = prepare_strata(compiled.strata)
        # Generated before any fork, so workers inherit the functions and
        # every backend reports the same `compiled_rules`.
        for stratum, _ in self._prepared:
            for crule in stratum:
                compiled_fn(crule, MODE_ANCHORED)
        self.pruned_rows = 0
        # Ablation switches: ship full tables instead of per-target deltas
        # (measures the value of watermark shipping) and disable the
        # per-superstep partition index (measures the value of time slices).
        self.ship_full_tables = ship_full_tables
        self.timed_index = timed_index
        # Delta piggybacking: the shipped relations with the store each
        # one's partition lives in, and per (vertex, target) the partition
        # lengths already shipped (vertex -> target -> tuple aligned with
        # `_shipped`).
        self._shipped = [
            (rel, self.db.derived if rel in compiled.head_predicates
             else self.db.local)
            for rel in sorted(compiled.remote_relations)
        ]
        self._watermarks: Dict[Any, Dict[Any, Tuple[int, ...]]] = {}
        self._recorder = RecordingContext()
        self.shipped_tuples = 0
        self._last_active: Dict[Any, int] = {}
        self.derivations = 0
        self.query_seconds = 0.0
        # Window pruning effectiveness: a hit is a (relation, vertex)
        # partition that existed when its window was enforced, a miss is a
        # window check that found no partition to prune.
        self.prune_hits = 0
        self.prune_misses = 0
        # Tracing: per-vertex timings are accumulated and flushed as one
        # synthetic span per phase per superstep (per-vertex spans would
        # dominate the work they measure). Resolved once at construction —
        # the tracer active when the run starts is the one that sees it.
        self._tracer = get_tracer()
        self._traced = self._tracer.enabled
        self._trace_superstep = -1
        self._capture_ns = 0
        self._eval_ns = 0
        # Parallel-backend merge state: counter baselines recorded at
        # worker start (the wrapper is forked after run_setup, so worker
        # deltas must exclude the inherited setup work) and transient-row
        # counts folded in from worker shards at merge time.
        self._parallel_base: Dict[str, Any] = {}
        self._merged_transient_rows = 0

    # -- delegation to the analytic --------------------------------------
    def initial_value(self, vertex_id: Any, graph: Any) -> Any:
        return self.inner.initial_value(vertex_id, graph)

    def aggregators(self):
        return self.inner.aggregators()

    def master_halt(self, aggregators: Any, superstep: int) -> bool:
        halt = self.inner.master_halt(aggregators, superstep)
        if self.db.persist:
            # The barrier for `superstep` has passed: its layer is
            # complete. Batch-flush the buffered head tuples, then hand
            # the finished layer(s) to the spill writer.
            touched = self.db.flush_captured()
            if self._capture_spill is not None:
                self._seal_completed(touched, superstep)
        return halt

    def _seal_completed(self, touched: Set[int], through: int) -> None:
        """Seal every layer up to ``through`` that is not sealed yet, and
        re-seal any already-sealed layer the last flush appended to (a
        re-seal just overwrites the slab, so late rows cost one write)."""
        spill = self._capture_spill
        sealed_through = self._sealed_through
        for t in sorted(touched):
            if t <= sealed_through:
                spill.seal_layer_nowait(t)
                self.sealed_layers += 1
        through = min(through, self.db.store.max_superstep)
        while sealed_through < through:
            sealed_through += 1
            spill.seal_layer_nowait(sealed_through)
            self.sealed_layers += 1
        self._sealed_through = sealed_through

    def finish_capture(self) -> None:
        """Flush buffered captured rows after the engine loop — the
        engine's early-halt paths can skip the final ``master_halt`` — and
        re-seal any layer that final flush touched. Layers never sealed
        eagerly (and the static slab) are left to ``seal_all``."""
        if not self.db.persist:
            return
        touched = self.db.flush_captured()
        if self._capture_spill is not None and touched:
            self._seal_completed(touched, max(touched))

    def combiner(self):
        return None  # envelopes carry senders and tables; never combine

    # -- setup -------------------------------------------------------------
    def run_setup(self) -> None:
        """Evaluate static rules (e.g. Query 4's in-degree) once."""
        if not self.compiled.static_rules:
            return
        max_stratum = max(c.stratum for c in self.compiled.static_rules)
        buckets: List[List[Any]] = [[] for _ in range(max_stratum + 1)]
        for crule in self.compiled.static_rules:
            buckets[crule.stratum].append(crule)
        self.derivations += run_strata(
            buckets, MODE_FREE, self.db, self.functions, [None]
        )

    # -- the appended vertex program --------------------------------------
    def compute(self, ctx: VertexContext, messages: Sequence[Envelope]) -> None:
        x = ctx.vertex_id
        s = ctx.superstep
        db = self.db
        frame = db.begin_vertex(x)
        traced = self._traced
        if traced and s != self._trace_superstep:
            self._flush_phase_spans()
            self._trace_superstep = s

        payloads = [env.payload for env in messages]
        if messages:
            # receive_message at superstep s *is* the inbox just handed in.
            if self._need_receive:
                frame["receive_message"] = _distinct(
                    [(x, env.sender, freeze(env.payload), s) for env in messages]
                )
            if self._need_stream_receive:
                frame["receive"] = _as_set(
                    [(x, env.sender, freeze(env.payload)) for env in messages]
                )
            for env in messages:
                if env.tables:
                    for rel, rows in env.tables.items():
                        db.merge_remote(x, env.sender, rel, rows)

        recorder = self._recorder
        recorder._rebind(ctx)
        self.inner.compute(recorder, payloads)
        sends = recorder.sends

        query_start = time.perf_counter()
        if self._need_superstep:
            frame["superstep"] = [(x, s)]
        if self._need_value or self._need_stream_value:
            d = freeze(self.value_projector(ctx.value))
            if self._need_value:
                frame["value"] = [(x, d, s)]
            if self._need_stream_value:
                frame["vertex_value"] = [(x, d)]
        if self._need_evolution:
            j = self._last_active.get(x)
            if j is not None:
                frame["evolution"] = [(x, j, s)]
        self._last_active[x] = s
        if sends:
            if self._need_send:
                frame["send_message"] = _distinct(
                    [(x, target, freeze(payload), s) for target, payload in sends]
                )
            if self._need_stream_send:
                frame["send"] = _as_set(
                    [(x, target, freeze(payload)) for target, payload in sends]
                )
        if self._need_edge_value and recorder.edge_updates:
            frame["edge_value"] = _distinct(
                [(x, target, freeze(value), s)
                 for target, value in recorder.edge_updates]
            )
        # Facts a later superstep may read leave the frame for the store.
        for relation in self._stored:
            rows = frame.pop(relation, None)
            if rows:
                part = db.local._ensure(relation, x)
                if self.timed_index:
                    for row in rows:
                        part.add_timed(row, s)
                else:
                    for row in rows:
                        part.add(row)

        if traced:
            eval_start = time.perf_counter()
        self.derivations += run_prepared(
            self._prepared, MODE_ANCHORED, db, self.functions, (x,),
            anchor_time=s,
        )
        if traced:
            eval_seconds = time.perf_counter() - eval_start
            self._eval_ns += int(eval_seconds * 1e9)
        # The frame's rows die with it; bounded-window partitions shed
        # the superstep that just left their window.
        for rows in frame.values():
            self.pruned_rows += len(rows)
        for relation, window in self._windows.items():
            part = db.local.partition(relation, x)
            if part is None:
                self.prune_misses += 1
            else:
                self.prune_hits += 1
                self.pruned_rows += part.prune_older_than(s - window)
        query_end = time.perf_counter()
        self.query_seconds += query_end - query_start
        if traced:
            # capture = fact recording + window pruning; the stratum
            # fixpoint is accounted separately as query-eval.
            self._capture_ns += int(
                (query_end - query_start - eval_seconds) * 1e9
            )
        if sends:
            self._ship(ctx, x, sends)

    def _ship(self, ctx: VertexContext, x: Any,
              sends: List[Tuple[Any, Any]]) -> None:
        """Release the analytic's buffered messages as envelopes, each with
        the rows of every remotely-referenced relation its target has not
        been sent yet. Partition lengths are read once; targets at the same
        watermark (a broadcast) share one table dict, which receivers only
        read."""
        send = ctx.send
        parts = [store.partition(rel, x) for rel, store in self._shipped]
        orders = [part.order if part is not None else () for part in parts]
        lengths = tuple([len(order) for order in orders])
        if not any(lengths):
            for target, payload in sends:
                send(target, Envelope(x, payload, None))
            return
        marks = self._watermarks.get(x)
        if marks is None:
            marks = self._watermarks[x] = {}
        unshipped = (0,) * len(lengths)
        keep_marks = not self.ship_full_tables
        deltas: Dict[Tuple[int, ...], Tuple[Optional[Dict[str, Any]], int]] = {}
        shipped = 0
        for target, payload in sends:
            mark = marks.get(target, unshipped)
            delta = deltas.get(mark)
            if delta is None:
                tables = {
                    rel: order[start:]
                    for (rel, _), order, start in zip(self._shipped, orders, mark)
                    if start < len(order)
                }
                delta = deltas[mark] = (
                    tables or None, sum(map(len, tables.values()))
                )
            shipped += delta[1]
            if keep_marks:
                marks[target] = lengths
            send(target, Envelope(x, payload, delta[0]))
        self.shipped_tuples += shipped

    # -- tracing helpers ---------------------------------------------------
    def _flush_phase_spans(self) -> None:
        """Emit the finished superstep's accumulated capture/query-eval
        timings as one synthetic span per phase."""
        if self._trace_superstep < 0:
            return
        if self._capture_ns:
            self._tracer.record(
                "provenance-capture", PHASE_CAPTURE, self._capture_ns / 1e9,
                superstep=self._trace_superstep,
            )
        if self._eval_ns:
            self._tracer.record(
                "query-eval", PHASE_QUERY, self._eval_ns / 1e9,
                superstep=self._trace_superstep,
            )
        self._capture_ns = 0
        self._eval_ns = 0

    def finish_trace(self) -> None:
        """Flush the last superstep's phase spans and fold the run's
        capture counters into the process metrics registry."""
        if self._traced:
            self._flush_phase_spans()
            self._trace_superstep = -1
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
        registry.counter(
            "repro_capture_prune_checks_total",
            "window-pruning partition checks", labels=("outcome",),
        ).labels("hit").inc(self.prune_hits)
        registry.counter(
            "repro_capture_prune_checks_total",
            "window-pruning partition checks", labels=("outcome",),
        ).labels("miss").inc(self.prune_misses)

    # -- multiprocess backend hooks ---------------------------------------
    # The parallel engine duck-types these: each worker process runs this
    # same (forked) wrapper over its shard, ships its state back on
    # shutdown, and the master folds the shards into its own copy so the
    # result-building code below works unchanged on both backends.
    def parallel_worker_begin(self, worker_id: int, shard: Sequence[Any]) -> None:
        """Called in a freshly forked worker before superstep 0."""
        # Capture persistence is master-side only: this fork's store copy
        # dies with the worker, and the master re-derives the shard's head
        # tuples from ``parallel_state`` at merge time. The spill writer
        # thread (if any) did not survive the fork either; drop the
        # reference so the worker never touches the manager.
        self.db.disable_persistence()
        self._capture_spill = None
        # The construction-time tracer belongs to the master process;
        # re-resolve against the worker's own (fresh) tracer.
        self._tracer = get_tracer()
        self._traced = self._tracer.enabled
        self._trace_superstep = -1
        self._capture_ns = 0
        self._eval_ns = 0
        self._parallel_base = {
            "derivations": self.derivations,
            "shipped_tuples": self.shipped_tuples,
            "pruned_rows": self.pruned_rows,
            "prune_hits": self.prune_hits,
            "prune_misses": self.prune_misses,
            "query_seconds": self.query_seconds,
        }

    def parallel_worker_end(self) -> None:
        """Called in the worker on shutdown, before the final trace drain."""
        if self._traced:
            self._flush_phase_spans()
            self._trace_superstep = -1

    def parallel_state(self) -> Dict[str, Any]:
        """Shard state shipped to the master on shutdown.

        Derived rows are shipped sorted by ``repr`` — partition sets
        iterate in a salted-hash order that differs across processes, and
        the wire payload must be deterministic. The master deduplicates on
        replay, so the static-setup rows every fork inherited merge away.
        """
        base = self._parallel_base
        derived = self.db.derived
        return {
            "derived": [
                (rel, sorted(derived.all_rows(rel), key=repr))
                for rel in sorted(derived.relations())
            ],
            "counters": {
                "derivations": self.derivations - base["derivations"],
                "shipped_tuples": self.shipped_tuples - base["shipped_tuples"],
                "pruned_rows": self.pruned_rows - base["pruned_rows"],
                "prune_hits": self.prune_hits - base["prune_hits"],
                "prune_misses": self.prune_misses - base["prune_misses"],
                "query_seconds": self.query_seconds - base["query_seconds"],
            },
            "transient_rows": self.db.local.num_rows(),
        }

    def merge_parallel_states(self, states: Sequence[Any]) -> None:
        """Fold worker shard states (in worker-id order) into this copy.

        Replaying derived rows through ``db.add_rows`` persists fresh head
        tuples into the capture store exactly once: rows already present
        (the static setup every worker inherited) dedupe to no-ops.
        """
        for state in states:
            if state is None:
                continue
            for rel, rows in state["derived"]:
                self.db.add_rows(rel, rows)
            counters = state["counters"]
            self.derivations += counters["derivations"]
            self.shipped_tuples += counters["shipped_tuples"]
            self.pruned_rows += counters["pruned_rows"]
            self.prune_hits += counters["prune_hits"]
            self.prune_misses += counters["prune_misses"]
            self.query_seconds += counters["query_seconds"]
            self._merged_transient_rows += state["transient_rows"]

    def transient_row_count(self) -> int:
        """Auto-captured transient rows, including worker shards."""
        return self.db.local.num_rows() + self._merged_transient_rows


def _distinct(rows: List[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
    """``rows`` without repeats, first occurrences in order."""
    return rows if len(rows) < 2 else list(dict.fromkeys(rows))


def _as_set(rows: List[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
    """``rows`` without repeats, in the order of a set built from them: the
    stream relations have always been enumerated as sets, and the capture
    rules' enumeration order is the row order of the sealed slabs."""
    return rows if len(rows) < 2 else list(set(rows))


def _as_program(
    inner: Union[Analytic, VertexProgram]
) -> Tuple[VertexProgram, Callable[[Any], Any]]:
    if isinstance(inner, Analytic):
        return inner.make_program(), inner.provenance_value
    return inner, lambda v: v


def run_online(
    graph: DiGraph,
    analytic: Union[Analytic, VertexProgram],
    query: Union[str, Program, CompiledQuery],
    params: Optional[Dict[str, Any]] = None,
    udfs: Optional[Dict[str, Callable[..., Any]]] = None,
    capture: bool = False,
    config: Optional[EngineConfig] = None,
    max_supersteps: Optional[int] = None,
    spill_directory: Optional[str] = None,
) -> OnlineRunResult:
    """Run ``analytic`` on ``graph`` with ``query`` evaluated online.

    ``query`` may be PQL source text, a parsed program, or an already
    compiled query. With ``capture=True`` the derived head relations are
    persisted into a fresh :class:`ProvenanceStore` returned on the result.
    With ``spill_directory`` as well, a :class:`SpillManager` hands each
    completed layer to its background writer during the run (zlib ARSC
    slabs) and is returned on ``result.spill`` — call
    ``result.spill.seal_all()`` to finish the static slab.
    """
    functions = FunctionRegistry(udfs)
    compiled = _compile(query, functions, params)
    program, projector = _as_program(analytic)

    store: Optional[ProvenanceStore] = None
    if capture:
        store = ProvenanceStore()
        store.registry.register_all(compiled.idb_schemas.values())

    engine_config = replace(
        config or EngineConfig(),
        use_combiner=False,  # envelopes carry senders and tables
    )
    spill: Optional[SpillManager] = None
    if capture and spill_directory is not None:
        spill = SpillManager(store, directory=spill_directory)
    wrapper = OnlineQueryProgram(
        program, compiled, functions, graph, store=store,
        value_projector=projector,
        spill=spill,
        # Under the parallel backend the master's store only fills at
        # merge time; eager per-superstep sealing is serial-only.
        eager_seal=engine_config.backend == "serial",
    )
    wrapper.run_setup()

    engine = make_engine(graph, config=engine_config)
    run = engine.run(wrapper, max_supersteps=max_supersteps)
    wrapper.finish_capture()
    wrapper.finish_trace()
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
            "prune_hits": wrapper.prune_hits,
            "prune_misses": wrapper.prune_misses,
            "transient_rows": wrapper.transient_row_count(),
            "shipped_tuples": wrapper.shipped_tuples,
            "sealed_layers": wrapper.sealed_layers,
            "compiled_rules": compiled.compiled_rules,
        },
    )
    if engine_config.ledger_dir:
        _append_ledger_record(
            engine_config, graph, run, query, query_result, capture, spill,
            analytic_name=wrapper.name,
        )
    return OnlineRunResult(
        analytic=run, query=query_result, store=store, spill=spill
    )


def _append_ledger_record(
    engine_config: EngineConfig,
    graph: DiGraph,
    run: Any,
    query: Union[str, Program, CompiledQuery],
    query_result: QueryResult,
    capture: bool,
    spill: Optional[SpillManager],
    analytic_name: str,
) -> None:
    """Library-side ledger opt-in (``EngineConfig.ledger_dir``): one audit
    record per online/capture run, mirroring the CLI's ``--ledger`` path.
    Slab digests are not final here — the caller owns ``seal_all()`` — so
    the record carries the store directory but not the slab table."""
    from repro.obs import ledger as obsledger

    results: Dict[str, Any] = {
        "values_sha256": obsledger.digest_values(run.values),
        "supersteps": run.num_supersteps,
        "halt_reason": run.halt_reason,
        "query_sha256": obsledger.digest_query_result(query_result),
        "derivations": query_result.derivations,
    }
    if spill is not None:
        results["store"] = {"directory": spill.directory}
    workers = None
    if engine_config.backend == "parallel":
        from repro.parallel.engine import last_worker_stamp

        workers = last_worker_stamp()
    obsledger.RunLedger(engine_config.ledger_dir).append(
        obsledger.make_record(
            "capture" if capture else "online",
            wall_seconds=run.metrics.wall_seconds,
            config=engine_config,
            dataset=obsledger.dataset_fingerprint(graph),
            analytic=analytic_name,
            query=query if isinstance(query, str) else None,
            results=results,
            metrics=run.metrics.summary(),
            registry=get_registry(),
            workers=workers,
        )
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
