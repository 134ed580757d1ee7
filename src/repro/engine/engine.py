"""The BSP / vertex-centric execution engine (the Giraph stand-in).

Executes a :class:`~repro.engine.vertex.VertexProgram` over a
:class:`~repro.graph.digraph.DiGraph` in supersteps with Pregel semantics:

* all vertices are active at superstep 0;
* a vertex computes when it is active or has incoming messages;
* messages sent at superstep *s* are delivered at *s + 1*;
* ``vote_to_halt`` deactivates a vertex, a message reactivates it;
* the run terminates when no vertex is active and no messages are in flight
  (or a master convergence check fires, or ``max_supersteps`` is hit).

The engine simulates ``num_workers`` workers over vertices split by
Giraph's default hash partitioning; messages crossing a partition boundary
are counted as network traffic (``cross_worker_messages``, the stand-in for
the paper's 7-machine cluster traffic). The simulation is single-threaded
and the only engine: a multiprocess backend lost to it at every measured
size (DESIGN.md §7), and determinism is worth more to a reproduction than
fake parallelism.

Scheduling is frontier-driven: each superstep only the vertices that are
awake or have pending messages are visited, in canonical vertex order, so
the work per superstep is O(frontier) rather than O(V) while the
computation stays byte-identical to a whole-graph scan.

Messages are a relation, as in Pregelix: a superstep's sends are one
:class:`SendLog`, which a broadcast extends with no Python call per
message, and the barrier is one group-by of it by receiver, folding with
the program's combiner when it supplies one. The online runtime reads the
log and the receiver table instead of recording the messages again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.engine.aggregators import AggregatorRegistry
from repro.engine.config import EngineConfig
from repro.engine.metrics import RunMetrics, SuperstepMetrics
from repro.engine.vertex import VertexContext, VertexProgram
from repro.errors import EngineError, VertexProgramError
from repro.graph.digraph import DiGraph
from repro.graph.partition import HashPartitioner
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.obs.trace import (
    PHASE_BARRIER,
    PHASE_COMPUTE,
    PHASE_RUN,
    PHASE_SUPERSTEP,
    get_tracer,
)

logger = get_logger("engine")

#: Immutable empty inbox shared by every message-less ``compute`` call.
#: A tuple (not a list) so a vertex program that mutates its ``messages``
#: argument cannot corrupt deliveries for subsequent vertices.
NO_MESSAGES: Sequence[Any] = ()


class SendLog:
    """One superstep's messages — the message relation — in send order:
    senders in compute order, each sender's sends in the order it made
    them. ``senders``, ``targets`` and ``payloads`` are its columns (the
    analytic's payloads, bare); ``spans`` maps each vertex that sent
    anything to its ``(start, count)`` range, in compute order."""

    __slots__ = ("senders", "targets", "payloads", "spans")

    def __init__(self) -> None:
        self.senders: List[Any] = []
        self.targets: List[Any] = []
        self.payloads: List[Any] = []
        self.spans: Dict[Any, Tuple[int, int]] = {}

    @classmethod
    def of(cls, entries: Iterable[Tuple[Any, Sequence[Any], Sequence[Any]]]
           ) -> "SendLog":
        """A log of ``(sender, targets, payloads)`` entries, each sender
        once, in send order."""
        log = cls()
        for sender, targets, payloads in entries:
            log.spans[sender] = (len(log.targets), len(targets))
            log.senders += [sender] * len(targets)
            log.targets += targets
            log.payloads += payloads
        return log

    def group_by_receiver(self, combiner: Optional[Any] = None,
                          ) -> Tuple[Dict[Any, List[Any]], Dict[Any, List[Any]]]:
        """The barrier: ``(messages, senders)``, each ``receiver -> list``
        in first-arrival order, a receiver's messages in send order. With a
        ``combiner`` a receiver's messages are left-folded into one and
        ``senders`` is empty; without, ``senders`` aligns with
        ``messages``."""
        senders: Dict[Any, List[Any]] = {}
        if combiner is not None:
            combine = combiner.combine
            folded: Dict[Any, Any] = {}
            for target, payload in zip(self.targets, self.payloads):
                if target in folded:
                    folded[target] = combine(folded[target], payload)
                else:
                    folded[target] = payload
            return {t: [m] for t, m in folded.items()}, senders
        messages: Dict[Any, List[Any]] = {}
        get = messages.get
        for sender, target, payload in zip(self.senders, self.targets,
                                           self.payloads):
            box = get(target)
            if box is None:
                messages[target] = [payload]
                senders[target] = [sender]
            else:
                box.append(payload)
                senders[target].append(sender)
        return messages, senders


@dataclass
class RunResult:
    """Outcome of one engine run."""

    values: Dict[Any, Any]
    metrics: RunMetrics
    aggregators: Dict[str, Any] = field(default_factory=dict)
    edge_values: Dict[Tuple[Any, Any], Any] = field(default_factory=dict)
    halt_reason: str = "converged"

    @property
    def num_supersteps(self) -> int:
        return self.metrics.num_supersteps

    def value_of(self, vertex_id: Any) -> Any:
        return self.values[vertex_id]


class PregelEngine:
    """Runs vertex programs over one graph.

    The engine holds no per-run state between :meth:`run` calls, so one
    engine can execute the baseline analytic, then the capture run, then
    offline queries over the same input graph.

    During a run, ``superstep`` is the superstep being run (``None``
    between runs), ``values`` the ``vertex -> value`` table and ``order``
    the superstep's executed vertices in compute order (a list). Complete
    when ``post_superstep`` runs: ``send_log``, the superstep's
    :class:`SendLog`; ``inbox`` / ``inbox_senders``, the receiver table its
    computes were delivered; and ``edge_updates``, its ``set_edge_value``
    calls as ``(vertex, target, value)``.
    """

    def __init__(
        self,
        graph: DiGraph,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.graph = graph
        self.config = config or EngineConfig()
        self.config.validate()
        self.partitioner = HashPartitioner(self.config.num_workers)
        self._worker_of: Dict[Any, int] = {
            v: self.partitioner.worker_of(v) for v in graph.vertices()
        }
        # --- per-run state (reset in run()) ---
        self.superstep: Optional[int] = None
        self.values: Dict[Any, Any] = {}
        self.order: List[Any] = []
        self.aggregators = AggregatorRegistry()
        self.send_log = SendLog()
        self.inbox: Dict[Any, List[Any]] = {}
        self.inbox_senders: Dict[Any, List[Any]] = {}
        self.edge_updates: List[Tuple[Any, Any, Any]] = []
        self._edge_overlay: Dict[Any, Dict[Any, Any]] = {}
        # vertex -> how many of its out-edges cross workers (broadcasts),
        # filled on first use in a run
        self._cross_edges: Dict[Any, int] = {}
        self._adjacency = graph.out_edges_map()

    # ------------------------------------------------------------------
    # context callbacks (kept on the engine so one context object suffices)
    # ------------------------------------------------------------------
    def _edges_of(self, vertex_id: Any) -> List[Tuple[Any, Any]]:
        base = self._adjacency[vertex_id]  # a bound context's own vertex
        overlay = self._edge_overlay.get(vertex_id)
        if not overlay:
            return base
        return [(t, overlay.get(t, value)) for t, value in base]

    def _edge_value(self, u: Any, v: Any) -> Any:
        overlay = self._edge_overlay.get(u)
        if overlay and v in overlay:
            return overlay[v]
        return self.graph.edge_value(u, v)

    def _set_edge_value(self, u: Any, v: Any, value: Any) -> None:
        if not self.graph.has_edge(u, v):
            raise EngineError(f"cannot set value of missing edge {u!r}->{v!r}")
        self._edge_overlay.setdefault(u, {})[v] = value
        self.edge_updates.append((u, v, value))

    def _count_cross_edges(self, vertex_id: Any) -> int:
        """Table and return how many of ``vertex_id``'s out-edges cross
        workers: what its broadcast adds to ``cross_worker_messages``."""
        worker_of = self._worker_of
        count = self._cross_edges[vertex_id] = sum(map(
            worker_of[vertex_id].__ne__,
            map(worker_of.__getitem__, self.graph.out_targets()[vertex_id])))
        return count

    # ------------------------------------------------------------------
    def run(self, program: VertexProgram) -> RunResult:
        """Execute ``program`` to termination, or to
        ``config.max_supersteps``, and return the result."""
        graph = self.graph
        config = self.config
        num_workers = config.num_workers
        num_vertices = graph.num_vertices
        worker_of = self._worker_of
        # Tracing is resolved once per run; with the null tracer installed
        # (the default) the per-superstep cost is one flag check. The run
        # span covers setup and the metrics publish too.
        tracer = get_tracer()
        traced = tracer.enabled
        if traced:
            run_span = tracer.span(
                "run", PHASE_RUN,
                program=getattr(program, "name", type(program).__name__),
                vertices=num_vertices, workers=num_workers,
            )

        values: Dict[Any, Any] = {
            v: program.initial_value(v, graph) for v in graph.vertices()
        }
        active: Set[Any] = set(values)
        inbox: Dict[Any, List[Any]] = {}
        self._edge_overlay = {}
        self.values = values
        self.inbox, self.inbox_senders = inbox, {}
        self._adjacency = graph.out_edges_map()
        self._cross_edges = {}
        self.aggregators = AggregatorRegistry(program.aggregators())
        combiner = program.combiner()

        ctx = VertexContext(self)
        metrics = RunMetrics()
        halt_reason = "max_supersteps"
        run_start = time.perf_counter()

        order_of = graph.vertex_order()
        every_vertex = list(graph.vertices())  # the whole-graph frontier
        bind = ctx._bind
        compute = program.compute
        post_superstep = program.post_superstep

        for superstep in range(config.max_supersteps):
            self.superstep = superstep
            step = SuperstepMetrics(superstep)
            log = self.send_log = SendLog()
            self.edge_updates = []
            senders, spans = log.senders, log.spans
            targets = ctx._targets = log.targets
            ctx._payloads = log.payloads
            ctx._cross = 0
            if traced:
                step_span = tracer.span(
                    "superstep", PHASE_SUPERSTEP, superstep=superstep
                )
                compute_span = tracer.span(
                    "compute", PHASE_COMPUTE, superstep=superstep
                )
            step_start = time.perf_counter()

            # O(frontier) schedule: awake vertices plus message targets,
            # in canonical vertex order — the vertices a whole-graph scan
            # would execute, in the order it would execute them.
            if inbox:
                schedule: Set[Any] = set(active)
                schedule.update(inbox)
            else:
                schedule = active
            step.active_vertices = len(schedule)
            if len(schedule) == num_vertices:
                order = every_vertex
            else:
                order = sorted(schedule, key=order_of.__getitem__)
            self.order = order

            for vertex_id in order:
                start = len(targets)
                bind(vertex_id, superstep, values[vertex_id],
                     worker_of[vertex_id])
                try:
                    compute(ctx, inbox.get(vertex_id, NO_MESSAGES))
                except (KeyboardInterrupt, SystemExit):
                    raise
                except VertexProgramError:
                    raise
                except Exception as exc:
                    raise VertexProgramError(vertex_id, superstep, exc) from exc
                sent = len(targets) - start
                if sent:
                    spans[vertex_id] = (start, sent)
                    senders += [vertex_id] * sent
                if ctx._value_changed:
                    values[vertex_id] = ctx._value
                if ctx._halted:
                    active.discard(vertex_id)
                else:
                    active.add(vertex_id)
            step.messages_sent = len(targets)
            step.cross_worker_messages = ctx._cross
            # After the last compute, before the barrier delivers the
            # superstep's messages.
            post_superstep(superstep)

            step.frontier_size = step.active_vertices
            step.skipped_vertices = num_vertices - step.active_vertices
            computed_any = step.active_vertices > 0
            step.wall_seconds = time.perf_counter() - step_start
            metrics.supersteps.append(step)
            if traced:
                compute_span.end(
                    active_vertices=step.active_vertices,
                    messages_sent=step.messages_sent,
                )
                barrier_span = tracer.span(
                    "message-barrier", PHASE_BARRIER, superstep=superstep
                )

            # --- barrier: one group-by of the send log by receiver ---
            inbox, self.inbox_senders = log.group_by_receiver(combiner)
            self.inbox = inbox
            if combiner is not None:
                step.messages_combined = len(targets) - len(inbox)
            self.aggregators.barrier()

            if traced:
                barrier_span.end()
                step_span.end(
                    active_vertices=step.active_vertices,
                    messages_sent=step.messages_sent,
                    frontier_size=step.frontier_size,
                )

            if not computed_any and not inbox:
                halt_reason = "no_active_vertices"
                break
            if program.master_halt(self.aggregators, superstep):
                halt_reason = "master_halt"
                break
            if not inbox and not active:
                halt_reason = "converged"
                break

        self.superstep = None
        metrics.wall_seconds = time.perf_counter() - run_start
        metrics.publish(get_registry())
        if traced:
            run_span.end(
                supersteps=metrics.num_supersteps, halt_reason=halt_reason
            )
        logger.debug(
            "run %s finished: %d supersteps, %d messages, %.3fs (%s)",
            getattr(program, "name", type(program).__name__),
            metrics.num_supersteps, metrics.total_messages,
            metrics.wall_seconds, halt_reason,
        )
        return RunResult(
            values=values,
            metrics=metrics,
            aggregators=self.aggregators.values(),
            edge_values={
                (u, v): value
                for u, targets in self._edge_overlay.items()
                for v, value in targets.items()
            },
            halt_reason=halt_reason,
        )


def run_program(
    graph: DiGraph,
    program: VertexProgram,
    config: Optional[EngineConfig] = None,
) -> RunResult:
    """One-shot convenience wrapper: build an engine and run ``program``."""
    return PregelEngine(graph, config=config).run(program)
