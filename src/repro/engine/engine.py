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
``config.partitioner``; messages crossing a partition boundary are counted
as network traffic (``cross_worker_messages``, the stand-in for the paper's
7-machine cluster traffic). The simulation is single-threaded and the only
engine: a multiprocess backend lost to it at every measured size (DESIGN.md
§7), and determinism is worth more to a reproduction than fake parallelism.

Scheduling is frontier-driven: each superstep only the vertices that are
awake or have pending messages are visited, in canonical vertex order, so
the work per superstep is O(frontier) rather than O(V) while the
computation stays byte-identical to a whole-graph scan (the long tails of
SSSP/BFS/WCC touch a handful of vertices per superstep; scanning all of them
dominated the seed engine's wall time). Messages are bucketed per target
worker at send time, so the superstep barrier is a pointer swap per worker
and cross-worker accounting is a single integer comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.aggregators import AggregatorRegistry
from repro.engine.config import EngineConfig
from repro.engine.metrics import RunMetrics, SuperstepMetrics
from repro.engine.vertex import VertexContext, VertexProgram
from repro.errors import EngineError, GraphError, VertexProgramError
from repro.graph.digraph import DiGraph
from repro.graph.partition import HashPartitioner, Partitioner, RangePartitioner
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
    """

    def __init__(
        self,
        graph: DiGraph,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.graph = graph
        self.config = config or EngineConfig()
        self.config.validate()
        self.partitioner = _partitioner(self.config, graph)
        self._worker_of: Dict[Any, int] = {
            v: self.partitioner.worker_of(v) for v in graph.vertices()
        }
        # --- per-run state (reset in run()) ---
        self.aggregators = AggregatorRegistry()
        # One outbox dict per worker, keyed by target vertex. Building the
        # buckets at send time makes the barrier a pointer swap per worker.
        self._outboxes: List[Dict[Any, List[Any]]] = [
            {} for _ in range(self.config.num_workers)
        ]
        self._edge_overlay: Dict[Any, Dict[Any, Any]] = {}
        self._combiner = None
        self._current_step = SuperstepMetrics(0)
        self._current_worker = 0
        self._adjacency = graph.out_edges_map()

    # ------------------------------------------------------------------
    # context callbacks (kept on the engine so one context object suffices)
    # ------------------------------------------------------------------
    def _edges_of(self, vertex_id: Any) -> List[Tuple[Any, Any]]:
        if not self._edge_overlay:
            # Overlay-free common case: direct adjacency lookup.
            try:
                return self._adjacency[vertex_id]
            except KeyError:
                raise GraphError(f"unknown vertex {vertex_id!r}") from None
        base = self.graph.out_edges(vertex_id)
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

    def _send(self, sender: Any, target: Any, message: Any) -> None:
        worker = self._worker_of.get(target)
        if worker is None:
            raise EngineError(f"message to unknown vertex {target!r}")
        step = self._current_step
        step.messages_sent += 1
        # The sender's worker is bound once per compute call; picking the
        # target bucket already resolved the target's worker, so the
        # cross-worker check is one integer comparison.
        if worker != self._current_worker:
            step.cross_worker_messages += 1
        outbox = self._outboxes[worker]
        box = outbox.get(target)
        if box is None:
            outbox[target] = [message]
        elif self._combiner is not None:
            box[0] = self._combiner.combine(box[0], message)
            step.messages_combined += 1
        else:
            box.append(message)

    # ------------------------------------------------------------------
    def run(
        self,
        program: VertexProgram,
        max_supersteps: Optional[int] = None,
        _restore: Optional[Any] = None,
    ) -> RunResult:
        """Execute ``program`` to termination and return the result.

        ``_restore`` is the checkpointing hook: a snapshot with
        ``superstep`` / ``values`` / ``halted`` / ``inbox`` /
        ``edge_overlay`` attributes resumes the run mid-flight (see
        :mod:`repro.engine.checkpoint`).
        """
        limit = max_supersteps or self.config.max_supersteps
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

        if _restore is None:
            values: Dict[Any, Any] = {
                v: program.initial_value(v, graph) for v in graph.vertices()
            }
            active: Set[Any] = set(values)
            inboxes: List[Dict[Any, List[Any]]] = [{} for _ in range(num_workers)]
            first_superstep = 0
            self._edge_overlay = {}
        else:
            values = dict(_restore.values)
            active = {v for v, halted in _restore.halted.items() if not halted}
            inboxes = self._bucket_inbox(_restore.inbox)
            first_superstep = _restore.superstep
            self._edge_overlay = {
                u: dict(targets) for u, targets in _restore.edge_overlay.items()
            }

        self._outboxes = [{} for _ in range(num_workers)]
        self._adjacency = graph.out_edges_map()
        self.aggregators = AggregatorRegistry(program.aggregators())
        self._combiner = program.combiner() if config.use_combiner else None

        ctx = VertexContext(self)
        metrics = RunMetrics()
        halt_reason = "max_supersteps"
        run_start = time.perf_counter()

        order_of = graph.vertex_order()
        bind = ctx._bind
        compute = program.compute
        post_superstep = program.post_superstep

        for superstep in range(first_superstep, limit):
            step = SuperstepMetrics(superstep)
            self._current_step = step
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
            if any(inboxes):
                schedule: Set[Any] = set(active)
                for box in inboxes:
                    schedule.update(box)
            else:
                schedule = active
            if len(schedule) == num_vertices:
                order = graph.vertices()  # whole-graph frontier
            else:
                order = sorted(schedule, key=order_of.__getitem__)

            for vertex_id in order:
                worker = worker_of[vertex_id]
                messages = inboxes[worker].get(vertex_id)
                step.active_vertices += 1
                self._current_worker = worker
                bind(vertex_id, superstep, values[vertex_id])
                try:
                    compute(ctx, messages if messages is not None else NO_MESSAGES)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except VertexProgramError:
                    raise
                except Exception as exc:
                    raise VertexProgramError(vertex_id, superstep, exc) from exc
                if ctx._value_changed:
                    values[vertex_id] = ctx._value
                if ctx._halted:
                    active.discard(vertex_id)
                else:
                    active.add(vertex_id)
            # After the last compute, before the barrier delivers (or a
            # checkpoint snapshots) the superstep's messages.
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

            # --- barrier: pointer swap per worker ---
            inboxes = self._outboxes
            self._outboxes = [{} for _ in range(num_workers)]
            self.aggregators.barrier()
            has_messages = any(inboxes)

            self._after_barrier(superstep + 1, values, active, inboxes)

            if traced:
                barrier_span.end()
                step_span.end(
                    active_vertices=step.active_vertices,
                    messages_sent=step.messages_sent,
                    frontier_size=step.frontier_size,
                )

            if not computed_any and not has_messages:
                halt_reason = "no_active_vertices"
                break
            if program.master_halt(self.aggregators, superstep):
                halt_reason = "master_halt"
                break
            if not has_messages and not active:
                halt_reason = "converged"
                break

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

    # ------------------------------------------------------------------
    # subclass hooks / helpers
    # ------------------------------------------------------------------
    def _after_barrier(
        self,
        next_superstep: int,
        values: Dict[Any, Any],
        active: Set[Any],
        inboxes: List[Dict[Any, List[Any]]],
    ) -> None:
        """Called at every superstep barrier, before termination checks.

        ``inboxes`` holds the messages to be delivered at
        ``next_superstep``, bucketed per worker. The default does nothing;
        :class:`~repro.engine.checkpoint.CheckpointedEngine` snapshots here.
        """

    def _bucket_inbox(
        self, inbox: Dict[Any, List[Any]]
    ) -> List[Dict[Any, List[Any]]]:
        """Scatter a flat ``target -> messages`` inbox into worker buckets."""
        buckets: List[Dict[Any, List[Any]]] = [
            {} for _ in range(self.config.num_workers)
        ]
        worker_of = self._worker_of
        for target, messages in inbox.items():
            buckets[worker_of[target]][target] = list(messages)
        return buckets


def _partitioner(config: EngineConfig, graph: DiGraph) -> Partitioner:
    """The partitioner ``config.partitioner`` names."""
    if config.partitioner == "range":
        return RangePartitioner(config.num_workers, max(graph.num_vertices, 1))
    return HashPartitioner(config.num_workers)


def run_program(
    graph: DiGraph,
    program: VertexProgram,
    config: Optional[EngineConfig] = None,
    max_supersteps: Optional[int] = None,
) -> RunResult:
    """One-shot convenience wrapper: build an engine and run ``program``."""
    return PregelEngine(graph, config=config).run(program, max_supersteps)
