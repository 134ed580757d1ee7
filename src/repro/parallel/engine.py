"""Master side of the shared-nothing multiprocess backend.

:class:`ParallelEngine` is a drop-in replacement for
:class:`~repro.engine.engine.PregelEngine`: same constructor shape, same
``run()`` contract, byte-identical vertex values and halting behavior. The
difference is that ``num_workers`` is no longer simulated — each worker is
a forked OS process owning one shard, message batches really cross process
boundaries over one ``multiprocessing.Queue`` per worker (measured in
the ``network_bytes`` metric), and the superstep barrier is a
master-coordinated reduction:

1. master broadcasts ``("step", s, aggregator_values, checkpoint?)``;
2. workers compute their shard frontier, exchange tagged message frames
   peer-to-peer over the data queues, and report counters + raw
   aggregator contributions + drained trace events (+ optionally a shard
   checkpoint);
3. master folds the contributions into the real aggregator registry in
   global ``(sender_pos, seq)`` order, merges worker trace events into its
   own trace, evaluates ``master_halt`` and the termination rules in
   exactly the serial engine's order, and either broadcasts the next step
   or collects final state.

Workers are forked, not spawned: the graph, the program (including
closures and lambdas, which do not pickle) and the routing tables are
inherited copy-on-write, so the backend accepts every program the serial
engine accepts. Platforms without ``fork`` raise ``EngineError``.

The fork happens once per engine, not once per run: a
:class:`~repro.parallel.worker.WorkerPool` keeps the fleet (and its data
queues) warm across ``run()`` calls, shipping only the pickled program
per run. Programs that do not pickle transparently fall back to a fresh
fork, so every program the serial engine accepts runs here too. The
pool cannot see graph mutations: mutate the graph, then build a new
engine.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.aggregators import AggregatorRegistry
from repro.engine.checkpoint import checkpoint_path
from repro.engine.config import EngineConfig
from repro.engine.engine import RunResult
from repro.engine.metrics import RunMetrics, SuperstepMetrics
from repro.engine.vertex import VertexProgram
from repro.errors import EngineError, VertexProgramError
from repro.graph.digraph import DiGraph
from repro.graph.partition import HashPartitioner, Partitioner
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.obs.trace import (
    PHASE_BARRIER,
    PHASE_RUN,
    PHASE_SUPERSTEP,
    get_tracer,
)
from repro.parallel.messages import (
    CMD_COLLECT,
    CMD_STEP,
    BarrierReport,
    FinalReport,
    merge_shard_checkpoints,
)
from repro.parallel.worker import WorkerPool

logger = get_logger("parallel")

#: Seconds between liveness checks while waiting for worker reports.
_POLL_SECONDS = 1.0

#: Worker stamp of the most recent parallel run in this process: worker
#: count and pids, recorded at run start for the run ledger
#: (``repro.obs.ledger``) so audit records name the actual fleet that
#: executed, not just the requested configuration.
_LAST_WORKER_STAMP: Optional[Dict[str, Any]] = None


def last_worker_stamp() -> Optional[Dict[str, Any]]:
    """The most recent run's worker fleet, or ``None`` before any
    parallel run (serial runs leave it untouched)."""
    return _LAST_WORKER_STAMP

#: How long the master keeps draining reports after the first error, so a
#: root-cause ``VertexProgramError`` can displace a secondary transport
#: error (peers of a failed worker die of the poisoned queue it left
#: them, and their reports can reach the control queue first).
_ERROR_GRACE_SECONDS = 5.0


def _error_rank(error: BaseException) -> int:
    """Lower is more interesting to the caller: a vertex program failure
    is the root cause; a bare ``EngineError`` is usually transport
    collateral (poisoned queue, died peer)."""
    if isinstance(error, VertexProgramError):
        return 0
    if not isinstance(error, EngineError):
        return 1
    return 2


class ParallelEngine:
    """Multiprocess Pregel master over ``config.num_workers`` shards."""

    def __init__(
        self,
        graph: DiGraph,
        config: Optional[EngineConfig] = None,
        partitioner: Optional[Partitioner] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_interval: int = 0,
    ) -> None:
        self.graph = graph
        self.config = config or EngineConfig()
        self.config.validate()
        if "fork" not in multiprocessing.get_all_start_methods():
            raise EngineError(
                "the parallel backend needs the fork start method "
                "(unavailable on this platform); use backend='serial'"
            )
        self.partitioner = partitioner or HashPartitioner(
            self.config.num_workers
        )
        if checkpoint_interval < 0:
            raise EngineError("checkpoint interval must be >= 0")
        if checkpoint_interval and checkpoint_dir is None:
            raise EngineError("checkpointing needs a directory")
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_interval = checkpoint_interval
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
        self.checkpoints_written = 0
        self.aggregators = AggregatorRegistry()
        self._pool: Optional[WorkerPool] = None
        # Routing tables are a function of (graph, partitioner), both
        # fixed at construction; computed once and reused across runs.
        self._tables: Optional[Tuple[Any, Dict[Any, int], List[List[Any]]]] = (
            None
        )

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the warm worker pool down (idempotent).

        Engines are context managers; without either, the pool is still
        reaped when the engine is garbage collected.
        """
        self._teardown(force=False)

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _teardown(self, force: bool) -> None:
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.shutdown(force=force)

    def _routing_tables(self) -> Tuple[Any, Dict[Any, int], List[List[Any]]]:
        if self._tables is None:
            graph = self.graph
            order_of = graph.vertex_order()
            vertices = list(graph.vertices())
            worker_of = {v: self.partitioner.worker_of(v) for v in vertices}
            shards: List[List[Any]] = [
                [] for _ in range(self.config.num_workers)
            ]
            for v in vertices:
                shards[worker_of[v]].append(v)
            graph.out_edges_map()  # warm the adjacency cache pre-fork
            self._tables = (order_of, worker_of, shards)
        return self._tables

    def _ensure_pool(self, program: VertexProgram) -> Tuple[
        WorkerPool, Optional[bytes]
    ]:
        """A live pool plus the program blob to init it with.

        Reusing the warm pool requires shipping the program by pickle; a
        program that will not pickle (closures, provenance wrappers) gets
        a fresh fork instead, inheriting it copy-on-write — exactly the
        old fork-per-run behavior.
        """
        order_of, worker_of, shards = self._routing_tables()
        pool = self._pool
        if pool is not None and not pool.alive:
            self._teardown(force=True)
            pool = None
        if pool is not None:
            try:
                blob: Optional[bytes] = pickle.dumps(
                    program, pickle.HIGHEST_PROTOCOL
                )
            except Exception:  # noqa: BLE001 - any pickling failure
                blob = None
            if blob is not None:
                return pool, blob
            self._teardown(force=False)
        pool = WorkerPool(
            self.graph, self.config, shards, worker_of, order_of, program
        )
        self._pool = pool
        return pool, None

    # ------------------------------------------------------------------
    def run(
        self,
        program: VertexProgram,
        max_supersteps: Optional[int] = None,
        _restore: Optional[Any] = None,
    ) -> RunResult:
        """Execute ``program`` to termination across worker processes."""
        if _restore is not None:
            raise EngineError(
                "the parallel backend cannot resume from a checkpoint; "
                "resume with the serial engine (checkpoints it writes are "
                "serial-format)"
            )
        if self.checkpoint_interval and hasattr(program, "compiled"):
            raise EngineError(
                "checkpointing captures engine state only; restart "
                "provenance-wrapped programs from superstep 0 instead"
            )
        limit = max_supersteps or self.config.max_supersteps
        num_vertices = self.graph.num_vertices
        num_workers = self.config.num_workers

        self.aggregators = AggregatorRegistry(program.aggregators())
        registry = self.aggregators

        tracer = get_tracer()
        traced = tracer.enabled
        if traced:
            run_span = tracer.span(
                "run", PHASE_RUN,
                program=getattr(program, "name", type(program).__name__),
                vertices=num_vertices, workers=num_workers,
                backend="parallel",
            )
        run_start = time.perf_counter()

        order_of, _worker_of, _shards = self._routing_tables()
        pool, blob = self._ensure_pool(program)
        global _LAST_WORKER_STAMP
        _LAST_WORKER_STAMP = {
            "backend": "parallel",
            "num_workers": num_workers,
            "worker_pids": [p.pid for p in pool.procs],
        }

        metrics = RunMetrics()
        metrics.measured_network_bytes = True
        halt_reason = "max_supersteps"
        wait_histogram = get_registry().histogram(
            "repro_transport_wait_seconds",
            "per-worker per-superstep time blocked on the message transport",
        )
        try:
            pool.init_run(blob, traced)
            for superstep in range(limit):
                if traced:
                    step_span = tracer.span(
                        "superstep", PHASE_SUPERSTEP, superstep=superstep
                    )
                step_start = time.perf_counter()
                want_checkpoint = bool(
                    self.checkpoint_interval
                    and (superstep + 1) % self.checkpoint_interval == 0
                )
                agg_values = registry.values()
                pool.broadcast(
                    (CMD_STEP, superstep, agg_values, want_checkpoint)
                )

                reports = self._gather(pool, superstep)

                step = SuperstepMetrics(superstep)
                wait_seconds = 0.0
                for report in reports:
                    step.active_vertices += report.executed
                    step.messages_sent += report.messages_sent
                    step.messages_combined += report.messages_combined
                    step.messages_precombined += report.messages_precombined
                    step.cross_worker_messages += report.cross_worker_messages
                    step.network_bytes += report.network_bytes
                    wait_seconds += report.wait_seconds
                    wait_histogram.observe(report.wait_seconds)
                step.frontier_size = step.active_vertices
                step.skipped_vertices = num_vertices - step.active_vertices
                step.wall_seconds = time.perf_counter() - step_start
                metrics.supersteps.append(step)

                if traced:
                    barrier_span = tracer.span(
                        "message-barrier", PHASE_BARRIER, superstep=superstep
                    )
                    for report in reports:
                        if report.trace_events:
                            tracer.ingest(
                                report.trace_events,
                                parent_id=step_span.span_id,
                                worker=report.worker_id,
                            )

                # Aggregator reduction in global send order — the exact
                # fold sequence of the serial engine's per-compute calls.
                contributions = [
                    c for report in reports for c in report.aggregations
                ]
                contributions.sort(key=lambda c: (c[0], c[1]))
                for _pos, _seq, name, value in contributions:
                    registry.aggregate(name, value)
                registry.barrier()

                if want_checkpoint:
                    self._write_checkpoint(
                        [r.checkpoint for r in reports]
                    )
                if traced:
                    barrier_span.end(
                        network_bytes=step.network_bytes,
                        messages_combined=step.messages_combined,
                        messages_precombined=step.messages_precombined,
                        transport_wait_seconds=wait_seconds,
                    )
                    step_span.end(
                        active_vertices=step.active_vertices,
                        messages_sent=step.messages_sent,
                        frontier_size=step.frontier_size,
                    )

                computed_any = step.active_vertices > 0
                has_messages = step.messages_sent > 0
                active_total = sum(r.active_after for r in reports)
                if not computed_any and not has_messages:
                    halt_reason = "no_active_vertices"
                    break
                if program.master_halt(registry, superstep):
                    halt_reason = "master_halt"
                    break
                if not has_messages and not active_total:
                    halt_reason = "converged"
                    break

            values, edge_values = self._finish(
                pool, program, tracer, traced,
                run_span.span_id if traced else None, order_of,
            )
        except BaseException:
            self._teardown(force=True)
            if traced:
                run_span.end(halt_reason="error")
            raise

        metrics.wall_seconds = time.perf_counter() - run_start
        if traced:
            run_span.end(
                supersteps=metrics.num_supersteps, halt_reason=halt_reason
            )
        metrics.publish(get_registry())
        logger.debug(
            "parallel run %s finished: %d supersteps, %d messages, "
            "%d network bytes, %.3fs (%s)",
            getattr(program, "name", type(program).__name__),
            metrics.num_supersteps, metrics.total_messages,
            metrics.total_network_bytes, metrics.wall_seconds, halt_reason,
        )
        return RunResult(
            values=values,
            metrics=metrics,
            aggregators=registry.values(),
            edge_values=edge_values,
            halt_reason=halt_reason,
        )

    # ------------------------------------------------------------------
    def _raise_best_error(self, pool: WorkerPool, first: BaseException) -> None:
        """Raise the most root-cause-looking error reported this barrier.

        After one worker reports an error, its peers usually fail too
        (poisoned queues), and queue arrival order is not causal order —
        so drain briefly and prefer a ``VertexProgramError`` over
        transport collateral.
        """
        best = first
        if _error_rank(best) != 0:
            deadline = time.monotonic() + _ERROR_GRACE_SECONDS
            while time.monotonic() < deadline:
                try:
                    report = pool.ctrl.get(timeout=0.05)
                except queue_module.Empty:
                    if not any(p.is_alive() for p in pool.procs):
                        break
                    continue
                error = getattr(report, "error", None)
                if error is not None and _error_rank(error) < _error_rank(best):
                    best = error
                if _error_rank(best) == 0:
                    break
        raise best

    def _gather(
        self, pool: WorkerPool, superstep: int
    ) -> List[BarrierReport]:
        """Collect one barrier report per worker, surfacing worker errors
        and deaths instead of hanging."""
        reports: Dict[int, BarrierReport] = {}
        while len(reports) < pool.num_workers:
            try:
                report = pool.ctrl.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                dead = [p.name for p in pool.procs if not p.is_alive()]
                if dead:
                    raise EngineError(
                        f"worker process died without reporting: {dead}"
                    ) from None
                continue
            if report.error is not None:
                self._raise_best_error(pool, report.error)
            if not isinstance(report, BarrierReport):
                raise EngineError(
                    f"protocol error: expected a barrier report, got "
                    f"{type(report).__name__}"
                )
            if report.superstep != superstep:
                raise EngineError(
                    f"protocol error: report for superstep "
                    f"{report.superstep}, expected {superstep}"
                )
            reports[report.worker_id] = report
        return [reports[w] for w in sorted(reports)]

    def _finish(
        self,
        pool: WorkerPool,
        program: VertexProgram,
        tracer: Any,
        traced: bool,
        run_span_id: Optional[int],
        order_of: Dict[Any, int],
    ) -> Any:
        """Collect final shard state and merge it into one result."""
        pool.broadcast((CMD_COLLECT,))
        finals: Dict[int, FinalReport] = {}
        while len(finals) < pool.num_workers:
            try:
                report = pool.ctrl.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                dead = [p.name for p in pool.procs if not p.is_alive()]
                if dead:
                    raise EngineError(
                        f"worker process died without reporting: {dead}"
                    ) from None
                continue
            if report.error is not None:
                self._raise_best_error(pool, report.error)
            finals[report.worker_id] = report

        merged: Dict[Any, Any] = {}
        edge_overlay: Dict[Any, Dict[Any, Any]] = {}
        states: List[Any] = []
        for wid in sorted(finals):
            final = finals[wid]
            merged.update(final.values)
            for u, targets in final.edge_overlay.items():
                edge_overlay.setdefault(u, {}).update(targets)
            states.append(final.program_state)
            if traced and final.trace_events:
                tracer.ingest(
                    final.trace_events, parent_id=run_span_id, worker=wid
                )
        # Rebuild the value map in canonical vertex order so iteration
        # order (and reprs of the whole dict) match the serial engine.
        values = {v: merged[v] for v in sorted(merged, key=order_of.__getitem__)}
        merge = getattr(program, "merge_parallel_states", None)
        if merge is not None:
            merge(states)
        edge_values = {
            (u, v): value
            for u, targets in edge_overlay.items()
            for v, value in targets.items()
        }
        return values, edge_values

    def _write_checkpoint(self, shards: List[Any]) -> None:
        missing = [i for i, s in enumerate(shards) if s is None]
        if missing:
            raise EngineError(
                f"workers {missing} sent no shard checkpoint"
            )
        snapshot = merge_shard_checkpoints(shards)
        payload = {
            "superstep": snapshot.superstep,
            "values": snapshot.values,
            "halted": snapshot.halted,
            "inbox": snapshot.inbox,
            "edge_overlay": snapshot.edge_overlay,
        }
        path = checkpoint_path(self.checkpoint_dir, snapshot.superstep)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)  # atomic: a crash never leaves a torn file
        self.checkpoints_written += 1
        logger.debug(
            "parallel checkpoint at superstep %d -> %s",
            snapshot.superstep, path,
        )
