"""Worker-process side of the multiprocess backend, plus the warm pool.

A worker owns one graph shard: the values, halt flags and inbox of its
vertices. Each superstep it computes the local frontier in canonical
vertex order, buckets outgoing messages per destination worker, ships one
frame to every peer's queue, merges the batches it receives back into
its inbox, and reports counters (plus aggregator contributions, drained
trace events and optionally a shard checkpoint) to the master.

Determinism is the whole design: the serial engine delivers messages in
global send order (vertices compute in canonical order, sends append), so
every message is tagged ``(sender_pos, seq)`` and receivers merge their
per-source batches on that key — the tag leads the tuple, so the merge is
a native sort over already-sorted runs. Message combining happens at the
receiver, folding in exactly the order the serial engine folded at send
time, *except* when the program's combiner declares itself associative
(min/max): then each cross-worker outbox is pre-folded per target before
serialization — fewer tuples to encode, ship and merge — which is exact
because any fold tree of an associative combiner equals the serial left
fold. Aggregator contributions are shipped raw with their ``(sender_pos,
seq)`` tags and folded master-side in global order.

:class:`WorkerPool` is the master-side handle keeping forked workers —
and their shard graphs, routing tables and data queues — alive across
``run()`` calls: re-running ships only a pickled program (``CMD_INIT``)
instead of re-forking and re-faulting the whole graph. The pool assumes
the graph is not mutated between runs of the same engine instance; use a
new engine if it is.
"""

from __future__ import annotations

import multiprocessing
import pickle
import weakref
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.engine.engine import NO_MESSAGES
from repro.engine.vertex import VertexContext
from repro.errors import EngineError, GraphError, VertexProgramError
from repro.obs.sinks import InMemorySink
from repro.obs.trace import (
    NULL_TRACER,
    PHASE_COMPUTE,
    PHASE_TRANSPORT,
    Tracer,
    get_tracer,
    set_tracer,
)
from repro.parallel.messages import (
    CMD_ABORT,
    CMD_COLLECT,
    CMD_INIT,
    CMD_SHUTDOWN,
    CMD_STEP,
    BarrierReport,
    FinalReport,
    ShardCheckpoint,
    TaggedMessage,
)
from repro.parallel.transport import QueueTransport


def _precombine(
    batch: List[TaggedMessage], combine: Any, report: BarrierReport
) -> List[TaggedMessage]:
    """Fold an outbox per target before serialization (associative only).

    Keeps the *first* occurrence's ``(pos, seq)`` tag per target, so the
    combined message merges at exactly the position the serial engine's
    per-target box sits at, and the output stays sorted (first-occurrence
    order is send order).
    """
    slot: Dict[Any, int] = {}
    out: List[TaggedMessage] = []
    for message in batch:
        target = message[2]
        index = slot.get(target)
        if index is None:
            slot[target] = len(out)
            out.append(message)
        else:
            first = out[index]
            out[index] = (
                first[0], first[1], target, combine(first[3], message[3])
            )
            report.messages_precombined += 1
    return out


class WorkerAggregators:
    """Shard-local stand-in for the master's aggregator registry.

    ``aggregate`` records raw ``(sender_pos, seq, name, value)``
    contributions for master-side reduction; ``value`` answers reads from
    the previous-superstep values the master broadcast with the step
    command. Unknown names raise ``KeyError`` exactly like the real
    registry, so vertex programs fail identically on both backends.
    """

    def __init__(self, names: Set[str]) -> None:
        self._names = names
        self.previous: Dict[str, Any] = {}
        self.contributions: List[Tuple[int, int, str, Any]] = []
        self._pos = 0
        self._seq = 0

    def aggregate(self, name: str, value: Any) -> None:
        if name not in self._names:
            raise KeyError(name)
        self.contributions.append((self._pos, self._seq, name, value))
        self._seq += 1

    def value(self, name: str) -> Any:
        return self.previous[name]

    def drain(self) -> List[Tuple[int, int, str, Any]]:
        out = self.contributions
        self.contributions = []
        return out


class ShardRuntime:
    """The engine protocol surface (``graph`` / ``aggregators`` /
    ``_send`` / ``_edges_of`` / ...) over one shard, driven by master
    commands. One instance lives for one *run* of one worker; the warm
    pool builds a fresh runtime per ``CMD_INIT``."""

    def __init__(
        self,
        worker_id: int,
        graph: Any,
        program: Any,
        config: Any,
        shard: List[Any],
        worker_of: Dict[Any, int],
        order_of: Dict[Any, int],
        endpoint: Any,
        cmd_queue: Any,
        ctrl_queue: Any,
        epoch: int,
    ) -> None:
        self.worker_id = worker_id
        self.graph = graph
        self.program = program
        self.config = config
        self.shard = shard
        self._worker_of = worker_of
        self._order_of = order_of
        self._endpoint = endpoint
        self._cmd = cmd_queue
        self._ctrl = ctrl_queue
        self._epoch = epoch
        self._num_workers = config.num_workers
        self.aggregators = WorkerAggregators(set(program.aggregators()))
        self._combiner = program.combiner() if config.use_combiner else None
        self._adjacency = graph.out_edges_map()
        self._edge_overlay: Dict[Any, Dict[Any, Any]] = {}
        # Per-destination-worker outboxes of tagged messages; each stays
        # sorted by (sender_pos, seq) because the shard is iterated in
        # canonical order and seq is monotonic.
        self._outboxes: List[List[TaggedMessage]] = [
            [] for _ in range(self._num_workers)
        ]
        self._seq = 0
        self._sender_pos = 0
        self._values: Dict[Any, Any] = {}
        self._active: Set[Any] = set()
        self._inbox: Dict[Any, List[Any]] = {}
        self._report: Optional[BarrierReport] = None
        self._ctx = VertexContext(self)
        self._sink: Optional[InMemorySink] = None

    # ------------------------------------------------------------------
    # engine protocol surface (same contract as PregelEngine)
    # ------------------------------------------------------------------
    def _edges_of(self, vertex_id: Any) -> List[Tuple[Any, Any]]:
        if not self._edge_overlay:
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
        report = self._report
        report.messages_sent += 1
        if worker != self.worker_id:
            report.cross_worker_messages += 1
        self._outboxes[worker].append(
            (self._sender_pos, self._seq, target, message)
        )
        self._seq += 1

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def serve(self, traced: bool) -> bool:
        """Process master commands for one run. Never raises: every
        failure is shipped to the master inside a report (after poisoning
        our peers' queues so peers blocked on us unblock too).

        Returns True when the worker should stay warm for another
        ``CMD_INIT``, False when the process should exit.
        """
        # A fresh tracer per worker per run: the master's tracer (and its
        # file handles) must not be written from a forked process.
        if traced:
            self._sink = InMemorySink()
            set_tracer(Tracer(self._sink))
        else:
            set_tracer(NULL_TRACER)
        program = self.program
        try:
            begin = getattr(program, "parallel_worker_begin", None)
            if begin is not None:
                begin(self.worker_id, self.shard)
            self._values = {
                v: program.initial_value(v, self.graph) for v in self.shard
            }
            self._active = set(self.shard)
        except BaseException as exc:  # noqa: BLE001 - shipped to master
            self._endpoint.poison_outgoing()
            self._ctrl.put(FinalReport(self.worker_id, error=self._wrap(exc)))
            return False
        while True:
            command = self._cmd.get()
            kind = command[0]
            if kind == CMD_STEP:
                report = self._superstep(command[1], command[2], command[3])
                if report.error is not None:
                    # Peers may be blocked waiting for a frame from us
                    # that will never come — unblock them before the
                    # master even notices the error.
                    self._endpoint.poison_outgoing()
                    self._ctrl.put(report)
                    return False
                self._ctrl.put(report)
            elif kind == CMD_COLLECT:
                report = self._finish()
                self._ctrl.put(report)
                return report.error is None
            elif kind in (CMD_ABORT, CMD_SHUTDOWN):
                return False
            else:  # pragma: no cover - protocol bug
                self._ctrl.put(FinalReport(
                    self.worker_id,
                    error=EngineError(f"unknown command {kind!r}"),
                ))
                return False

    def _superstep(
        self, superstep: int, agg_values: Dict[str, Any], checkpoint: bool
    ) -> BarrierReport:
        report = BarrierReport(self.worker_id, superstep)
        self._report = report
        try:
            self._compute(superstep, agg_values, report)
            self._exchange(superstep, report)
            if checkpoint:
                report.checkpoint = self._shard_checkpoint(superstep + 1)
        except BaseException as exc:  # noqa: BLE001 - shipped to master
            report.error = self._wrap(exc)
        report.aggregations = self.aggregators.drain()
        report.trace_events = self._drain_trace()
        self._report = None
        return report

    def _compute(
        self, superstep: int, agg_values: Dict[str, Any], report: BarrierReport
    ) -> None:
        aggregators = self.aggregators
        aggregators.previous = agg_values
        inbox = self._inbox
        active = self._active
        values = self._values
        order_of = self._order_of
        ctx = self._ctx
        bind = ctx._bind
        compute = self.program.compute
        span = None
        if self._sink is not None:
            span = get_tracer().span(
                "compute", PHASE_COMPUTE, superstep=superstep
            )

        if inbox:
            schedule: Set[Any] = set(active)
            schedule.update(inbox)
        else:
            schedule = active
        for vertex_id in sorted(schedule, key=order_of.__getitem__):
            messages = inbox.get(vertex_id)
            report.executed += 1
            pos = order_of[vertex_id]
            self._sender_pos = pos
            aggregators._pos = pos
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
        # Before the exchange pickles the superstep's messages.
        self.program.post_superstep(superstep)
        if span is not None:
            span.end(
                active_vertices=report.executed,
                messages_sent=report.messages_sent,
            )
        report.active_after = len(active)

    def _exchange(self, superstep: int, report: BarrierReport) -> None:
        """Ship outgoing batches to the peers, collect incoming
        ones, rebuild the inbox in global send order, and apply the
        combiner receiver-side (sender-side for associative combiners)."""
        outboxes = self._outboxes
        self._outboxes = [[] for _ in range(self._num_workers)]
        span = None
        if self._sink is not None:
            span = get_tracer().span(
                "exchange", PHASE_TRANSPORT, superstep=superstep
            )
        combiner = self._combiner
        if combiner is not None and combiner.associative:
            combine = combiner.combine
            for worker in range(self._num_workers):
                if worker != self.worker_id and len(outboxes[worker]) > 1:
                    outboxes[worker] = _precombine(
                        outboxes[worker], combine, report
                    )

        batches = self._endpoint.exchange(superstep, self._epoch, outboxes,
                                          report)
        if len(batches) == 1:
            merged = batches[0]
        else:
            # Concatenated sorted runs: timsort detects them, and the
            # (pos, seq) prefix is globally unique so payloads are never
            # compared.
            merged = [m for batch in batches for m in batch]
            merged.sort()

        inbox: Dict[Any, List[Any]] = {}
        if combiner is None:
            for _pos, _seq, target, payload in merged:
                box = inbox.get(target)
                if box is None:
                    inbox[target] = [payload]
                else:
                    box.append(payload)
        else:
            combine = combiner.combine
            for _pos, _seq, target, payload in merged:
                box = inbox.get(target)
                if box is None:
                    inbox[target] = [payload]
                else:
                    box[0] = combine(box[0], payload)
                    report.messages_combined += 1
        self._inbox = inbox
        if span is not None:
            span.end(
                network_bytes=report.network_bytes,
                wait_seconds=report.wait_seconds,
                messages_precombined=report.messages_precombined,
            )

    def _shard_checkpoint(self, next_superstep: int) -> ShardCheckpoint:
        return ShardCheckpoint(
            worker_id=self.worker_id,
            superstep=next_superstep,
            values=dict(self._values),
            halted={v: v not in self._active for v in self.shard},
            inbox={t: list(msgs) for t, msgs in self._inbox.items()},
            edge_overlay={
                u: dict(targets) for u, targets in self._edge_overlay.items()
            },
        )

    def _finish(self) -> FinalReport:
        report = FinalReport(self.worker_id)
        try:
            program = self.program
            state = getattr(program, "parallel_state", None)
            report.values = self._values
            report.edge_overlay = self._edge_overlay
            report.program_state = state() if state is not None else None
        except BaseException as exc:  # noqa: BLE001 - shipped to master
            report.error = self._wrap(exc)
        report.trace_events = self._drain_trace()
        return report

    def _drain_trace(self) -> List[Dict[str, Any]]:
        sink = self._sink
        if sink is None or not sink.events:
            return []
        events = sink.events
        sink.events = []
        return events

    @staticmethod
    def _wrap(exc: BaseException) -> BaseException:
        """Make sure an exception survives the trip through the queue."""
        try:
            pickle.loads(pickle.dumps(exc))
            return exc
        except Exception:
            return EngineError(f"worker error (unpicklable): {exc!r}")


def worker_main(
    worker_id: int,
    graph: Any,
    program: Any,
    config: Any,
    shard: List[Any],
    worker_of: Dict[Any, int],
    order_of: Dict[Any, int],
    transport: Any,
    cmd_queue: Any,
    ctrl_queue: Any,
) -> None:
    """Entry point of a forked worker process: the warm serve loop.

    Each ``CMD_INIT`` starts one run — with the fork-inherited program
    when the blob is None (first run), otherwise with the shipped pickle
    — builds a fresh :class:`ShardRuntime`, and serves it to completion.
    A clean ``CMD_COLLECT`` keeps the process warm for the next init.
    """
    endpoint = transport.endpoint(worker_id)
    while True:
        command = cmd_queue.get()
        kind = command[0]
        if kind == CMD_INIT:
            _, blob, traced, epoch = command
            try:
                prog = program if blob is None else pickle.loads(blob)
            except BaseException as exc:  # noqa: BLE001 - to master
                ctrl_queue.put(FinalReport(
                    worker_id, error=ShardRuntime._wrap(exc)))
                return
            runtime = ShardRuntime(
                worker_id, graph, prog, config, shard, worker_of,
                order_of, endpoint, cmd_queue, ctrl_queue, epoch,
            )
            if not runtime.serve(traced):
                return
        elif kind in (CMD_ABORT, CMD_SHUTDOWN):
            return
        else:  # pragma: no cover - protocol bug
            ctrl_queue.put(FinalReport(
                worker_id,
                error=EngineError(f"unknown command {kind!r}"),
            ))
            return


# ----------------------------------------------------------------------
# master-side pool
# ----------------------------------------------------------------------
def _reap_pool(
    procs: List[Any],
    cmd_queues: List[Any],
    ctrl: Any,
    transport: Any,
    force: bool = False,
) -> None:
    """Tear a fleet down. Module-level (not a method) so the pool's
    ``weakref.finalize`` can call it without resurrecting the pool."""
    if force:
        # Workers may be blocked mid-exchange on a peer that already
        # died; poison the data queues so they raise instead of waiting
        # out PEER_WAIT_SECONDS, then kill whatever is left.
        try:
            transport.poison()
        except Exception:  # noqa: BLE001 - already tearing down
            pass
    command = (CMD_ABORT,) if force else (CMD_SHUTDOWN,)
    for cmd_queue in cmd_queues:
        try:
            cmd_queue.put(command)
        except Exception:  # noqa: BLE001 - already tearing down
            pass
    if force:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
    for proc in procs:
        proc.join(timeout=10.0)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
    for cmd_queue in cmd_queues:
        try:
            cmd_queue.close()
        except Exception:  # noqa: BLE001
            pass
    try:
        ctrl.cancel_join_thread()
        ctrl.close()
    except Exception:  # noqa: BLE001
        pass
    try:
        transport.close()
    except Exception:  # noqa: BLE001
        pass


class WorkerPool:
    """A persistent fleet of forked workers plus their data queues.

    Forking is the expensive part of a parallel run (the whole graph and
    routing tables fault into every child); the pool pays it once and
    re-initializes workers per run with ``CMD_INIT``. The first run uses
    the fork-inherited program (so unpicklable programs — closures,
    provenance wrappers holding UDF registries — work exactly as before);
    later runs ship ``pickle.dumps(program)``, and the engine falls back
    to a fresh fork when that fails.

    A ``weakref.finalize`` holding only the raw process/queue/transport
    handles guarantees the fleet is reaped when the owning engine is
    garbage collected, even without an explicit ``close()``.
    """

    def __init__(
        self,
        graph: Any,
        config: Any,
        shards: List[List[Any]],
        worker_of: Dict[Any, int],
        order_of: Dict[Any, int],
        program: Any,
    ) -> None:
        ctx = multiprocessing.get_context("fork")
        self.config = config
        self.num_workers = config.num_workers
        self.transport = QueueTransport(config, ctx)
        self.cmd_queues = [
            ctx.SimpleQueue() for _ in range(self.num_workers)
        ]
        self.ctrl: Any = ctx.Queue()
        self.epoch = 0
        self._fresh_program = program
        self.procs = [
            ctx.Process(
                target=worker_main,
                args=(
                    wid, graph, program, config, shards[wid], worker_of,
                    order_of, self.transport, self.cmd_queues[wid],
                    self.ctrl,
                ),
                daemon=True,
                name=f"repro-worker-{wid}",
            )
            for wid in range(self.num_workers)
        ]
        for proc in self.procs:
            proc.start()
        self._finalizer = weakref.finalize(
            self, _reap_pool, self.procs, self.cmd_queues, self.ctrl,
            self.transport,
        )

    @property
    def alive(self) -> bool:
        return all(proc.is_alive() for proc in self.procs)

    def init_run(self, blob: Optional[bytes], traced: bool) -> int:
        """Broadcast ``CMD_INIT`` for a new run; returns its epoch tag."""
        self.epoch += 1
        self.broadcast((CMD_INIT, blob, traced, self.epoch))
        return self.epoch

    def broadcast(self, command: Any) -> None:
        for cmd_queue in self.cmd_queues:
            cmd_queue.put(command)

    def shutdown(self, force: bool) -> None:
        if self._finalizer.detach() is None:
            return  # already reaped
        _reap_pool(
            self.procs, self.cmd_queues, self.ctrl, self.transport,
            force=force,
        )
