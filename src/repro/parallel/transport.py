"""Message transport of the multiprocess backend.

The master builds a :class:`QueueTransport` before the fork — one
``multiprocessing.Queue`` per worker, inherited by every child — and
each worker wraps it in a :class:`QueueEndpoint` whose
:meth:`~QueueEndpoint.exchange` runs once per superstep: put one frame
on every peer's queue, then take one frame per peer off its own.

**Wire format.** A batch of tagged messages ``(pos, seq, target,
payload)`` is one *frame*: a fixed header ``(kind, flags, src,
superstep, epoch, count)`` followed by the body. When every target is an
``int`` and every payload is a plain ``float`` (or every payload a plain
``int``), the body is three packed 64-bit columns — positions, targets,
payloads — which covers PageRank, SSSP and WCC without touching pickle.
Anything else falls back to a pickled list. ``seq`` never crosses the
wire: within a batch messages are already in send order, a worker sends
one batch per peer per superstep, and sender positions are disjoint
across workers, so the receiver regenerates ``seq = 0..count-1`` and the
global ``(pos, seq)`` merge order is unchanged. Superstep and epoch in
the header let receivers detect protocol skew instead of silently
merging a stale batch.
"""

from __future__ import annotations

import pickle
import queue as queue_module
import struct
import time
from array import array
from typing import Any, List

from repro.errors import EngineError

KIND_EMPTY = 0    # no messages this superstep
KIND_PICKLE = 1   # body = pickled [(pos, target, payload), ...]
KIND_F8 = 2       # body = i64 pos column + i64 target column + f64 payloads
KIND_I8 = 3       # body = i64 pos column + i64 target column + i64 payloads

FRAME_HEADER = struct.Struct("<BBHIII")  # kind, flags, src, superstep, epoch, count
_I64 = 8

#: How long a worker waits for a peer's batch before declaring the
#: exchange wedged. The master detects dead workers separately by polling
#: liveness; this is the worker-side backstop that keeps a stuck peer from
#: hanging the fleet forever.
PEER_WAIT_SECONDS = 60.0


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------
def _lane_of(batch: List[Any]) -> int:
    """Pick the frame kind for a batch (struct lanes need uniform types).

    ``bool`` is an ``int`` subclass but round-trips as ``int`` through an
    i64 column, so the checks are exact-type, not ``isinstance``.
    """
    int_lane = True
    float_lane = True
    for pos, _seq, target, payload in batch:
        if type(target) is not int or type(pos) is not int:
            return KIND_PICKLE
        kind = type(payload)
        if kind is float:
            int_lane = False
        elif kind is int:
            float_lane = False
        else:
            return KIND_PICKLE
        if not (int_lane or float_lane):
            return KIND_PICKLE
    return KIND_F8 if float_lane else KIND_I8


def encode_batch(
    src: int, superstep: int, epoch: int, batch: List[Any]
) -> bytes:
    """One outbox -> one wire frame."""
    count = len(batch)
    if not count:
        return FRAME_HEADER.pack(KIND_EMPTY, 0, src, superstep, epoch, 0)
    kind = _lane_of(batch)
    if kind != KIND_PICKLE:
        code = "d" if kind == KIND_F8 else "q"
        try:
            body = (
                array("q", [m[0] for m in batch]).tobytes()
                + array("q", [m[2] for m in batch]).tobytes()
                + array(code, [m[3] for m in batch]).tobytes()
            )
        except OverflowError:  # an int outside i64 — rare, not worth a scan
            kind = KIND_PICKLE
    if kind == KIND_PICKLE:
        body = pickle.dumps(
            [(m[0], m[2], m[3]) for m in batch],
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    return FRAME_HEADER.pack(kind, 0, src, superstep, epoch, count) + body


def decode_frame(frame: memoryview) -> Any:
    """One wire frame -> ``(src, superstep, epoch, batch)`` with ``seq``
    regenerated as the within-batch index."""
    kind, _flags, src, superstep, epoch, count = FRAME_HEADER.unpack_from(
        frame
    )
    body = frame[FRAME_HEADER.size:]
    if kind == KIND_EMPTY:
        batch: List[Any] = []
    elif kind == KIND_PICKLE:
        batch = [
            (pos, seq, target, payload)
            for seq, (pos, target, payload) in enumerate(pickle.loads(body))
        ]
    elif kind in (KIND_F8, KIND_I8):
        pos = array("q")
        pos.frombytes(body[:count * _I64])
        targets = array("q")
        targets.frombytes(body[count * _I64:2 * count * _I64])
        payloads = array("d" if kind == KIND_F8 else "q")
        payloads.frombytes(body[2 * count * _I64:3 * count * _I64])
        batch = list(zip(pos, range(count), targets, payloads))
    else:
        raise EngineError(f"unknown frame kind {kind}")
    return src, superstep, epoch, batch


# ----------------------------------------------------------------------
# endpoint (worker side) and transport (master side)
# ----------------------------------------------------------------------
class QueueEndpoint:
    """One worker's view of the per-worker ``multiprocessing.Queue`` set.

    ``None`` on the data queue is the poison sentinel (queues have no
    shared flag a peer could set).
    """

    def __init__(self, queues: List[Any], worker_id: int) -> None:
        self.worker_id = worker_id
        self._queues = queues
        self._peers = [w for w in range(len(queues)) if w != worker_id]

    def exchange(
        self, superstep: int, epoch: int, outboxes: List[List[Any]], report: Any
    ) -> List[List[Any]]:
        batches = [outboxes[self.worker_id]]
        for peer in self._peers:
            frame = encode_batch(
                self.worker_id, superstep, epoch, outboxes[peer]
            )
            report.network_bytes += len(frame)
            self._queues[peer].put(frame)
        pending = set(self._peers)
        own = self._queues[self.worker_id]
        waited = 0.0
        while pending:
            start = time.perf_counter()
            try:
                frame = own.get(timeout=PEER_WAIT_SECONDS)
            except queue_module.Empty:
                raise EngineError(
                    f"worker {self.worker_id}: no batch from peers "
                    f"{sorted(pending)} within {PEER_WAIT_SECONDS:.0f}s at "
                    f"superstep {superstep}"
                ) from None
            waited += time.perf_counter() - start
            if frame is None:
                raise EngineError(
                    f"worker {self.worker_id}: transport poisoned "
                    "(a peer failed or the master aborted)"
                )
            src, step, ep, batch = decode_frame(memoryview(frame))
            if src not in pending or step != superstep or ep != epoch:
                raise EngineError(
                    f"worker {self.worker_id}: unexpected batch from {src} "
                    f"at superstep {step} epoch {ep} "
                    f"(expected {superstep}/{epoch})"
                )
            pending.discard(src)
            if batch:
                batches.append(batch)
        report.wait_seconds += waited
        return batches

    def poison_outgoing(self) -> None:
        """Dying-worker path: unblock every peer waiting on our frame."""
        for peer in self._peers:
            try:
                self._queues[peer].put_nowait(None)
            except Exception:  # noqa: BLE001 - best effort while dying
                pass


class QueueTransport:
    """The master-side handle: one data queue per worker, created before
    the fork so every worker inherits all of them."""

    def __init__(self, config: Any, ctx: Any) -> None:
        self.queues = [ctx.Queue() for _ in range(config.num_workers)]

    def endpoint(self, worker_id: int) -> QueueEndpoint:
        return QueueEndpoint(self.queues, worker_id)

    def poison(self) -> None:
        # Each worker may be blocked waiting for up to n-1 peers; one
        # sentinel per possible get keeps every drain loop unblocked.
        for q in self.queues:
            for _ in range(len(self.queues)):
                try:
                    q.put_nowait(None)
                except Exception:  # noqa: BLE001 - already tearing down
                    pass

    def close(self) -> None:
        for q in self.queues:
            q.cancel_join_thread()
            q.close()
