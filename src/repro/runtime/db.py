"""Database views backing the three PQL evaluation modes.

The evaluator core (:mod:`repro.pql.eval`) is store-agnostic; these classes
define what "the partition of relation R at vertex v" means per mode. Every
relation they hold is layers of one container,
:class:`~repro.provenance.store.Relations`:

* :class:`StoreDatabase` — offline evaluation over a captured
  :class:`~repro.provenance.store.ProvenanceStore` plus the static input
  graph (``edge`` / ``vertex``: one column batch each, built from the
  adjacency lists) plus derived facts.
* :class:`OnlineDatabase` — online evaluation: the superstep's frames,
  local transient provenance facts and derived facts, where a vertex reads
  another vertex's partition only up to the watermark of that vertex's
  last message to it (the paper's locality restriction — a vertex can see
  exactly what would have been piggybacked onto the analytic's messages
  to it).
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.engine.engine import SendLog
from repro.graph.digraph import DiGraph
from repro.pql.eval import Database, Row
from repro.provenance.columnar import SlabColumns
from repro.provenance.model import _ATOMS, freeze
from repro.provenance.store import Layer, ProvenanceStore, Relations

#: The relations an :class:`Inbox` serves, with their arities.
_RECEIVE = {"receive_message": 4, "receive": 3}
#: A sender that never messaged anyone (read-only).
_NO_MARKS: Dict[Any, Tuple[Any, int]] = {}
_UNSHIPPED = (None, 0)  # the watermark of a pair with no message yet
_first = itemgetter(0)
_second = itemgetter(1)


class _StaticRelations:
    """The ``edge`` / ``vertex`` relations of the input graph as one column
    batch each, built from the adjacency lists on first read and kept for
    the database's lifetime: every vertex's out-edges one contiguous group,
    in ``graph.edges()`` order."""

    def __init__(self, graph: Optional[DiGraph]) -> None:
        self.graph = graph
        self._batches: Dict[str, Layer] = {}

    def column_batches(self, relation: str,
                       supersteps: Optional[Iterable[Any]] = None,
                       ) -> List[Layer]:
        """The relation's one batch (``[]``: no graph); the relations have
        no superstep attribute, so ``supersteps`` selects nothing."""
        if self.graph is None:
            return []
        batch = self._batches.get(relation)
        if batch is None:
            batch = self._batches[relation] = self._build(relation)
        return [batch]

    def _build(self, relation: str) -> Layer:
        groups: Dict[Any, Tuple[int, int]] = {}
        if relation == "vertex":
            vertices = list(self.graph.vertices())
            for i, v in enumerate(vertices):
                groups[v] = (i, 1)
            return Layer.of(SlabColumns([vertices], len(vertices), groups))
        sources: List[Any] = []
        targets: List[Any] = []
        for u, out in self.graph.out_edges_map().items():
            if out:
                groups[u] = (len(sources), len(out))
                sources += repeat(u, len(out))
                targets += map(_first, out)
        return Layer.of(SlabColumns([sources, targets], len(sources), groups))


class StoreDatabase(Database):
    """Offline view: captured store + static graph + derived facts."""

    def __init__(
        self,
        store: ProvenanceStore,
        graph: Optional[DiGraph] = None,
        head_predicates: Optional[Set[str]] = None,
    ) -> None:
        super().__init__()
        self.store = store
        self.static = _StaticRelations(graph)
        self.head_predicates = head_predicates or set()


_UNSET = object()


def frozen_payloads(payloads: List[Any]) -> List[Any]:
    """``payloads``, frozen: the list itself when every payload is a
    plain atom, which ``freeze`` returns as it is; otherwise a run of one
    payload object — a broadcast sends one per out-edge — is frozen
    once."""
    if set(map(type, payloads)) <= _ATOMS:
        return payloads
    out: List[Any] = []
    last = frozen = _UNSET
    for payload in payloads:
        if payload is not last:
            last, frozen = payload, freeze(payload)
        out.append(frozen)
    return out


class Inbox:
    """What the executed vertices of superstep *s* received: a view over
    the engine's receiver table — the barrier's group-by of the send log
    of *s − 1* — since ``receive_message(X, Y, M, s)`` is
    ``send_message(Y, X, M, s − 1)``. The engine delivers bare payloads;
    the sender and payload of every message are already in the process.

    ``senders`` maps each receiver to its senders in delivery (send) order;
    the groups follow ``sites``, the superstep's compute order. ``log`` is
    the send log of *s − 1* and ``frozen``, when given, the frozen copy of
    its payload column a ``send`` frame made, so no payload is frozen
    twice.

    The columns are receiver, sender, payload and, for
    ``receive_message``, the superstep (:class:`InboxBatch` serves them as
    a column batch). The payload column is the log's, regrouped by
    receiver — never the lists the analytic was handed — and is built, and
    frozen, when first read, so a query that never binds a payload freezes
    none. A repeated message is a repeated batch row, which changes no
    solution (a program's head insert keeps the first of equal rows);
    :meth:`rows` keeps the first occurrence of each."""

    __slots__ = ("superstep", "count", "_log", "_frozen", "_groups",
                 "_columns")

    def __init__(self, senders: Dict[Any, List[Any]], sites: Sequence[Any],
                 superstep: Any, log: SendLog,
                 frozen: Optional[List[Any]] = None) -> None:
        self.superstep = superstep
        self._log, self._frozen = log, frozen
        self._groups: Dict[Any, Tuple[int, int]] = {}
        column: List[Any] = []
        for v in sites:
            box = senders.get(v)
            if box:
                self._groups[v] = (len(column), len(box))
                column += box
        self.count = len(column)
        self._columns: Dict[int, List[Any]] = {1: column}

    def groups(self) -> Dict[Any, Tuple[int, int]]:
        return self._groups

    def values(self, pos: int) -> List[Any]:
        column = self._columns.get(pos)
        if column is None:
            if pos == 0:
                column = []
                for v, (_start, n) in self._groups.items():
                    column += repeat(v, n)
            elif pos == 2:
                column = self._payloads()
            else:
                column = [self.superstep] * self.count
            self._columns[pos] = column
        return column

    def _payloads(self) -> List[Any]:
        """The log's frozen payloads, each receiver's in send order."""
        payloads = self._frozen
        if payloads is None:
            payloads = frozen_payloads(self._log.payloads)
        boxes: Dict[Any, List[Any]] = {}
        for target, payload in zip(self._log.targets, payloads):
            try:
                boxes[target].append(payload)
            except KeyError:
                boxes[target] = [payload]
        column: List[Any] = []
        for v in self._groups:
            column += boxes[v]
        return column

    def rows(self, vertex: Any, stamped: bool = True) -> List[Row]:
        """``vertex``'s ``receive_message`` rows (``receive`` rows when not
        ``stamped``): one per distinct (sender, payload), first
        occurrences in delivery order."""
        span = self._groups.get(vertex)
        if span is None:
            return []
        start, end = span[0], span[0] + span[1]
        columns = [repeat(vertex), self._columns[1][start:end],
                   self.values(2)[start:end]]
        if stamped:
            columns.append(repeat(self.superstep))
        return list(dict.fromkeys(zip(*columns)))

    def layer(self) -> Layer:
        """Every receiver's :meth:`rows`, as one layer."""
        return Layer.of(SlabColumns.of_rows(
            {v: self.rows(v) for v in self._groups}))

    def distinct_count(self) -> int:
        """``len(rows(v))`` summed over the receivers, freezing payloads
        only for a receiver some sender messaged twice."""
        senders = self._columns[1]
        total = 0
        for start, n in self._groups.values():
            group = senders[start:start + n]
            if len(set(group)) == n:
                total += n
            else:
                total += len(set(zip(group, self.values(2)[start:start + n])))
        return total


class InboxBatch:
    """An :class:`Inbox` as the column batch of ``receive_message``
    (arity 4) or ``receive`` (arity 3)."""

    __slots__ = ("arity", "count", "_inbox")

    def __init__(self, inbox: Inbox, arity: int) -> None:
        self.arity, self.count, self._inbox = arity, inbox.count, inbox

    def lane(self, pos: int) -> str:
        return "obj"

    def groups(self) -> Dict[Any, Tuple[int, int]]:
        return self._inbox.groups()

    def values(self, pos: int) -> List[Any]:
        return self._inbox.values(pos)


class OnlineDatabase(Database):
    """Online view for one wrapper run. It is its own ``store``: it serves
    the superstep being evaluated as column batches, the ``column_batches``
    protocol of the stores (DESIGN.md §14), so layer programs run over a
    superstep exactly as over a sealed layer.

    * A *frame* relation (``frame_relations``: the stream relations and
      every auto-captured relation only the anchor superstep reads) is the
      superstep's ``frames[relation]``, a :class:`Layer` the executed
      vertices appended to in compute order; ``receive`` and a framed
      ``receive_message`` are the superstep's :class:`Inbox`.
    * A *stored* relation is ``local``'s: the auto-captured facts a later
      superstep may still read, one layer per superstep.

    ``derived`` (from the base class) holds the query's IDB facts, one
    layer per superstep that derived rows.

    A vertex reads another vertex's ``shipped`` relations only as far as
    that vertex has shipped them to it (the paper's locality restriction).
    :meth:`ship` records, per (sender, receiver), a watermark: the
    superstep of the sender's last message to the receiver and how many
    shipped rows the sender held then. Layers arrive in
    superstep order and a message leaves after its superstep's
    evaluation, so what the sender had shipped is exactly its rows in the
    layers up to that superstep (:meth:`shipped_layers`); the row counts
    price the per-target deltas.
    """

    locality = True

    def __init__(
        self,
        graph: Optional[DiGraph],
        head_predicates: Set[str],
        frame_relations: Set[str],
        shipped: Iterable[str] = (),
    ) -> None:
        super().__init__()
        self.local = Relations()
        self.store = self
        self.static = _StaticRelations(graph)
        self.head_predicates = head_predicates
        self.frame_relations = frame_relations
        self.superstep: Any = None
        self.frames: Dict[str, Layer] = {}
        self.inbox: Optional[Inbox] = None
        # shipped relation -> the container its rows live in
        self.shipped = {
            rel: self.derived if rel in head_predicates else self.local
            for rel in sorted(shipped)
        }
        # sender -> receiver -> watermark: ``[superstep, rows]``, the
        # superstep of the sender's last message to the receiver and how
        # many shipped rows it held then. Every target of one span shares
        # one watermark list, so a repeat of the span moves them all.
        self.marks: Dict[Any, Dict[Any, List[Any]]] = {}
        # sender -> its last span that shipped anything: ``(targets,
        # distinct targets, the targets' shared watermark)``
        self.last_span: Dict[Any, Tuple[List[Any], int, List[Any]]] = {}

    # -- the superstep as column batches -----------------------------------
    def begin(self, superstep: Any, frames: Dict[str, Layer],
              inbox: Optional[Inbox]) -> None:
        """Serve ``superstep``, whose frames are ``frames`` and whose
        executed vertices received ``inbox``."""
        self.superstep, self.frames, self.inbox = superstep, frames, inbox

    def has_relation(self, relation: str) -> bool:
        return (relation in self.frame_relations
                or self.local.has_relation(relation))

    def column_batches(self, relation: str,
                       supersteps: Optional[Iterable[Any]] = None,
                       ) -> List[Any]:
        if relation not in self.frame_relations:
            return self.local.column_batches(relation, supersteps)
        if supersteps is not None and self.superstep not in supersteps:
            return []
        if relation in _RECEIVE:
            inbox = self.inbox
            return ([InboxBatch(inbox, _RECEIVE[relation])]
                    if inbox is not None and inbox.count else [])
        frame = self.frames.get(relation)
        return [frame] if frame is not None and frame.count else []

    def keep(self, relation: str, superstep: Any, layer: Layer) -> None:
        """Store ``layer``, a frame of ``superstep``, for later supersteps:
        a shipped relation's rows are inserted, counting each vertex's rows
        for its watermarks."""
        if relation in self.shipped:
            self.local.insert(relation, zip(*layer.columns), superstep)
        elif layer.count:
            self.local.put(relation, superstep, layer)

    # -- shipping -----------------------------------------------------------
    def ship(self, log: SendLog, superstep: Any) -> int:
        """Each sender of the send ``log`` messaged the targets of its span
        (in send order) at ``superstep``, just evaluated, so move each
        target's watermark to what the sender holds now. Returns the rows
        the per-target deltas carry — every message the rows its target
        had not been shipped yet, so a repeat message carries none.

        A sender that messages the same targets as its last span that
        shipped anything (every broadcast, and SSSP's per-edge sends)
        shares one watermark among them, so it is priced and moved in
        O(1): ``(rows - rows then) x distinct targets``."""
        sizes = [held.sizes(rel) for rel, held in self.shipped.items()]
        targets = log.targets
        last_span = self.last_span
        carried = 0
        for sender, (start, n) in log.spans.items():
            rows = sum([size.get(sender, 0) for size in sizes])
            if not rows:
                continue
            sent = targets[start:start + n]
            last = last_span.get(sender)
            if last is not None and last[0] == sent:
                _sent, distinct, mark = last
                carried += (rows - mark[1]) * distinct
                mark[0], mark[1] = superstep, rows
                continue
            marks = self.marks.setdefault(sender, {})
            distinct_targets = dict.fromkeys(sent)
            carried += rows * len(distinct_targets) - sum(map(
                _second, map(marks.get, distinct_targets,
                             repeat(_UNSHIPPED))))
            mark = [superstep, rows]
            marks.update(dict.fromkeys(distinct_targets, mark))
            last_span[sender] = (sent, len(distinct_targets), mark)
        return carried

    def shipped_through(self, receivers: Sequence[Any],
                        senders: Sequence[Any]) -> List[Any]:
        """Per (receiver, sender) pair, the superstep of ``sender``'s last
        message to ``receiver`` that shipped anything (``None``: none did).
        ``receiver`` has been shipped exactly the sender's rows in the
        layers of that superstep and before — never what it derived
        after."""
        by_sender = map(self.marks.get, senders, repeat(_NO_MARKS))
        return list(map(_first, map(dict.get, by_sender, receivers,
                                    repeat(_UNSHIPPED))))

    def shipped_layers(self, relation: str,
                       supersteps: Optional[Iterable[Any]],
                       through: Any) -> List[Layer]:
        """``relation``'s layers of ``supersteps`` (every one: ``None``) as
        a vertex shipped them by its message at superstep ``through``."""
        held = self.shipped.get(relation)
        return [] if held is None else held.column_batches(
            relation, supersteps, through)
