"""Vertex program abstraction and the per-vertex compute context.

A :class:`VertexProgram` is the user-facing API mirroring Giraph's
``BasicComputation``: one ``compute`` method that every active vertex runs
each superstep (Algorithm 1 of the paper). The engine hands ``compute`` a
:class:`VertexContext` through which the vertex reads its state, updates its
value, sends messages and votes to halt.

Ariadne's provenance machinery never subclasses the engine — it wraps a
``VertexProgram`` in another ``VertexProgram`` (see ``repro.runtime``), which
is exactly how the paper keeps the graph processing engine unmodified.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.aggregators import Aggregator
from repro.errors import EngineError


class Combiner:
    """Message combiner: reduces messages addressed to the same target,
    left-folding them in delivery order."""

    def combine(self, a: Any, b: Any) -> Any:
        raise NotImplementedError


class MinCombiner(Combiner):
    def combine(self, a: Any, b: Any) -> Any:
        return a if a <= b else b


class MaxCombiner(Combiner):
    def combine(self, a: Any, b: Any) -> Any:
        return a if a >= b else b


class SumCombiner(Combiner):
    def combine(self, a: Any, b: Any) -> Any:
        return a + b


class VertexContext:
    """Per-vertex view of the engine during ``compute``.

    One context instance is reused across all vertices of a run (the
    engine rebinds it before each ``compute`` call) to keep the hot loop
    allocation-free. A send appends to the columns of the engine's
    :class:`~repro.engine.engine.SendLog` and counts a cross-worker send.
    """

    __slots__ = (
        "_engine",
        "vertex_id",
        "superstep",
        "_value",
        "_value_changed",
        "_halted",
        "_worker",
        "_worker_of",
        "_out",
        "_cross_edges",
        "_targets",
        "_payloads",
        "_cross",
    )

    def __init__(self, engine: "Any") -> None:
        self._engine = engine
        self.vertex_id: Any = None
        self.superstep: int = 0
        self._value: Any = None
        self._value_changed = False
        self._halted = False
        self._worker = 0
        self._worker_of: Dict[Any, int] = engine._worker_of
        self._out: Dict[Any, List[Any]] = engine.graph.out_targets()
        self._cross_edges: Dict[Any, int] = engine._cross_edges
        self._targets: List[Any] = []
        self._payloads: List[Any] = []
        self._cross = 0  # cross-worker sends since the last reset

    def _bind(self, vertex_id: Any, superstep: int, value: Any,
              worker: int) -> None:
        self.vertex_id = vertex_id
        self.superstep = superstep
        self._value = value
        self._value_changed = False
        self._halted = False
        self._worker = worker

    # -- state ---------------------------------------------------------
    @property
    def value(self) -> Any:
        return self._value

    def set_value(self, value: Any) -> None:
        self._value = value
        self._value_changed = True

    @property
    def num_vertices(self) -> int:
        return self._engine.graph.num_vertices

    # -- topology ------------------------------------------------------
    def out_edges(self) -> List[Tuple[Any, Any]]:
        """``(target, edge_value)`` pairs, honoring per-run edge updates."""
        return self._engine._edges_of(self.vertex_id)

    def out_neighbors(self) -> List[Any]:
        return [t for t, _ in self.out_edges()]

    def in_neighbors(self) -> List[Any]:
        return self._engine.graph.in_neighbors(self.vertex_id)

    def out_degree(self) -> int:
        return len(self._out[self.vertex_id])

    def edge_value(self, target: Any) -> Any:
        return self._engine._edge_value(self.vertex_id, target)

    def set_edge_value(self, target: Any, value: Any) -> None:
        """Update an out-edge's value in the run's overlay (the input graph
        itself is never mutated by a run)."""
        self._engine._set_edge_value(self.vertex_id, target, value)

    # -- communication ---------------------------------------------------
    def send(self, target: Any, message: Any) -> None:
        worker = self._worker_of.get(target)
        if worker is None:
            raise EngineError(f"message to unknown vertex {target!r}")
        if worker != self._worker:
            self._cross += 1
        self._targets.append(target)
        self._payloads.append(message)

    def send_to_all(self, message: Any) -> None:
        """Send ``message`` along every out-edge: no call per message."""
        targets = self._out[self.vertex_id]
        if targets:
            self._targets += targets
            self._payloads += [message] * len(targets)
            cross = self._cross_edges.get(self.vertex_id)
            if cross is None:
                cross = self._engine._count_cross_edges(self.vertex_id)
            self._cross += cross

    # -- control -----------------------------------------------------------
    def vote_to_halt(self) -> None:
        self._halted = True

    # -- aggregators ---------------------------------------------------
    def aggregate(self, name: str, value: Any) -> None:
        self._engine.aggregators.aggregate(name, value)

    def aggregated(self, name: str) -> Any:
        """Reduced aggregator value from the previous superstep."""
        return self._engine.aggregators.value(name)


class VertexProgram:
    """Base class for analytics (and for Ariadne's query vertex programs).

    Subclasses implement :meth:`compute`; the other hooks have sensible
    defaults. ``name`` is used in metrics and reports.
    """

    name = "vertex-program"

    def compute(self, ctx: VertexContext, messages: Sequence[Any]) -> None:
        raise NotImplementedError

    def initial_value(self, vertex_id: Any, graph: Any) -> Any:
        """Value every vertex starts with at superstep 0."""
        return None

    def combiner(self) -> Optional[Combiner]:
        """The program's message combiner, or ``None``. The engine folds
        a receiver's messages with it at every barrier; there is no run
        setting that turns it off. A program that needs each message
        (the online query program) returns ``None``."""
        return None

    def aggregators(self) -> Dict[str, Aggregator]:
        """Aggregators to register for the run."""
        return {}

    def post_superstep(self, superstep: int) -> None:
        """Program-level hook run once per superstep, after the last
        ``compute`` of ``superstep`` and before the engine's barrier
        delivers its messages — the analogue of Giraph's
        ``WorkerContext.postSuperstep()``. It sees no vertex
        context; messages sent during the superstep may still be mutated.
        Ariadne's query program evaluates the query here. Default: no-op."""

    def master_halt(self, aggregators: "Any", superstep: int) -> bool:
        """Master-side convergence check evaluated at each barrier.

        Returning True stops the run even if vertices are still active
        (ALS uses this to stop when the global error is low enough).
        """
        return False


class FunctionProgram(VertexProgram):
    """Adapter turning a plain function into a :class:`VertexProgram`.

    Useful in tests::

        prog = FunctionProgram(lambda ctx, msgs: ctx.vote_to_halt())
    """

    def __init__(
        self,
        fn: Callable[[VertexContext, Sequence[Any]], None],
        initial: Any = None,
        name: str = "function-program",
    ) -> None:
        if not callable(fn):
            raise EngineError("FunctionProgram needs a callable")
        self._fn = fn
        self._initial = initial
        self.name = name

    def compute(self, ctx: VertexContext, messages: Sequence[Any]) -> None:
        self._fn(ctx, messages)

    def initial_value(self, vertex_id: Any, graph: Any) -> Any:
        if callable(self._initial):
            return self._initial(vertex_id, graph)
        return self._initial
