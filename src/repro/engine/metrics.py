"""Execution metrics of an engine run.

The paper's evaluation reports wall-clock overheads; the single-process
simulation additionally records *work* counters (vertex executions,
messages, cross-worker traffic between the simulated workers) that are
hardware-independent and therefore the more faithful basis for comparing
evaluation modes.

:class:`RunMetrics` is the per-run view of the same counters the
process-wide :class:`~repro.obs.metrics.MetricsRegistry` accumulates
across runs: the engine calls :meth:`RunMetrics.publish` at the end of
every run, folding the run's totals into the ``repro_engine_*`` metric
families, so the existing dataclass API and the registry never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.metrics import MetricsRegistry


@dataclass
class SuperstepMetrics:
    """Counters for one superstep."""

    superstep: int
    active_vertices: int = 0
    messages_sent: int = 0
    messages_combined: int = 0
    # Messages between vertices of different simulated workers: the
    # paper's network-traffic metric.
    cross_worker_messages: int = 0
    wall_seconds: float = 0.0
    # Scheduler counters: how many vertices the superstep scheduled
    # (frontier) and how many it never had to look at.
    frontier_size: int = 0
    skipped_vertices: int = 0


@dataclass
class RunMetrics:
    """Counters for a whole run plus the per-superstep breakdown."""

    supersteps: List[SuperstepMetrics] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    @property
    def total_messages(self) -> int:
        return sum(s.messages_sent for s in self.supersteps)

    @property
    def total_active_vertices(self) -> int:
        """Total vertex executions (the 'work' of the run)."""
        return sum(s.active_vertices for s in self.supersteps)

    @property
    def total_cross_worker_messages(self) -> int:
        return sum(s.cross_worker_messages for s in self.supersteps)

    @property
    def total_messages_combined(self) -> int:
        return sum(s.messages_combined for s in self.supersteps)

    @property
    def combine_ratio(self) -> float:
        """Fraction of sent messages a combiner folded away."""
        if not self.total_messages:
            return 0.0
        return self.total_messages_combined / self.total_messages

    @property
    def total_frontier_size(self) -> int:
        """Total vertices scheduled across all supersteps."""
        return sum(s.frontier_size for s in self.supersteps)

    @property
    def total_skipped_vertices(self) -> int:
        """Total vertices the scheduler never had to execute."""
        return sum(s.skipped_vertices for s in self.supersteps)

    @property
    def max_frontier_size(self) -> int:
        return max((s.frontier_size for s in self.supersteps), default=0)

    @property
    def frontier_skip_ratio(self) -> float:
        """Fraction of scheduled-or-skipped vertex slots the frontier
        scheduler never had to execute (0.0 when nothing was skipped)."""
        considered = self.total_frontier_size + self.total_skipped_vertices
        if not considered:
            return 0.0
        return self.total_skipped_vertices / considered

    def summary(self) -> Dict[str, Any]:
        return {
            "supersteps": self.num_supersteps,
            "wall_seconds": self.wall_seconds,
            "vertex_executions": self.total_active_vertices,
            "messages": self.total_messages,
            "messages_combined": self.total_messages_combined,
            "combine_ratio": self.combine_ratio,
            "cross_worker_messages": self.total_cross_worker_messages,
            "frontier_vertices": self.total_frontier_size,
            "skipped_vertices": self.total_skipped_vertices,
        }

    def publish(self, registry: Optional["MetricsRegistry"] = None) -> None:
        """Fold this run's totals into a metrics registry.

        Called by the engine at the end of every run with the process
        registry, making the ``repro_engine_*`` families the cross-run
        accumulation of exactly these counters.
        """
        if registry is None:
            from repro.obs.metrics import get_registry

            registry = get_registry()
        registry.counter(
            "repro_engine_runs_total", "completed engine runs"
        ).inc()
        registry.counter(
            "repro_engine_supersteps_total", "executed supersteps"
        ).inc(self.num_supersteps)
        registry.counter(
            "repro_engine_vertex_executions_total", "vertex compute calls"
        ).inc(self.total_active_vertices)
        registry.counter(
            "repro_engine_messages_total", "messages sent"
        ).inc(self.total_messages)
        registry.counter(
            "repro_engine_messages_combined_total",
            "messages folded by a combiner",
        ).inc(self.total_messages_combined)
        registry.counter(
            "repro_engine_cross_worker_messages_total",
            "messages that crossed a worker boundary",
        ).inc(self.total_cross_worker_messages)
        registry.counter(
            "repro_engine_skipped_vertices_total",
            "vertices the frontier scheduler never executed",
        ).inc(self.total_skipped_vertices)
        histogram = registry.histogram(
            "repro_engine_superstep_seconds",
            "compute wall time per superstep",
        )
        for step in self.supersteps:
            histogram.observe(step.wall_seconds)
