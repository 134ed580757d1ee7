"""Unit tests for engine run metrics."""

from repro.engine.engine import run_program
from repro.engine.metrics import RunMetrics, SuperstepMetrics
from repro.engine.vertex import FunctionProgram
from repro.graph.generators import chain_graph


class TestSuperstepMetrics:
    def test_defaults(self):
        step = SuperstepMetrics(3)
        assert step.superstep == 3
        assert step.messages_sent == 0
        assert step.wall_seconds == 0.0


class TestRunMetrics:
    def test_totals(self):
        metrics = RunMetrics()
        for i, (active, msgs) in enumerate([(5, 10), (3, 4)]):
            step = SuperstepMetrics(i)
            step.active_vertices = active
            step.messages_sent = msgs
            step.cross_worker_messages = msgs // 2
            metrics.supersteps.append(step)
        assert metrics.num_supersteps == 2
        assert metrics.total_messages == 14
        assert metrics.total_active_vertices == 8
        assert metrics.total_cross_worker_messages == 7

    def test_summary_keys(self):
        metrics = RunMetrics()
        summary = metrics.summary()
        assert set(summary) == {
            "supersteps", "wall_seconds", "vertex_executions", "messages",
            "cross_worker_messages", "frontier_vertices", "skipped_vertices",
            "messages_combined", "combine_ratio",
        }

    def test_combine_ratio(self):
        metrics = RunMetrics()
        step = SuperstepMetrics(0)
        step.messages_sent = 10
        step.messages_combined = 5
        metrics.supersteps.append(step)
        assert metrics.total_messages_combined == 5
        assert metrics.combine_ratio == 0.5
        empty = RunMetrics()
        assert empty.combine_ratio == 0.0

    def test_frontier_skip_ratio(self):
        metrics = RunMetrics()
        assert metrics.frontier_skip_ratio == 0.0  # no supersteps yet
        for i, (frontier, skipped) in enumerate([(10, 0), (5, 15)]):
            step = SuperstepMetrics(i)
            step.frontier_size = frontier
            step.skipped_vertices = skipped
            metrics.supersteps.append(step)
        assert metrics.frontier_skip_ratio == 0.5  # 15 of 30 slots skipped

    def test_frontier_totals(self):
        metrics = RunMetrics()
        for i, (frontier, skipped) in enumerate([(10, 0), (2, 8)]):
            step = SuperstepMetrics(i)
            step.frontier_size = frontier
            step.skipped_vertices = skipped
            metrics.supersteps.append(step)
        assert metrics.total_frontier_size == 12
        assert metrics.total_skipped_vertices == 8
        assert metrics.max_frontier_size == 10


class TestEngineCounting:
    def test_active_vertices_per_superstep(self):
        def fn(ctx, msgs):
            if ctx.superstep == 0 and ctx.vertex_id == 0:
                ctx.send_to_all("x")
            ctx.vote_to_halt()

        result = run_program(chain_graph(4), FunctionProgram(fn))
        steps = result.metrics.supersteps
        assert steps[0].active_vertices == 4  # everyone at superstep 0
        assert steps[1].active_vertices == 1  # only vertex 1 got a message
        # scheduler counters mirror the executed/idle split
        assert steps[0].frontier_size == 4 and steps[0].skipped_vertices == 0
        assert steps[1].frontier_size == 1 and steps[1].skipped_vertices == 3

    def test_wall_seconds_accumulate(self):
        result = run_program(
            chain_graph(3),
            FunctionProgram(lambda ctx, m: ctx.vote_to_halt()),
        )
        assert result.metrics.wall_seconds >= sum(
            s.wall_seconds for s in result.metrics.supersteps
        ) > 0.0
