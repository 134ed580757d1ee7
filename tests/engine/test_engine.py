"""Unit tests for the BSP engine: superstep semantics, halting, messaging."""

import dataclasses
import pickle

import pytest

from repro.engine.config import EngineConfig
from repro.engine.engine import PregelEngine, run_program
from repro.engine.vertex import FunctionProgram, MinCombiner, VertexProgram
from repro.errors import EngineError, VertexProgramError
from repro.graph.digraph import DiGraph, from_edge_list
from repro.graph.generators import chain_graph


class Broadcast(VertexProgram):
    """Sends its value downstream for a fixed number of supersteps."""

    def __init__(self, rounds: int):
        self.rounds = rounds

    def initial_value(self, vertex_id, graph):
        return vertex_id

    def compute(self, ctx, messages):
        if messages:
            ctx.set_value(min(min(messages), ctx.value))
        if ctx.superstep < self.rounds:
            ctx.send_to_all(ctx.value)
        ctx.vote_to_halt()


class TestSuperstepSemantics:
    def test_all_vertices_compute_at_superstep_zero(self):
        seen = []
        prog = FunctionProgram(
            lambda ctx, msgs: (seen.append(ctx.vertex_id), ctx.vote_to_halt())
        )
        run_program(chain_graph(4), prog)
        assert sorted(seen) == [0, 1, 2, 3]

    def test_messages_delivered_next_superstep(self):
        deliveries = {}

        def fn(ctx, msgs):
            if msgs:
                deliveries[ctx.vertex_id] = (ctx.superstep, list(msgs))
            if ctx.superstep == 0:
                ctx.send_to_all("hi")
            ctx.vote_to_halt()

        run_program(chain_graph(3), FunctionProgram(fn))
        assert deliveries == {1: (1, ["hi"]), 2: (1, ["hi"])}

    def test_halted_vertex_wakes_on_message(self):
        computes = []

        def fn(ctx, msgs):
            computes.append((ctx.vertex_id, ctx.superstep))
            if ctx.vertex_id == 0 and ctx.superstep == 2:
                ctx.send(1, "wake")
            if ctx.vertex_id != 0 or ctx.superstep >= 3:
                ctx.vote_to_halt()

        run_program(chain_graph(2), FunctionProgram(fn))
        # vertex 1 halts after superstep 0, then wakes at superstep 3
        assert (1, 3) in computes
        assert (1, 1) not in computes and (1, 2) not in computes

    def test_terminates_when_everyone_halts(self):
        result = run_program(
            chain_graph(3),
            FunctionProgram(lambda ctx, msgs: ctx.vote_to_halt()),
        )
        assert result.num_supersteps == 1
        assert result.halt_reason in ("converged", "no_active_vertices")

    def test_max_supersteps_cap(self):
        prog = FunctionProgram(lambda ctx, msgs: ctx.send_to_all(1))
        result = run_program(chain_graph(3), prog,
                             config=EngineConfig(max_supersteps=5))
        assert result.num_supersteps == 5
        assert result.halt_reason == "max_supersteps"

    def test_value_propagation(self):
        result = run_program(chain_graph(5), Broadcast(rounds=6))
        # min value (0) flows down the chain
        assert all(v == 0 for v in result.values.values())


class TestMessaging:
    def test_send_to_unknown_vertex_raises(self):
        prog = FunctionProgram(lambda ctx, msgs: ctx.send(999, "x"))
        with pytest.raises(VertexProgramError):
            run_program(chain_graph(2), prog)

    def test_send_to_unknown_vertex_fails_at_the_send(self):
        """The send itself raises, inside ``compute``, naming the sender,
        the superstep and the target — not the barrier after it — and the
        half-built send log does not outlive the run."""
        after_send = []

        def fn(ctx, msgs):
            if ctx.superstep == 1:
                ctx.send_to_all("fine")
                if ctx.vertex_id == 1:
                    ctx.send("missing", "x")
                    after_send.append(ctx.vertex_id)

        engine = PregelEngine(chain_graph(3))
        with pytest.raises(VertexProgramError) as info:
            engine.run(FunctionProgram(fn))
        err = info.value
        assert (err.vertex_id, err.superstep) == (1, 1)
        assert isinstance(err.cause, EngineError)
        assert "message to unknown vertex 'missing'" in str(err)
        assert after_send == []
        # the same engine then runs a program as a fresh one does
        again = engine.run(Broadcast(rounds=3))
        fresh = PregelEngine(chain_graph(3)).run(Broadcast(rounds=3))
        assert again.values == fresh.values
        assert again.metrics.summary() == {
            **fresh.metrics.summary(),
            "wall_seconds": again.metrics.wall_seconds}

    def test_combiner_reduces_messages(self):
        class TwoSends(VertexProgram):
            def combiner(self):
                return MinCombiner()

            def compute(self, ctx, messages):
                if ctx.superstep == 0 and ctx.vertex_id in (0, 1):
                    ctx.send(2, ctx.vertex_id + 10)
                if messages:
                    ctx.set_value(list(messages))
                ctx.vote_to_halt()

        g = from_edge_list([(0, 2), (1, 2)])
        result = run_program(g, TwoSends())
        assert result.values[2] == [10]  # combined to the min
        assert result.metrics.supersteps[0].messages_combined == 1

    def test_no_combiner_delivers_every_message(self):
        """The combiner is the program's: one whose ``combiner()`` is
        ``None`` receives each message, under the default config."""
        class TwoSends(VertexProgram):
            def combiner(self):
                return None

            def compute(self, ctx, messages):
                if ctx.superstep == 0 and ctx.vertex_id in (0, 1):
                    ctx.send(2, ctx.vertex_id + 10)
                if messages:
                    ctx.set_value(sorted(messages))
                ctx.vote_to_halt()

        g = from_edge_list([(0, 2), (1, 2)])
        result = run_program(g, TwoSends())
        assert result.values[2] == [10, 11]
        assert result.metrics.total_messages_combined == 0

    def test_cross_worker_accounting(self):
        prog = FunctionProgram(
            lambda ctx, msgs: (
                ctx.send_to_all("m") if ctx.superstep == 0 else None,
                ctx.vote_to_halt(),
            )
        )
        config = EngineConfig(num_workers=2)
        result = run_program(chain_graph(10), prog, config=config)
        step0 = result.metrics.supersteps[0]
        # chain edges i -> i+1 always cross with 2-worker modulo hashing
        assert step0.cross_worker_messages == step0.messages_sent == 9


class TestEdgeValueOverlay:
    def test_overlay_does_not_mutate_graph(self):
        g = chain_graph(2)
        g.set_edge_value(0, 1, 1.0)

        def fn(ctx, msgs):
            if ctx.vertex_id == 0:
                ctx.set_edge_value(1, 99.0)
                assert ctx.edge_value(1) == 99.0
            ctx.vote_to_halt()

        result = run_program(g, FunctionProgram(fn))
        assert g.edge_value(0, 1) == 1.0  # input untouched
        assert result.edge_values[(0, 1)] == 99.0

    def test_overlay_visible_in_out_edges(self):
        g = chain_graph(2)
        seen = {}

        def fn(ctx, msgs):
            if ctx.vertex_id == 0:
                if ctx.superstep == 0:
                    ctx.set_edge_value(1, "new")
                else:
                    seen["edges"] = ctx.out_edges()
                    ctx.vote_to_halt()
                    return
                ctx.send(0, "again")
            ctx.vote_to_halt()

        run_program(g, FunctionProgram(fn))
        assert seen["edges"] == [(1, "new")]

    def test_setting_missing_edge_raises(self):
        prog = FunctionProgram(lambda ctx, msgs: ctx.set_edge_value(5, 1))
        with pytest.raises(VertexProgramError):
            run_program(chain_graph(2), prog)


class TestErrors:
    def test_vertex_error_wraps_cause(self):
        def fn(ctx, msgs):
            if ctx.vertex_id == 1:
                raise ValueError("boom")
            ctx.vote_to_halt()

        with pytest.raises(VertexProgramError) as info:
            run_program(chain_graph(3), FunctionProgram(fn))
        assert info.value.vertex_id == 1
        assert info.value.superstep == 0
        assert isinstance(info.value.cause, ValueError)

    def test_config_validation(self):
        with pytest.raises(EngineError):
            EngineConfig(num_workers=0).validate()
        with pytest.raises(EngineError):
            PregelEngine(chain_graph(2), config=EngineConfig(max_supersteps=0))

    def test_config_rejects_unknown_partitioner(self):
        # hash partitioning only: there is no field left to pick another
        for name in ("range", "hash", "metis"):
            with pytest.raises(TypeError):
                EngineConfig(partitioner=name)

    def test_config_has_no_backend(self):
        # one engine: there is no field left to pick another
        with pytest.raises(TypeError):
            EngineConfig(backend="serial")

    @pytest.mark.parametrize("switch", [
        {"use_combiner": False},       # the combiner is the program's
        {"ledger_dir": "ledger"},      # the CLI and server keep the ledger
    ])
    def test_config_has_no_removed_switch(self, switch):
        with pytest.raises(TypeError):
            EngineConfig(**switch)

    def test_config_has_two_fields(self):
        assert [f.name for f in dataclasses.fields(EngineConfig)] == [
            "num_workers", "max_supersteps"]


class TestDeterminism:
    def test_repeated_runs_identical(self):
        g = chain_graph(20)
        r1 = run_program(g, Broadcast(rounds=25))
        r2 = run_program(g, Broadcast(rounds=25))
        assert r1.values == r2.values
        assert r1.num_supersteps == r2.num_supersteps


class TestVertexProgramErrorPickling:
    @staticmethod
    def roundtrip(obj):
        return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))

    def test_fields_survive(self):
        err = VertexProgramError("v9", 3, ValueError("boom"))
        clone = self.roundtrip(err)
        assert clone.vertex_id == "v9"
        assert clone.superstep == 3
        assert isinstance(clone.cause, ValueError)
        assert str(clone) == str(err)

    def test_unpicklable_cause_degrades(self):
        cause = ValueError("local state")
        cause.callback = lambda: None  # closures don't pickle
        err = VertexProgramError(1, 0, cause)
        clone = self.roundtrip(err)
        assert clone.vertex_id == 1
        assert isinstance(clone.cause, RuntimeError)
        assert "local state" in str(clone.cause)
