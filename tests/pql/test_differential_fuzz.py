"""Randomized differential testing: the layer programs (online, layered
and naive, over in-memory and sealed stores) and the standalone semi-naive
interpreter must agree on randomly composed programs over randomly
generated provenance stores and graphs.

Programs are assembled from parameterized rule templates (filters, joins,
negation, recursion through receive/send guards, aggregation over float
columns, ``edge`` / ``vertex`` reads, static setup rules, joins keyed on a
pickle-lane column) with random constants — every combination is safe and
stratified by construction, but the *plans* differ wildly, which is the
point.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DiGraph
from repro.pql.parser import parse
from repro.pql.seminaive import evaluate_seminaive, store_to_facts
from repro.pql.udf import FunctionRegistry
from repro.provenance.store import ProvenanceStore
from repro.runtime.offline import run_reference

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_store(draw):
    """A capture and the graph it ran on: ``(store, graph)``. Message
    payloads are floats or, in about half the stores, tuples (a sealed
    slab's pickle lane)."""
    rng = random.Random(draw(st.integers(0, 100_000)))
    n = draw(st.integers(3, 8))
    supersteps = draw(st.integers(2, 5))
    tuples = draw(st.booleans())
    graph = DiGraph()
    for v in range(n):
        graph.add_vertex(v)
    for _ in range(rng.randint(n, 2 * n)):
        graph.add_edge(rng.randrange(n), rng.randrange(n))
    store = ProvenanceStore()
    last_active = {}
    for s in range(supersteps):
        for v in range(n):
            if s == 0 or rng.random() < 0.7:
                store.add("superstep", (v, s))
                store.add("value", (v, float(rng.randint(0, 4)), s))
                if v in last_active:
                    store.add("evolution", (v, last_active[v], s))
                last_active[v] = s
        for v in range(n):
            if rng.random() < 0.6 and s + 1 < supersteps:
                target = rng.randrange(n)
                m = float(rng.randint(0, 3))
                if tuples:
                    m = (int(m), rng.randint(0, 1))
                store.add("send_message", (v, target, m, s))
                store.add("receive_message", (target, v, m, s + 1))
    return store, graph


@st.composite
def random_program(draw):
    """Compose 2-5 template rules with random constants."""
    rng = random.Random(draw(st.integers(0, 100_000)))
    pieces = []
    c1 = rng.randint(0, 4)
    c2 = rng.randint(0, 3)
    pieces.append(f"base(X, D, I) :- value(X, D, I), D >= {float(c1)}.")
    choices = draw(
        st.lists(
            st.sampled_from(
                ["filter", "join", "negation", "forward", "backward",
                 "aggregate", "arith", "remote", "evolve", "antiderived",
                 "within", "floats", "edges", "setup", "picklekey",
                 "aggregate-head", "static-relation", "pickle-key",
                 "stale", "touched"]
            ),
            min_size=1,
            max_size=5,
        )
    )
    for kind in choices:
        if kind == "filter" and "act(" not in "".join(pieces):
            pieces.append(f"act(X, I) :- superstep(X, I), I > {c2 % 3}.")
        elif kind == "join" and "joined(" not in "".join(pieces):
            pieces.append(
                "joined(X, D, I) :- base(X, D, I), superstep(X, I)."
            )
        elif kind == "negation" and "quiet(" not in "".join(pieces):
            pieces.append(
                "got(X, I) :- receive_message(X, Y, M, I)."
                "quiet(X, I) :- superstep(X, I), !got(X, I)."
            )
        elif kind == "forward" and "reach(" not in "".join(pieces):
            pieces.append(
                f"reach(X, I) :- superstep(X, I), I = 0, X = {rng.randint(0, 2)}."
                "reach(X, I) :- receive_message(X, Y, M, I), reach(Y, J), "
                "J < I."
            )
        elif kind == "backward" and "trace(" not in "".join(pieces):
            pieces.append(
                f"trace(X, I) :- superstep(X, I), I = {rng.randint(1, 3)}."
                "trace(X, I) :- send_message(X, Y, M, I), trace(Y, J), "
                "J = I + 1."
            )
        elif kind == "aggregate" and "cnt(" not in "".join(pieces):
            pieces.append("cnt(X, count(I)) :- base(X, D, I).")
        elif kind == "arith" and "shifted(" not in "".join(pieces):
            pieces.append(
                f"shifted(X, D + {c2}, I) :- base(X, D, I), "
                f"D < {float(c1 + 2)}."
            )
        elif kind == "remote" and "heard(" not in "".join(pieces):
            # a stored scan at a remote location bound by an earlier atom
            pieces.append(
                "heard(X, D, I) :- receive_message(X, Y, M, I), "
                "value(Y, D, J), J = I - 1."
            )
        elif kind == "evolve" and "prev(" not in "".join(pieces):
            # the time attribute bound from an earlier scan
            pieces.append("prev(X, D, I) :- evolution(X, J, I), value(X, D, J).")
        elif kind == "antiderived" and "calm(" not in "".join(pieces):
            # anti-join against a derived relation at a remote location
            pieces.append(
                "calm(X, I) :- receive_message(X, Y, M, I), "
                "!base(Y, M, J), J = I - 1."
            )
        elif kind == "within" and "lvl(" not in "".join(pieces):
            # recursion that closes inside one layer (same vertex and time)
            pieces.append(
                "lvl(X, N, I) :- superstep(X, I), N = 0."
                f"lvl(X, N, I) :- lvl(X, K, I), N = K + 1, N < {2 + c2}."
            )
        elif kind == "floats" and "spread(" not in "".join(pieces):
            # every float aggregate over what the neighbors sent, and over
            # their previous values (a join: witnesses, not rows)
            pieces.append(
                "spread(X, I, count(Y), sum(D), avg(D), min(D), max(D)) :- "
                "receive_message(X, Y, M, I), value(Y, D, J), J = I - 1."
                "level(X, sum(D), avg(D)) :- value(X, D, I).")
        elif kind == "edges" and "fan(" not in "".join(pieces):
            # edge / vertex read at the anchor, locally and one hop away
            pieces.append(
                "fan(X, Y, I) :- superstep(X, I), edge(X, Y), vertex(Y)."
                "hop2(X, Z, I) :- superstep(X, I), edge(X, Y), edge(Y, Z).")
        elif kind == "setup" and "hasin(" not in "".join(pieces):
            # static setup rules, one reading another's head, and a rule
            # reading a static head at the anchor (Query 4's shape)
            pieces.append(
                "hasin(X) :- edge(Y, X)."
                "hasout(X) :- edge(X, Y)."
                "sink(X) :- vertex(X), hasin(X), !hasout(X)."
                "hop(X, Z) :- edge(X, Y), hasout(Y), edge(Y, Z)."
                "orphan(X, I) :- superstep(X, I), !hasin(X).")
        elif kind == "picklekey" and "echoed(" not in "".join(pieces):
            # a join keyed on the payload column (a pickle lane when the
            # payloads are tuples)
            pieces.append(
                "echoed(X, Y, I) :- receive_message(X, Y, M, I), "
                "send_message(Y, X, M, J), J = I - 1.")
        # the three shapes that once had no layer program, verbatim
        elif kind == "aggregate-head" and "cnts(" not in "".join(pieces):
            pieces.append("cnts(X, count(I)) :- superstep(X, I).")
        elif kind == "static-relation" and "out(" not in "".join(pieces):
            pieces.append("out(X, Y, I) :- superstep(X, I), edge(X, Y).")
        elif kind == "pickle-key" and "same(" not in "".join(pieces):
            pieces.append(
                "same(X, Y, I) :- receive_message(X, Y, M, I), "
                "value(Y, M, J), J = I - 1.")
        elif kind == "stale" and "was(" not in "".join(pieces):
            # anchored on evolution's earlier superstep (online refuses it)
            pieces.append("was(X, J) :- evolution(X, J, I).")
        elif kind == "touched" and "near(" not in "".join(pieces):
            # a time-less head read remotely: shipped, and derived again
            # at every superstep its vertex runs
            pieces.append(
                "touched(X) :- superstep(X, I)."
                "near(X, Y, I) :- receive_message(X, Y, M, I), touched(Y).")
    return "".join(pieces)


def random_run(graph_seed):
    """A small random weighted graph and a factory for the analytic to
    run on it (SSSP or PageRank, drawn from the same seed)."""
    from repro.analytics.pagerank import PageRank
    from repro.analytics.sssp import SSSP
    from repro.graph.generators import with_random_weights
    from tests.graphs import random_graph

    rng = random.Random(graph_seed)
    n = rng.randint(4, 9)
    graph = with_random_weights(
        random_graph(n, rng.randint(n, 3 * n), seed=graph_seed),
        seed=graph_seed,
    )
    if rng.random() < 0.5:
        return graph, lambda: SSSP(source=0)
    return graph, lambda: PageRank(num_supersteps=4)


def _close(got, want):
    """Row lists equal, floats to within rounding: a float ``sum`` /
    ``avg`` over an analytic's values depends on the order it adds them
    in, which no evaluator shares with another."""
    assert len(got) == len(want)
    for row, other in zip(got, want):
        assert len(row) == len(other)
        for a, b in zip(row, other):
            if isinstance(a, float) and isinstance(b, float):
                assert math.isclose(a, b, rel_tol=1e-12), (row, other)
            else:
                assert a == b, (row, other)
    return True


def _seminaive(store, src, graph=None):
    return evaluate_seminaive(parse(src), store_to_facts(store, graph),
                              FunctionRegistry())


class TestDifferentialFuzz:
    @given(random_store(), random_program())
    @SLOW
    def test_evaluators_agree(self, capture, src):
        store, graph = capture
        program = parse(src)
        expected = run_reference(store, src, graph)
        actual = _seminaive(store, src, graph)
        for pred in {r.head.predicate for r in program.rules}:
            assert (
                sorted(actual.get(pred, set()), key=repr)
                == expected.rows(pred)
            ), f"{pred} differs for program:\n{src}"

    @given(random_store(), random_program())
    @SLOW
    def test_vectorized_agrees_over_sealed_columnar(self, capture, src):
        """Layer programs over a sealed ARSC store return the semi-naive
        interpreter's rows — random programs, aggregates, static rules
        and pickle-lane join keys included."""
        import shutil
        import tempfile

        from repro.errors import PQLCompatibilityError
        from repro.provenance.spill import SpillManager
        from repro.runtime.offline import (
            run_layered_from_spill,
            run_naive_from_spill,
        )

        store, graph = capture
        independent = _seminaive(store, src, graph)
        directory = tempfile.mkdtemp(prefix="vecfuzz-")
        try:
            writer = SpillManager(store, directory=directory)
            writer.seal_all()
            writer.write_manifest()
            spill = SpillManager.open(directory)
            runs = []
            try:
                runs.append(run_layered_from_spill(spill, src, graph))
            except PQLCompatibilityError:
                pass  # mixed-direction composition: layered refuses
            runs.append(run_naive_from_spill(spill, src, graph))
            for result in runs:
                assert result.stats["evaluator"] == "vectorized"
                for rel in result.stats["head_predicates"]:
                    assert result.rows(rel) == sorted(
                        independent.get(rel, set()), key=repr), (
                        f"{rel} differs ({result.mode}) for "
                        f"program:\n{src}"
                    )
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    @given(random_store(), random_program())
    @SLOW
    def test_layered_and_naive_agree_on_directed_programs(self, capture, src):
        from repro.errors import PQLCompatibilityError
        from repro.runtime.offline import run_layered, run_naive

        store, graph = capture
        expected = run_reference(store, src, graph)
        try:
            layered = run_layered(store, src, graph)
        except PQLCompatibilityError:
            return  # mixed-direction composition: layered correctly refuses
        naive = run_naive(store, src, graph)
        for rel in expected.relations():
            assert layered.rows(rel) == expected.rows(rel), rel
            assert naive.rows(rel) == expected.rows(rel), rel

    @given(st.integers(0, 100_000), random_program())
    @SLOW
    def test_online_agrees_with_reference_over_its_own_capture(
        self, graph_seed, src
    ):
        """Online mode (superstep programs, window pruning, delta
        shipping): the rows a query derives while the analytic runs equal
        the semi-naive oracle's over a full capture of the same run —
        random programs x random graphs."""
        from repro.core.queries import CAPTURE_FULL_QUERY
        from repro.errors import PQLCompatibilityError
        from repro.runtime.online import run_online

        graph, make = random_run(graph_seed)
        try:
            online = run_online(graph, make(), src)
        except PQLCompatibilityError:
            return  # backward / mixed compositions do not run online
        store = run_online(
            graph, make(), CAPTURE_FULL_QUERY, capture=True
        ).store
        expected = run_reference(store, src, graph)
        for rel in expected.relations():
            assert _close(online.query.rows(rel), expected.rows(rel)), (
                f"{rel} differs online for program:\n{src}"
            )

    @given(st.integers(0, 100_000), random_program())
    @SLOW
    def test_online_worker_counts_agree(self, graph_seed, src):
        """Online mode at 1, 3 and 7 simulated workers: the split changes
        only which messages count as cross-worker traffic, so every run
        must agree on every row, every derivation and how many tuples
        were shipped."""
        from repro.engine.config import EngineConfig
        from repro.errors import PQLCompatibilityError
        from repro.runtime.online import run_online

        graph, make = random_run(graph_seed)
        try:
            one = run_online(graph, make(), src,
                             config=EngineConfig(num_workers=1))
        except PQLCompatibilityError:
            return  # backward / mixed compositions do not run online
        assert one.analytic.metrics.total_cross_worker_messages == 0
        for workers in (3, 7):
            many = run_online(graph, make(), src,
                              config=EngineConfig(num_workers=workers))
            assert many.values == one.values
            assert many.query.as_dict() == one.query.as_dict(), (
                f"rows differ at {workers} workers for program:\n{src}"
            )
            assert many.query.derivations == one.query.derivations, src
            for key in ("shipped_tuples", "pruned_rows", "transient_rows"):
                assert (many.query.stats[key]
                        == one.query.stats[key]), (key, workers, src)


#: The rule shapes that once ran a per-site row function instead of a
#: layer program, by the reason that was counted for them.
FORMER_FALLBACKS = {
    "aggregate-head": "cnt(X, count(I), sum(I), avg(I)) :- superstep(X, I).",
    "static-relation": "out(X, Y, I) :- superstep(X, I), edge(X, Y).",
    # a join keyed on a pickle-lane column: tuple values and payloads
    "pickle-key": "same(X, Y, I) :- receive_message(X, Y, M, I), "
                  "value(Y, M, J), J = I - 1.",
    "unlocated-scan": "hasin(X) :- edge(Y, X). hop(X, Z) :- edge(X, Y), "
                      "hasin(Y), edge(Y, Z).",
}


@pytest.mark.parametrize("shape", sorted(FORMER_FALLBACKS))
def test_former_fallback_shapes_agree(shape, tmp_path):
    """Each shape runs as layer programs in every offline driver, over
    the in-memory and the sealed store, and returns the semi-naive
    interpreter's rows."""
    from repro.provenance.spill import SpillManager
    from repro.runtime.offline import (
        run_layered,
        run_layered_from_spill,
        run_naive,
        run_naive_from_spill,
    )

    store = ProvenanceStore()
    graph = DiGraph()
    for v in range(6):
        graph.add_edge(v, (v + 1) % 6)
        graph.add_edge(v, (v + 3) % 6)
    for s in range(3):
        for v in range(6):
            store.add("superstep", (v, s))
            store.add("value", (v, (v % 2, s), s))
            for target in ((v + 1) % 6, (v + 3) % 6):
                if s < 2:
                    store.add("send_message", (v, target, (v % 2, s), s))
                    store.add("receive_message",
                              (target, v, (v % 2, s), s + 1))
    writer = SpillManager(store, directory=str(tmp_path))
    writer.seal_all()
    spill = SpillManager.open(str(tmp_path))
    src = FORMER_FALLBACKS[shape]
    expected = _seminaive(store, src, graph)
    heads = {rule.head.predicate for rule in parse(src).rules}
    assert any(expected.get(head) for head in heads)
    for driver, source in ((run_layered, store), (run_naive, store),
                           (run_layered_from_spill, spill),
                           (run_naive_from_spill, spill)):
        result = driver(source, src, graph)
        assert result.stats["rules_vectorized"] > 0
        for head in heads:
            assert result.rows(head) == sorted(
                expected.get(head, set()), key=repr), (driver.__name__, head)
