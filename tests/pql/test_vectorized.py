"""Layer programs over both stores (sealed ARSC slabs and the in-memory
store's list batches): differential identity, every rule shape running as
a program, version-1 footer compatibility, dictionary caching, and budget
interaction.

The contract under test: a layer program is the evaluator, and for every
query it must produce the results of the row-at-a-time oracle
(``run_reference``, the semi-naive interpreter) byte for byte, it runs
once per (rule, layer) whatever the number of vertices, and it must honor
``QueryBudget`` and memory bounds from *inside* a layer, not merely
between layers.
"""

import os
import pickle
import traceback
import zlib

import pytest

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.core import queries as Q
from repro.errors import BudgetExceededError
from repro.graph.generators import web_graph, with_random_weights
from repro.obs import ledger as obsledger
from repro.obs.sinks import InMemorySink
from repro.obs.trace import Tracer, thread_tracing
from repro.pql import budget as budget_mod
from repro.pql import vectorized as vec_mod
from repro.pql.analysis import compile_query
from repro.pql.budget import QueryBudget
from repro.pql.explain import explain
from repro.pql.parser import parse
from repro.provenance import columnar
from repro.provenance.spill import SpillManager, open_store_view
from repro.provenance.store import ProvenanceStore
from repro.runtime.offline import (
    run_layered,
    run_layered_from_spill,
    run_naive,
    run_naive_from_spill,
    run_reference,
)
from repro.runtime.online import run_online

DRIVERS = (run_layered_from_spill, run_naive_from_spill, run_layered,
           run_naive)


def _drive(driver, spill, store, *args, **kwargs):
    """``driver`` over the sealed store (``*_from_spill``) or the
    in-memory one it was sealed from."""
    source = spill if driver.__name__.endswith("_from_spill") else store
    return driver(source, *args, **kwargs)


@pytest.fixture(scope="module")
def wgraph():
    return with_random_weights(
        web_graph(120, avg_degree=5, target_diameter=8, seed=41), seed=41
    )


@pytest.fixture(scope="module")
def full_store(wgraph):
    return run_online(
        wgraph, SSSP(source=0), Q.CAPTURE_FULL_QUERY, capture=True
    ).store


def _seal(store, directory):
    spill = SpillManager(store, directory=directory)
    spill.seal_all()
    return spill


@pytest.fixture(scope="module")
def sealed_dir(full_store, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("vec"))
    _seal(full_store, directory)
    return directory


@pytest.fixture(scope="module")
def lineage_params(full_store):
    sigma = full_store.max_superstep
    alpha = next(x for x, i in full_store.rows("superstep") if i == sigma)
    return {"alpha": alpha, "sigma": sigma}


def query_cases(lineage_params):
    return {
        "query1": dict(params={"eps": 0.1}, udfs=Q.apt_udfs(SSSP(source=0))),
        "query3": dict(params={"source": 0}),
        "query4": dict(),
        "query5": dict(),
        "query6": dict(),
        "query7": dict(),
        "query8": dict(params={"eps": 0.01}),
        "query9": dict(params={"alpha": 0,
                               "sigma": lineage_params["sigma"]}),
        "query10": dict(params=lineage_params),
    }


# ---------------------------------------------------------------------------
# differential matrix: layer programs == the row-at-a-time oracle
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("qname", [
    "query3", "query5", "query8", "query9", "query10",
])
def test_vectorized_matches_row_paths(qname, sealed_dir, full_store,
                                      wgraph, lineage_params):
    """One digest across {layered, naive} x {sealed, in-memory}, and the
    semi-naive oracle's rows."""
    case = query_cases(lineage_params)[qname]
    query = Q.NAMED_QUERIES[qname]
    args = (query, wgraph, case.get("params"), case.get("udfs"))
    reference = run_reference(full_store, *args)
    spill = SpillManager.open(sealed_dir)
    digests = set()
    for driver in DRIVERS:
        result = _drive(driver, spill, full_store, *args)
        assert result.stats["rules_vectorized"] > 0
        for relation in reference.relations():
            assert result.rows(relation) == reference.rows(relation), (
                f"{qname} {driver.__name__} {relation}"
            )
        digests.add(obsledger.digest_query_result(result))
    assert len(digests) == 1, (
        f"{qname}: results must be byte-identical across drivers and stores"
    )


def test_evaluator_stats_reported(sealed_dir, full_store, wgraph,
                                  lineage_params):
    """Result stats name the evaluator and its kernel work, over either
    store."""
    query = Q.NAMED_QUERIES["query9"]
    params = {"alpha": 0, "sigma": lineage_params["sigma"]}

    spill = SpillManager.open(sealed_dir)
    for driver in DRIVERS:
        vec = _drive(driver, spill, full_store, query, wgraph, params)
        assert vec.stats["evaluator"] == "vectorized", driver.__name__
        assert "vectorize" not in vec.stats
        assert vec.stats["batched_scans"] > 0
        assert vec.stats["rules_vectorized"] > 0
        assert vec.stats["batch_rows"] > 0
        assert vec.stats["kernel_seconds"]  # at least one kernel timed
        assert not any("fallback" in key for key in vec.stats)


@pytest.fixture(scope="module")
def custom_store(wgraph):
    return run_online(
        wgraph, SSSP(source=0), Q.CAPTURE_BACKWARD_CUSTOM_QUERY, capture=True
    ).store


@pytest.mark.parametrize("driver", [run_layered, run_naive])
def test_in_memory_store_runs_layer_programs(driver, full_store, custom_store,
                                             wgraph, lineage_params):
    """Queries 1-12 over an unsealed capture: every rule a layer program,
    Query 8's aggregate heads included."""
    cases = [(qname, full_store, case)
             for qname, case in query_cases(lineage_params).items()]
    cases.append(("query12", custom_store, dict(params=lineage_params)))
    for qname, store, case in cases:
        result = driver(store, Q.NAMED_QUERIES[qname], wgraph,
                        case.get("params"), case.get("udfs"))
        assert result.stats["evaluator"] == "vectorized", qname
        assert result.stats["rules_vectorized"] > 0, qname


def test_list_batches_equal_slab_batches(sealed_dir, full_store):
    """The in-memory store's batches are its sealed twin's slab batches,
    for one layer and for every layer (``supersteps=None``): same row
    count, group table and column values, each vertex's rows in the same
    order — a slab is its layer's buckets as inserted."""
    def rows_by_group(batch):
        rows = list(zip(*[batch.values(pos) for pos in range(batch.arity)]))
        return {vertex: rows[start:start + count]
                for vertex, (start, count) in batch.groups().items()}

    view = open_store_view(SpillManager.open(sealed_dir))
    try:
        for relation in full_store.relations():
            schema = full_store.registry.get(relation)
            selections = [None]
            if schema.time_index is not None:
                selections += [[t] for t in range(full_store.num_layers)]
            for supersteps in selections:
                listed = full_store.column_batches(relation, supersteps)
                slabs = view.column_batches(relation, supersteps)
                assert len(listed) == len(slabs), (relation, supersteps)
                for mine, theirs in zip(listed, slabs):
                    assert mine.count == theirs.count
                    assert mine.arity == theirs.arity
                    assert mine.groups() == theirs.groups()
                    assert rows_by_group(mine) == rows_by_group(theirs), (
                        relation, supersteps)
    finally:
        view.close()


def test_store_layers_are_their_own_batches():
    """An in-memory store's layer is its column batch: every scan reads
    the same object and column list, and ``add`` / ``add_batch`` show in it
    at once, so a batch never lags the store."""
    store = _small_store()
    (batch,) = store.column_batches("value", [1])
    assert store.column_batches("value", [1]) == [batch]
    assert batch.values(1) is batch.values(1)
    count = batch.count
    store.add("value", (0, 9.0, 1))
    (grown,) = store.column_batches("value", [1])
    assert grown is batch and grown.count == count + 1
    store.add_batch("value", [(1, 8.0, 1)])
    assert batch.count == count + 2
    rows = list(zip(*[batch.values(p) for p in range(3)]))
    assert (0, 9.0, 1) in rows and (1, 8.0, 1) in rows
    for vertex, (start, n) in batch.groups().items():
        assert {row[0] for row in rows[start:start + n]} == {vertex}


def test_aggregate_heads_run_as_layer_programs(sealed_dir, full_store,
                                               wgraph):
    """An aggregate head is a grouped reduce over its program's solutions:
    the oracle's rows, and the kernel is timed."""
    src = ("cnt(X, count(I)) :- superstep(X, I)."
           "avg(X, I, avg(D), sum(D), min(D), max(D)) :- value(X, D, I).")
    spill = SpillManager.open(sealed_dir)
    expected = run_reference(full_store, src, wgraph)
    for driver in (run_naive_from_spill, run_layered_from_spill):
        result = driver(spill, src, wgraph)
        for relation in ("cnt", "avg"):
            assert result.rows(relation) == expected.rows(relation)
            assert result.rows(relation)
        assert "aggregate" in result.stats["kernel_seconds"]


def test_string_equality_pushdown(tmp_path, wgraph):
    """Dict-code selection on string columns: same rows as the oracle and
    as a plain comparison over the in-memory store's list batch."""
    store = ProvenanceStore()
    for s in range(3):
        for v in range(8):
            store.add("superstep", (v, s))
            store.add("value", (v, f"tag-{v % 3}", s))
    directory = str(tmp_path / "strstore")
    _seal(store, directory)
    src = 'out(X, D, I) :- value(X, D, I), D = "tag-1".'
    spill = SpillManager.open(directory)
    vec = run_layered_from_spill(spill, src, wgraph)
    listed = run_layered(store, src, wgraph)
    reference = run_reference(store, src, wgraph)
    assert vec.rows("out") == reference.rows("out") == listed.rows("out")
    assert len(vec.rows("out")) == 3 * 3  # 3 vertices x 3 supersteps
    assert vec.stats["evaluator"] == listed.stats["evaluator"] == "vectorized"


def test_explain_names_each_rules_evaluator(lineage_params):
    """EXPLAIN says, per rule, which program every driver runs it as —
    aggregate heads, static relations and setup rules included."""
    program = parse(Q.NAMED_QUERIES["query9"]).bind(
        alpha=0, sigma=lineage_params["sigma"])
    report = explain(compile_query(program))
    assert report.count("[layer program]") == 3
    assert "row function" not in report

    report = explain(compile_query(parse(Q.NAMED_QUERIES["query8"]).bind(eps=1)))
    assert report.count("[layer program]") == 7
    report = explain(compile_query(parse(
        "out(X, Y, I) :- superstep(X, I), edge(X, Y).")), verbose=True)
    assert "anchored plan (prebound: I, X) [layer program]" in report
    assert "selection edge (graph batch; location spans" in report
    report = explain(compile_query(parse(Q.PAGERANK_CHECK_QUERY)))
    assert "setup plan (prebound: none) [layer program]" in report


# ---------------------------------------------------------------------------
# version-1 slabs (no distinct counts in the footer) stay readable
# ---------------------------------------------------------------------------
def _downgrade_slab_to_v1(path):
    """Rewrite an ARSC v2 slab as a faithful v1 slab: version byte 1 and
    no per-column ``distinct`` footer stats."""
    with open(path, "rb") as fh:
        data = fh.read()
    trailer_off = len(data) - columnar._TRAILER.size
    footer_off, footer_len, magic = columnar._TRAILER.unpack_from(
        data, trailer_off)
    assert magic == columnar.ARSC_MAGIC
    footer = pickle.loads(
        zlib.decompress(data[footer_off:footer_off + footer_len]))
    assert footer["version"] == columnar.ARSC_VERSION
    footer["version"] = 1
    for desc in footer["relations"].values():
        for col in desc["columns"]:
            col.pop("distinct", None)
    payload = zlib.compress(
        pickle.dumps(footer, protocol=pickle.HIGHEST_PROTOCOL))
    header = columnar._HEADER.pack(columnar.ARSC_MAGIC, 1, 0, 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data[columnar._HEADER.size:footer_off])
        fh.write(payload)
        fh.write(columnar._TRAILER.pack(footer_off, len(payload),
                                        columnar.ARSC_MAGIC))


class TestV1FooterCompat:
    @pytest.fixture()
    def v1_dir(self, full_store, tmp_path):
        directory = str(tmp_path / "v1store")
        _seal(full_store, directory)
        for name in os.listdir(directory):
            if name.endswith(".slab"):
                _downgrade_slab_to_v1(os.path.join(directory, name))
        return directory

    def test_v1_slabs_read_with_footer_row_counts(self, v1_dir, full_store):
        view = open_store_view(SpillManager.open(v1_dir))
        try:
            assert view.counts() == full_store.counts()
        finally:
            view.close()

    def test_v1_queries_match_v2(self, v1_dir, sealed_dir, wgraph,
                                 lineage_params):
        query = Q.NAMED_QUERIES["query10"]
        v2 = run_layered_from_spill(
            SpillManager.open(sealed_dir), query, wgraph,
            lineage_params)
        v1 = run_layered_from_spill(
            SpillManager.open(v1_dir), query, wgraph, lineage_params)
        assert (obsledger.digest_query_result(v1)
                == obsledger.digest_query_result(v2))
        # The vector path needs batches, not stats — it still engages.
        assert v1.stats["evaluator"] == "vectorized"
        assert v1.stats["batched_scans"] > 0


# ---------------------------------------------------------------------------
# the read session: a held manager decodes a dictionary once
# ---------------------------------------------------------------------------
class TestReadSession:
    def test_second_query_decodes_no_dictionary(self, tmp_path, wgraph):
        """The manager's session keeps its handles' decoded dictionaries
        across queries, so the second query decodes none; it is still
        charged what it reads, so its stats equal the first's."""
        store = ProvenanceStore()
        for s in range(2):
            for v in range(6):
                store.add("superstep", (v, s))
                store.add("value", (v, f"tag-{v % 3}", s))
        directory = str(tmp_path / "session")
        _seal(store, directory)
        spill = SpillManager.open(directory)
        # The head carries D unbound, so late materialization must decode
        # the string dictionary (a constant-bound D would never touch it).
        src = "out(X, D, I) :- value(X, D, I)."
        first = run_layered_from_spill(spill, src, wgraph)
        slabs = dict(spill._open_slabs)
        dictionaries = {key: dict(slab._str_dicts)
                        for key, slab in slabs.items()}
        assert any(dictionaries.values()), \
            "head materialization must decode the dictionary"
        sink = InMemorySink()
        with thread_tracing(Tracer(sink)):
            second = run_layered_from_spill(spill, src, wgraph)
        assert [e for e in sink.events
                if e.get("name") in ("slab-decode", "store-open")] == []
        assert spill._open_slabs == slabs
        for key, slab in slabs.items():  # the same decoded lists
            assert all(slab._str_dicts[k] is strings
                       for k, strings in dictionaries[key].items())
        assert (obsledger.digest_query_result(first)
                == obsledger.digest_query_result(second))
        for key in ("decoded_bytes", "peak_slab_bytes"):
            assert second.stats[key] == first.stats[key] > 0
        spill.release_slabs()


# ---------------------------------------------------------------------------
# budget interaction: bounds fire inside batch kernels
# ---------------------------------------------------------------------------
class _CountingBudget(QueryBudget):
    __slots__ = ("kernel_ticks",)

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.kernel_ticks = 0

    def tick(self):
        self.kernel_ticks += 1
        super().tick()


class TestBudgetInteraction:
    def _run(self, sealed_dir, wgraph, lineage_params, budget):
        spill = SpillManager.open(sealed_dir)
        view = open_store_view(spill)
        try:
            return run_layered(
                view, Q.NAMED_QUERIES["query10"], wgraph, lineage_params,
                budget=budget)
        finally:
            view.close()

    def test_kernels_tick_the_budget(self, sealed_dir, wgraph,
                                     lineage_params, monkeypatch):
        monkeypatch.setattr(vec_mod, "VECTOR_TICK_STRIDE", 1)
        budget = _CountingBudget()
        result = self._run(sealed_dir, wgraph, lineage_params, budget)
        assert result.stats["evaluator"] == "vectorized"
        assert budget.kernel_ticks > result.stats["batched_scans"] > 0

    def test_cancellation_fires_mid_evaluation(self, sealed_dir, wgraph,
                                               lineage_params):
        budget = QueryBudget()
        budget.cancel()
        with pytest.raises(BudgetExceededError, match="cancelled"):
            self._run(sealed_dir, wgraph, lineage_params, budget)

    def test_timeout_fires_inside_batches(self, sealed_dir, wgraph,
                                          lineage_params, monkeypatch):
        # Stride-1 ticks in both the kernels and the budget so the tiny
        # deadline is observed on the very first batch row.
        monkeypatch.setattr(vec_mod, "VECTOR_TICK_STRIDE", 1)
        monkeypatch.setattr(budget_mod, "TICK_STRIDE", 1)
        budget = QueryBudget(timeout_seconds=1e-9)
        with pytest.raises(BudgetExceededError, match="deadline"):
            self._run(sealed_dir, wgraph, lineage_params, budget)

    def test_row_budget_bounds_vectorized_derivations(self, sealed_dir,
                                                      wgraph,
                                                      lineage_params):
        with pytest.raises(BudgetExceededError, match="rows"):
            self._run(sealed_dir, wgraph, lineage_params,
                      QueryBudget(max_rows=1))

    def test_depth_budget_still_enforced(self, sealed_dir, wgraph,
                                         lineage_params):
        with pytest.raises(BudgetExceededError, match="layer"):
            self._run(sealed_dir, wgraph, lineage_params,
                      QueryBudget(max_depth=1))


# ---------------------------------------------------------------------------
# layer programs: shapes, invocation counts, memoization
# ---------------------------------------------------------------------------
def _small_store(layers=3, vertices=6, payload=lambda v, s: float(v % 3)):
    """A hand-built capture: every vertex active in every layer, each
    sending its payload to the next two vertices."""
    store = ProvenanceStore()
    for s in range(layers):
        for v in range(vertices):
            store.add("superstep", (v, s))
            store.add("value", (v, payload(v, s), s))
            if s:
                store.add("evolution", (v, s - 1, s))
            for hop in (1, 2):
                if s + 1 < layers:
                    target = (v + hop) % vertices
                    store.add("send_message", (v, target, payload(v, s), s))
                    store.add("receive_message",
                              (target, v, payload(v, s), s + 1))
    return store


def _sealed(store, tmp_path, name="store"):
    directory = str(tmp_path / name)
    _seal(store, directory)
    return SpillManager.open(directory)


SHAPES = {
    # a stored scan at a remote location bound by an earlier atom
    "remote": "heard(X, D, I) :- receive_message(X, Y, M, I), "
              "value(Y, D, J), J = I - 1.",
    # the time attribute bound from an earlier scan (columnar time)
    "evolve": "prev(X, D, I) :- evolution(X, J, I), value(X, D, J).",
    # anti-join against a derived relation at a remote location
    "antiderived": "big(X, D, I) :- value(X, D, I), D >= 1.0."
                   "calm(X, I) :- receive_message(X, Y, M, I), "
                   "!big(Y, M, J), J = I - 1.",
    # a head predicate that also has stored rows: store rows, then the
    # overlay's, per input row
    "storedhead": "superstep(X, I) :- value(X, D, I)."
                  "seen(X, I) :- superstep(X, I).",
    # ... deriving only some of the stored rows: the result is what the
    # rule derives, not the stored relation
    "storedsubset": "superstep(X, I) :- value(X, D, I), D >= 1.0.",
    # recursion that closes inside one layer, derived scan with a bind
    "within": "lvl(X, N, I) :- superstep(X, I), N = 0."
              "lvl(X, N, I) :- lvl(X, K, I), N = K + 1, N < 3.",
    # repeated variable inside one atom, wildcard, exists + post-filter
    "local": "echo(X, Y, I) :- receive_message(X, Y, _, I), "
             "value(X, D, I), value(X, D2, J), evolution(X, J, I), D2 <= D.",
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_plan_shapes_run_as_layer_programs(shape, tmp_path):
    store = _small_store()
    spill = _sealed(store, tmp_path)
    src = SHAPES[shape]
    reference = run_reference(store, src)
    assert any(reference.rows(rel) for rel in reference.relations())
    derivations = set()
    for driver in DRIVERS:
        vec = _drive(driver, spill, store, src)
        assert vec.stats["evaluator"] == "vectorized"
        assert vec.stats["rules_vectorized"] > 0
        for rel in reference.relations():
            assert vec.rows(rel) == reference.rows(rel), rel
        derivations.add(vec.derivations)
    assert len(derivations) == 1


def test_filtered_exists_scan_runs_once_per_distinct_input(tmp_path):
    """An exists scan with an absorbed filter (Query 3's
    ``fwd_lineage(Y, W, J), J < I``) is decided once per distinct value of
    what it reads: when every receiver hears from one sender, the filter
    runs over that sender's rows once per layer, however many receivers
    ask (per input it ran receivers x rows times)."""
    receivers, layers = 20, 3
    store = ProvenanceStore()
    for s in range(layers):
        for v in range(receivers + 1):
            store.add("superstep", (v, s))
        for v in range(1, receivers + 1):
            if s:
                store.add("receive_message", (v, 0, 1.0, s))
    src = ("reach(X, I) :- superstep(X, I), X = 0."
           "heard(X, I) :- receive_message(X, Y, M, I), reach(Y, J), "
           "before(J, I).")
    spill = _sealed(store, tmp_path)
    calls = {"programs": 0, "rows": 0}

    def before(j, i, evaluator="rows"):
        calls[evaluator] += 1
        return j < i

    # the row-at-a-time oracle decides the filter once per input
    reference = run_reference(store, src, udfs={"before": before})
    assert len(reference.rows("heard")) == receivers * (layers - 1)
    assert calls["rows"] >= receivers * (layers - 1)
    for driver in DRIVERS:
        calls["programs"] = 0
        result = _drive(driver, spill, store, src, None, None, {
            "before": lambda j, i: before(j, i, "programs")})
        assert result.rows("heard") == reference.rows("heard")
        assert 0 < calls["programs"] <= layers * layers, (
            driver.__name__, calls)


def test_query10_runs_once_per_rule_and_layer_whatever_the_size(tmp_path):
    """The invocation-count regression: program runs scale with rules x
    layers, never with vertices (the per-site evaluator this replaces made
    rules x layers x sites x fixpoint rounds of them)."""
    counts = {}
    for vertices in (40, 160):
        graph = web_graph(vertices, avg_degree=4, target_diameter=5, seed=7)
        store = run_online(graph, PageRank(num_supersteps=5),
                           Q.CAPTURE_FULL_QUERY, capture=True).store
        spill = _sealed(store, tmp_path, f"pr{vertices}")
        params = {"alpha": 0, "sigma": store.max_superstep}
        result = run_layered_from_spill(
            spill, Q.NAMED_QUERIES["query10"], graph, params)
        assert len(result.rows("back_trace")) > 1
        counts[vertices] = (store.num_layers,
                            result.stats["rules_vectorized"])
    assert counts[40] == counts[160]
    layers, runs = counts[160]
    assert runs == 3 * layers  # rules x layers: no confirming round either


def test_columnar_time_builds_only_the_probed_vertices(
        sealed_dir, full_store, wgraph):
    """Query 5's ``value(=X, bind D1, =J)`` (``J`` bound by ``evolution``)
    is a hash join per ``J`` slab, built over the probed vertices' group
    ranges only: it builds no more rows than it probes, where a
    whole-layer build took every vertex of each ``J`` layer asked for."""
    spill = SpillManager.open(sealed_dir)
    query = Q.SSSP_WCC_UPDATE_CHECK_QUERY
    vec = run_layered_from_spill(spill, query, wgraph)
    row = run_reference(full_store, query, wgraph)
    for rel in row.relations():
        assert vec.rows(rel) == row.rows(rel), rel
    assert vec.rows("updated")
    # two rules scan value at J, each once per layer I, over the sites
    # holding value and evolution at I
    per_layer = {}
    for _x, _d, t in full_store.rows("value"):
        per_layer[t] = per_layer.get(t, 0) + 1
    sites = {(x, i) for x, _d, i in full_store.rows("value")}
    asked = {(i, j) for x, j, i in full_store.rows("evolution")
             if (x, i) in sites}
    whole_layers = 2 * sum(per_layer.get(j, 0) for _i, j in asked)
    probes = 2 * sum(1 for x, _j, i in full_store.rows("evolution")
                     if (x, i) in sites)
    assert 0 < vec.stats["build_rows"] <= probes < whole_layers


def test_layer_programs_are_memoized_on_the_rule(sealed_dir, wgraph,
                                                 lineage_params, monkeypatch):
    """A compiled query reused across runs (the serve plan cache) builds
    its programs once; pickling a rule drops them."""
    built = []
    original = vec_mod.LayerProgram.__init__

    def counting(self, crule, plan):
        built.append(crule.index)
        original(self, crule, plan)

    monkeypatch.setattr(vec_mod.LayerProgram, "__init__", counting)
    spill = SpillManager.open(sealed_dir)
    view = open_store_view(spill)
    try:
        program = parse(Q.NAMED_QUERIES["query10"]).bind(**lineage_params)
        compiled = compile_query(program, registry=view.registry)
        first = run_layered(view, compiled, wgraph)
        assert sorted(built) == [0, 1, 2]
        second = run_layered(view, compiled, wgraph)
        assert sorted(built) == [0, 1, 2]  # nothing rebuilt
        assert (obsledger.digest_query_result(first)
                == obsledger.digest_query_result(second))
        crule = compiled.rules[0]
        assert crule.layer_programs
        assert pickle.loads(pickle.dumps(crule)).layer_programs == {}
    finally:
        view.close()


# ---------------------------------------------------------------------------
# budgets keep firing inside one layer (one layer, many rows)
# ---------------------------------------------------------------------------
def _one_layer_store(vertices=300, fanout=12):
    store = ProvenanceStore()
    for v in range(vertices):
        store.add("superstep", (v, 0))
        store.add("value", (v, float(v), 0))
        for hop in range(1, fanout + 1):
            store.add("receive_message",
                      (v, (v + hop) % vertices, float(hop), 0))
    return store


ONE_LAYER_QUERY = (
    "got(X, Y, I) :- receive_message(X, Y, M, I), value(X, D, I), M < D.")


def _raised_inside_a_program(excinfo):
    frames = traceback.extract_tb(excinfo.value.__traceback__)
    return any(f.filename.endswith("vectorized.py") for f in frames)


class _CancelOnTick(QueryBudget):
    """Revokes itself on its ``n``-th tick — i.e. from inside whichever
    kernel loop is running then, like a client disconnecting mid-query."""
    __slots__ = ("countdown",)

    def __init__(self, countdown, **kwargs):
        super().__init__(**kwargs)
        self.countdown = countdown

    def tick(self):
        self.countdown -= 1
        if self.countdown == 0:
            self.cancel()
        super().tick()


class _DeadlineOnTick(_CancelOnTick):
    """Arms an already-expired deadline on its ``n``-th tick (a 0-second
    timeout that starts once the layer program is running; armed up front
    it would fire at the layer boundary, before any kernel)."""
    __slots__ = ()

    def cancel(self):
        self._deadline = 0.0


class TestBudgetsInsideOneLayer:
    @pytest.fixture(scope="class")
    def spill(self, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("onelayer"))
        _seal(_one_layer_store(), directory)
        return SpillManager.open(directory)

    def _run(self, spill, budget=None, memory_budget_bytes=None):
        view = open_store_view(spill)
        try:
            with view.charged(memory_budget_bytes):
                return run_layered(view, ONE_LAYER_QUERY, budget=budget)
        finally:
            view.close()

    def test_the_store_is_one_layer_of_many_rows(self, spill):
        result = self._run(spill)
        assert result.supersteps == 1
        assert result.stats["rules_vectorized"] == 1
        assert result.stats["batch_rows"] > 3000

    def test_cancellation_mid_program(self, spill):
        budget = _CancelOnTick(3)
        with pytest.raises(BudgetExceededError, match="cancelled") as err:
            self._run(spill, budget)
        assert budget.layers == 1 and _raised_inside_a_program(err)

    def test_timeout_mid_program(self, spill, monkeypatch):
        monkeypatch.setattr(budget_mod, "TICK_STRIDE", 1)
        budget = _DeadlineOnTick(3, timeout_seconds=60)
        with pytest.raises(BudgetExceededError, match="deadline") as err:
            self._run(spill, budget)
        assert budget.layers == 1 and _raised_inside_a_program(err)

    def test_max_rows_overrun_within_the_layer(self, spill):
        budget = QueryBudget(max_rows=100)
        with pytest.raises(BudgetExceededError, match="rows"):
            self._run(spill, budget)
        assert budget.layers == 1 and budget.rows > 100

    def test_memory_budget_raises_mid_layer(self, spill):
        # enough for the layer's group keys (site discovery), not for the
        # columns the program then decodes
        view = open_store_view(spill)
        with view.charged() as charge:
            view.layer_sites(0)
        keys_only = charge.peak_slab_bytes
        view.close()
        with pytest.raises(MemoryError, match="memory budget") as err:
            self._run(spill, memory_budget_bytes=keys_only + 64)
        assert _raised_inside_a_program(err)


def test_whole_layer_batches_decode_no_more_than_partition_slices(
        sealed_dir, wgraph, lineage_params):
    """``peak_slab_bytes`` / ``decoded_bytes`` for Queries 9 and 10 are the
    per-partition evaluator's (recorded at its last commit, f24e5f9, over
    this fixture): a whole-layer batch decodes the same column segments the
    partition slices did, and the location joins through group keys."""
    spill = SpillManager.open(sealed_dir)
    pinned = {
        "query9": ({"alpha": 0, "sigma": lineage_params["sigma"]},
                   3710, 24860),
        "query10": (lineage_params, 3636, 25788),
    }
    for name, (params, peak, decoded) in pinned.items():
        result = run_layered_from_spill(
            spill, Q.NAMED_QUERIES[name], wgraph, params)
        assert result.stats["peak_slab_bytes"] <= peak, name
        assert result.stats["decoded_bytes"] <= decoded, name
