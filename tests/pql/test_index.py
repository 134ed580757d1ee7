"""Unit tests for hash-index join acceleration (repro.pql.index) and its
storage integrations: candidate narrowing, incremental maintenance, the
small-partition threshold, invalidation on pruning, the shared empty-slice
pin, the readonly store->facts views, and the use_index switches."""

import pytest

from repro.analytics.pagerank import PageRank
from repro.core import queries as Q
from repro.engine.config import EngineConfig
from repro.graph.generators import web_graph
from repro.pql.analysis import compile_query
from repro.pql.eval import TupleStore
from repro.pql.explain import explain
from repro.pql.index import EMPTY_ROWS, MIN_INDEX_ROWS, FactsIndex, RowIndex
from repro.pql.parser import parse
from repro.pql.plan import ScanStep
from repro.pql.seminaive import evaluate_seminaive, store_to_facts
from repro.provenance.store import _EMPTY_ROWS, ProvenanceStore
from repro.runtime.offline import run_layered, run_reference
from repro.runtime.online import run_online

DEPTH = MIN_INDEX_ROWS * 2  # comfortably above the indexing threshold


class TestRowIndex:
    def test_probe_narrows_to_bucket(self):
        log = [(i, i % 3, "x") for i in range(12)]
        idx = RowIndex()
        assert sorted(idx.probe(log, (1,), (2,))) == sorted(
            row for row in log if row[1] == 2
        )

    def test_miss_returns_shared_empty(self):
        idx = RowIndex()
        assert idx.probe([(0, 1)], (1,), (99,)) is EMPTY_ROWS

    def test_incremental_fold_sees_appended_rows(self):
        log = [(0, "a"), (1, "b")]
        idx = RowIndex()
        assert list(idx.probe(log, (1,), ("a",))) == [(0, "a")]
        log.append((2, "a"))
        assert sorted(idx.probe(log, (1,), ("a",))) == [(0, "a"), (2, "a")]

    def test_rows_too_short_for_pattern_skipped(self):
        log = [(0,), (1, "a"), (2, "a", True)]
        idx = RowIndex()
        # arity-1 rows can never match an arity>=2 scan; they are skipped,
        # not an error
        assert sorted(idx.probe(log, (1,), ("a",))) == [
            (1, "a"), (2, "a", True),
        ]

    def test_patterns_are_independent(self):
        log = [(0, "a", 1), (1, "a", 2), (2, "b", 1)]
        idx = RowIndex()
        by_name = idx.probe(log, (1,), ("a",))
        by_time = idx.probe(log, (2,), (1,))
        assert sorted(by_name) == [(0, "a", 1), (1, "a", 2)]
        assert sorted(by_time) == [(0, "a", 1), (2, "b", 1)]


class TestFactsIndex:
    def test_below_threshold_declines(self):
        idx = FactsIndex()
        rows = {(i, "a") for i in range(MIN_INDEX_ROWS - 1)}
        assert idx.probe("r", rows, (1,), ("a",)) is None
        assert "r" not in idx.logs  # no snapshot taken

    def test_snapshot_and_extend(self):
        idx = FactsIndex()
        rows = {(i, i % 2) for i in range(DEPTH)}
        idx.extend("r", [(99, 0)])  # no-op before the first snapshot
        hit = idx.probe("r", rows, (1,), (0,))
        assert set(hit) == {row for row in rows if row[1] == 0}
        idx.extend("r", [(100, 0), (101, 1)])
        assert (100, 0) in set(idx.probe("r", rows, (1,), (0,)))
        assert (100, 0) not in set(idx.probe("r", rows, (1,), (1,)))


class TestTupleStorePartitions:
    def _filled(self, n=DEPTH):
        ts = TupleStore()
        for i in range(n):
            ts.add("r", "v", (i, i % 4))
        return ts

    def test_small_partition_declines(self):
        ts = self._filled(MIN_INDEX_ROWS - 1)
        assert ts.probe("r", "v", (1,), (0,)) is None

    def test_large_partition_narrows(self):
        ts = self._filled()
        hit = ts.probe("r", "v", (1,), (2,))
        assert sorted(hit) == [(i, 2) for i in range(2, DEPTH, 4)]

    def test_missing_partition_is_provably_empty(self):
        ts = self._filled()
        assert ts.probe("r", "nobody", (1,), (0,)) == ()

    def test_group_partitions_unindexable(self):
        ts = TupleStore()
        for i in range(DEPTH):
            ts.set_group("agg", "v", ("k",), ("k", i))
        # replaced rows linger in the insertion log; an index over it
        # would resurrect them, so aggregate partitions always scan
        assert ts.probe("agg", "v", (0,), ("k",)) is None

    def test_pruned_partition_serves_slices_not_an_index(self):
        ts = TupleStore()
        for i in range(DEPTH * 2):
            ts.add_timed("r", "v", (i, i % 4), i)
        part = ts.partition("r", "v")
        assert ts.probe("r", "v", (1,), (3,)) is not None  # index built
        removed = part.prune_older_than(DEPTH)
        assert removed == DEPTH
        # A window-pruned partition is no longer indexed: the next prune
        # would discard a rebuilt index, so the evaluator is sent to the
        # time slice instead (PR 12; before, the index was rebuilt here).
        assert ts.probe("r", "v", (1,), (3,)) is None
        assert part.index is None
        assert list(part.slice(DEPTH + 3)) == [(DEPTH + 3, 3)]
        assert list(part.slice(0)) == []


@pytest.fixture()
def deep_store():
    store = ProvenanceStore()
    for i in range(DEPTH):
        store.add("value", (0, float(i), i))
        store.add("superstep", (0, i))
    return store


class TestProvenanceStorePartitions:
    def test_probe_narrows(self, deep_store):
        hit = deep_store.probe("value", 0, (2,), (5,))
        assert hit is not None
        assert set(hit) == {(0, 5.0, 5)}

    def test_small_partition_declines(self, deep_store):
        deep_store.add("send_message", (0, 1, "m", 0))
        assert deep_store.probe("send_message", 0, (1,), (1,)) is None

    def test_missing_partition_is_provably_empty(self, deep_store):
        assert deep_store.probe("value", 99, (2,), (5,)) == ()

    def test_miss_slices_share_one_frozenset(self, deep_store):
        # Partition/slice misses are the common case on sparse relations;
        # they must all return the one immutable empty set, not allocate.
        miss = deep_store.partition_at("value", 0, 10_000)
        assert miss is _EMPTY_ROWS
        assert deep_store.partition("value", 77) is _EMPTY_ROWS
        assert deep_store.partition_at("value", 77, 0) is _EMPTY_ROWS
        assert isinstance(miss, frozenset)
        with pytest.raises(AttributeError):
            miss.add((1, 2.0, 3))


@pytest.fixture(scope="module")
def graph():
    return web_graph(40, avg_degree=4, target_diameter=6, seed=7)


@pytest.fixture(scope="module")
def capture(graph):
    return run_online(
        graph, PageRank(num_supersteps=24), Q.CAPTURE_FULL_QUERY,
        capture=True,
    ).store


class TestReadonlyFacts:
    def test_views_match_copied_facts(self, capture, graph):
        copied = store_to_facts(capture, graph)
        views = store_to_facts(capture, graph, readonly=True)
        assert set(copied) == set(views)
        for rel in copied:
            assert set(views[rel]) == set(copied[rel]), rel
            assert len(views[rel]) == len(copied[rel]), rel
        some_row = next(iter(copied["value"]))
        assert some_row in views["value"]
        assert ("no", "such", "row") not in views["value"]

    def test_seminaive_over_views(self, capture, graph):
        program = parse(Q.SSSP_WCC_STABILITY_QUERY)
        from_views = evaluate_seminaive(
            program, store_to_facts(capture, graph, readonly=True)
        )
        from_copies = evaluate_seminaive(
            program, store_to_facts(capture, graph)
        )
        assert from_views == from_copies


class TestPlanProbes:
    def test_bound_scans_carry_probe_patterns(self):
        cq = compile_query(
            parse(Q.BACKWARD_LINEAGE_FULL_QUERY).bind(alpha=0, sigma=5)
        )
        probes = [
            s.probe
            for rule in cq.rules
            for s in rule.anchored_plan.steps
            if isinstance(s, ScanStep) and s.probe
        ]
        assert probes, "no anchored scan carries a binding pattern"

    def test_aggregate_rules_never_probe(self):
        # sum/avg accumulation is enumeration-order-sensitive; aggregate
        # rule bodies stay on the scan path so indexed and scan runs stay
        # byte-identical
        cq = compile_query(parse(
            "s(X, I, sum(M)) :- receive_message(X, Y, M, I), "
            "superstep(X, I)."
        ))
        for rule in cq.rules:
            for plan in (rule.anchored_plan, rule.located_plan,
                         rule.free_plan):
                if plan is None:
                    continue
                assert all(
                    not s.probe for s in plan.steps
                    if isinstance(s, ScanStep)
                )

    def test_explain_shows_probe_positions(self):
        cq = compile_query(
            parse(Q.BACKWARD_LINEAGE_FULL_QUERY).bind(alpha=0, sigma=5)
        )
        assert "hash-probe(" in explain(cq, verbose=True)

    def test_explain_reports_observed_usage(self):
        cq = compile_query(
            parse(Q.BACKWARD_LINEAGE_FULL_QUERY).bind(alpha=0, sigma=5)
        )
        text = explain(cq, index_stats={"index_probes": 3,
                                        "index_scans": 1})
        assert "observed index usage" in text
        assert "3 hash probe(s)" in text


class TestUseIndexSwitch:
    def _params(self, capture):
        sigma = capture.max_superstep
        alpha = min(x for x, i in capture.rows("superstep") if i == sigma)
        return {"alpha": alpha, "sigma": sigma}

    def test_layered_identical_with_and_without(self, capture, graph):
        params = self._params(capture)
        indexed = run_layered(
            capture, Q.BACKWARD_LINEAGE_FULL_QUERY, graph, params
        )
        scanned = run_layered(
            capture, Q.BACKWARD_LINEAGE_FULL_QUERY, graph, params,
            use_index=False,
        )
        assert indexed.as_dict() == scanned.as_dict()
        assert indexed.stats["use_index"] is True
        assert indexed.stats["index_probes"] > 0
        assert scanned.stats["use_index"] is False
        assert scanned.stats["index_probes"] == 0

    def test_reference_oracle_never_probes(self, capture, graph):
        result = run_reference(
            capture, Q.BACKWARD_LINEAGE_FULL_QUERY, graph,
            self._params(capture),
        )
        assert result.stats["use_index"] is False
        assert result.stats["index_probes"] == 0

    def test_engine_config_switch(self, graph):
        runs = {}
        for flag in (True, False):
            result = run_online(
                graph, PageRank(num_supersteps=24),
                Q.CAPTURE_BACKWARD_CUSTOM_QUERY, capture=True,
                config=EngineConfig(query_index=flag),
            )
            assert result.query.stats["use_index"] is flag
            if not flag:
                assert result.query.stats["index_probes"] == 0
            runs[flag] = result.query.as_dict()
        assert runs[True] == runs[False]
