"""Unit tests for the result containers."""

from repro.engine.engine import RunResult
from repro.engine.metrics import RunMetrics
from repro.provenance.store import Relations
from repro.runtime.results import OnlineRunResult, QueryResult


def make_query_result(**stats):
    derived = Relations()
    derived.insert("safe", [(2, 3)], layer=1)
    derived.insert("safe", [(0, 1)], layer=0)
    derived.insert("unsafe", [(1, 1)])
    return QueryResult(derived=derived, mode="online", stats=stats)


class TestQueryResult:
    def test_rows_sorted(self):
        result = make_query_result()
        assert result.rows("safe") == [(0, 1), (2, 3)]

    def test_count_and_vertices(self):
        result = make_query_result()
        assert result.count("safe") == 2
        assert result.vertices("safe") == {0, 2}
        assert result.count("missing") == 0

    def test_relations_includes_empty_heads(self):
        result = make_query_result(head_predicates=["safe", "unsafe", "never"])
        assert result.relations() == ["never", "safe", "unsafe"]
        assert result.count("never") == 0

    def test_relations_without_stats(self):
        result = make_query_result()
        assert result.relations() == ["safe", "unsafe"]

    def test_rows_at(self):
        result = make_query_result()
        assert result.rows_at("safe", 0) == [(0, 1)]
        assert result.rows_at("safe", 9) == []

    def test_as_dict(self):
        result = make_query_result()
        assert result.as_dict() == {
            "safe": [(0, 1), (2, 3)],
            "unsafe": [(1, 1)],
        }


class TestOnlineRunResult:
    def test_properties_delegate(self):
        run = RunResult(values={0: 1.5}, metrics=RunMetrics())
        run.metrics.wall_seconds = 2.5
        result = OnlineRunResult(analytic=run, query=make_query_result())
        assert result.values == {0: 1.5}
        assert result.wall_seconds == 2.5
        assert result.store is None
