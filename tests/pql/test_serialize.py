"""Tests for the shared result serializer: canonical order, JSON shape,
and pagination cursors (satellite of the serve subsystem)."""

import json

import pytest

from repro import Ariadne, SSSP
from repro.core import queries as Q
from repro.graph.generators import web_graph, with_random_weights
from repro.obs.ledger import digest_query_result, digest_rows
from repro.pql.serialize import (
    canonical_json,
    decode_cursor,
    encode_cursor,
    jsonable_row,
    jsonable_value,
    ordered_rows,
    paginate,
    result_to_dict,
    row_sort_key,
)
from repro.provenance.store import Relations
from repro.runtime.offline import run_layered, run_naive, run_reference
from repro.runtime.results import QueryResult


@pytest.fixture(scope="module")
def capture():
    graph = with_random_weights(
        web_graph(50, avg_degree=4, target_diameter=7, seed=23), seed=23
    )
    return Ariadne(graph, SSSP(source=0)).capture()


def flatten(result):
    """The flat ``[relation, row]`` sequence a cursor indexes into, as it
    was first defined: ``result_to_dict``'s rows, relations in order."""
    return [[relation, row]
            for relation, body in result_to_dict(result)["relations"].items()
            for row in body["rows"]]


def lineage_params(store):
    """A (alpha, sigma) pair with a real backward lineage: the smallest
    vertex updated at the last superstep."""
    sigma = store.max_superstep
    alpha = min(x for x, i in store.rows("superstep") if i == sigma)
    return {"alpha": alpha, "sigma": sigma}


@pytest.fixture(scope="module")
def result(capture):
    return run_layered(
        capture.store, Q.BACKWARD_LINEAGE_FULL_QUERY,
        params=lineage_params(capture.store),
    )


class TestCanonicalOrder:
    def test_rows_are_sorted_by_repr(self, result):
        for relation in result.relations():
            rows = result.rows(relation)
            assert rows == sorted(rows, key=row_sort_key)

    def test_ordered_rows_handles_mixed_types(self):
        rows = [(2, "b"), (1, 0.5), (1, 10), ("a", 1)]
        out = ordered_rows(rows)
        assert out == sorted(rows, key=repr)
        # Deterministic: same input in any order, same output.
        assert ordered_rows(reversed(rows)) == out

    def test_driver_orders_agree(self, capture):
        """The pinned total order holds across evaluation drivers."""
        params = lineage_params(capture.store)
        runs = [
            driver(capture.store, Q.BACKWARD_LINEAGE_FULL_QUERY, params=params)
            for driver in (run_layered, run_naive, run_reference)
        ]
        baseline = result_to_dict(runs[0])
        baseline.pop("mode")
        for other in runs[1:]:
            doc = result_to_dict(other)
            doc.pop("mode")
            assert doc == baseline


class TestJsonShape:
    def test_jsonable_value_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert jsonable_value(value) == value

    def test_jsonable_value_recurses_and_degrades(self):
        assert jsonable_value((1, (2.0, "a"))) == [1, [2.0, "a"]]
        assert jsonable_value({1}) == repr({1})

    def test_jsonable_row(self):
        assert jsonable_row((1, 2.5, "v")) == [1, 2.5, "v"]

    def test_result_to_dict_is_json_safe_and_deterministic(self, result):
        doc = result_to_dict(result)
        encoded = canonical_json(doc)
        assert json.loads(encoded) == doc
        assert canonical_json(result_to_dict(result)) == encoded
        assert set(doc) == {"mode", "derivations", "supersteps", "relations"}
        for rel in doc["relations"].values():
            assert rel["count"] == len(rel["rows"])

    def test_no_timings_in_result_dict(self, result):
        text = canonical_json(result_to_dict(result))
        assert "wall_seconds" not in text

    def test_digest_tracks_content(self, result):
        """A cursor carries the ledger's digest of the result it pages."""
        cursor = paginate(result, 1)["next_cursor"]
        assert decode_cursor(cursor) == (1, digest_query_result(result))


class TestCursors:
    def test_round_trip(self):
        cursor = encode_cursor(42, "abcd" * 4)
        assert decode_cursor(cursor) == (42, "abcd" * 4)

    @pytest.mark.parametrize("garbage", [
        "", "!!!", "aGVsbG8=",  # valid base64, not JSON-cursor shaped
        # a version-1 cursor whose tail was cut off
        "eyJkaWdlc3QiOiJkIiwib2Zmc2V0IjowLCJ2IjoxAAAA",
    ])
    def test_garbage_rejected(self, garbage):
        with pytest.raises(ValueError):
            decode_cursor(garbage)

    def test_negative_offset_rejected(self):
        import base64
        payload = canonical_json({"v": 2, "offset": -1, "digest": "d"})
        cursor = base64.urlsafe_b64encode(payload.encode()).decode()
        with pytest.raises(ValueError, match="bad fields"):
            decode_cursor(cursor)

    def test_version_1_cursor_refused_by_name(self):
        import base64
        payload = canonical_json({"v": 1, "offset": 2, "digest": "d" * 16})
        cursor = base64.urlsafe_b64encode(payload.encode()).decode()
        with pytest.raises(ValueError, match="cursor version 1"):
            decode_cursor(cursor)


class TestPaginate:
    def test_walk_covers_all_rows_in_order(self, result):
        flat = flatten(result)
        assert flat, "fixture query should produce rows"
        seen = []
        cursor = None
        while True:
            page = paginate(result, 3, cursor)
            assert page["total_rows"] == len(flat)
            seen.extend(page["rows"])
            if page["next_cursor"] is None:
                break
            cursor = page["next_cursor"]
        assert seen == flat

    def test_stale_cursor_raises(self, result, capture):
        cursor = paginate(result, 2)["next_cursor"]
        other = run_layered(
            capture.store, Q.BACKWARD_LINEAGE_FULL_QUERY,
            params={"alpha": 0, "sigma": 0},
        )
        with pytest.raises(ValueError, match="stale"):
            paginate(other, 2, cursor)

    def test_result_holding_infinity_pages(self, result, capture):
        """SSSP stores hold inf for unreached vertices; the cursor digest
        must take it."""
        unreached = run_layered(
            capture.store, Q.BACKWARD_LINEAGE_FULL_QUERY,
            params={"alpha": 1, "sigma": 0},
        )
        assert unreached.rows("back_lineage") == [(1, float("inf"))]
        first = paginate(unreached, 1)
        assert first["total_rows"] == 2 and first["next_cursor"]
        last = paginate(unreached, 1, first["next_cursor"])
        assert last["rows"] == [["back_trace", [1, 0]]]
        assert last["next_cursor"] is None
        with pytest.raises(ValueError, match="stale"):
            paginate(result, 1, first["next_cursor"])

    def test_nonpositive_limit_raises(self, result):
        with pytest.raises(ValueError, match="limit"):
            paginate(result, 0)

    def test_last_page_has_no_cursor(self, result):
        total = len(flatten(result))
        page = paginate(result, total)
        assert page["next_cursor"] is None
        assert len(page["rows"]) == total


def _handmade_result(relations):
    derived = Relations()
    for relation, rows in relations.items():
        derived.insert(relation, rows)
    return QueryResult(derived=derived, mode="layered")


#: Tuples, ``inf``, ``True`` beside ``1`` and strings: values whose
#: ``repr`` order differs from their natural one, or whose natural order
#: does not exist.
MIXED = {
    "lineage": [(1, float("inf")), (0, 2.5), (10, 0.0), (2, float("-inf"))],
    # rows that differ only by True / 1 are one row under set semantics
    "flags": [(1, True, 1), (2, 1, True), (0, False, 0), (3, 0, 1)],
    "payloads": [(0, (1, "a")), (0, (1, 2.0)), (3, ("b",)), (0, None)],
    "names": [("x", "y"), (2, "b"), ("a", 1), (1, "10")],
}


class TestCanonicalView:
    def test_ledger_digest_is_digest_rows_of_the_rows(self, result):
        for res in (_handmade_result(MIXED), result):
            assert digest_query_result(res) == digest_rows(
                {rel: res.rows(rel) for rel in res.relations()})

    def test_ledger_digest_of_each_mixed_relation(self):
        for relation, rows in MIXED.items():
            res = _handmade_result({relation: rows})
            assert digest_query_result(res) == digest_rows({relation: rows})

    def test_view_is_rows_and_their_keys_in_order(self):
        res = _handmade_result(MIXED)
        for relation, rows in MIXED.items():
            columns, keys = res.canonical(relation)
            view_rows = list(zip(*columns))
            assert view_rows == sorted(rows, key=row_sort_key)
            assert keys == [row_sort_key(row) for row in view_rows]
            assert keys == sorted(keys)

    def test_rows_returns_a_copy(self):
        res = _handmade_result(MIXED)
        res.rows("names").clear()
        assert res.rows("names") == ordered_rows(MIXED["names"])

    def test_view_built_once_per_relation(self, monkeypatch):
        res = _handmade_result(MIXED)
        reads = []
        holder_rows = res.derived.rows

        def counting_rows(relation):
            reads.append(relation)
            return holder_rows(relation)

        monkeypatch.setattr(res.derived, "rows", counting_rows)
        for _ in range(2):
            for relation in res.relations():
                res.rows(relation)
            result_to_dict(res)
            paginate(res, 3)
            paginate(res, 3, paginate(res, 3)["next_cursor"])
            digest_query_result(res)
        assert sorted(reads) == sorted(MIXED)


class TestPagesOfTheCanonicalView:
    """Pages are sliced from the canonical view: every page, at every
    limit, holds the rows the whole-result flatten holds at its offsets."""

    @pytest.mark.parametrize("limit", [1, 2, 3, 5, 16, 100])
    def test_walk_equals_flatten_on_mixed_rows(self, limit):
        res = _handmade_result(MIXED)
        flat = flatten(res)
        seen, cursor = [], None
        while True:
            page = paginate(res, limit, cursor)
            assert page["total_rows"] == len(flat)
            assert page["rows"] == flat[page["offset"]:page["offset"] + limit]
            assert canonical_json(page["rows"], allow_nan=True) == \
                canonical_json(flat[page["offset"]:page["offset"] + limit],
                               allow_nan=True)
            seen.extend(page["rows"])
            cursor = page["next_cursor"]
            if cursor is None:
                break
        assert seen == flat

    def test_cursor_token_is_the_ledger_digest(self):
        res = _handmade_result(MIXED)
        digest = digest_query_result(res)
        cursor = paginate(res, 2)["next_cursor"]
        assert decode_cursor(cursor) == (2, digest)
        assert paginate(res, 2, digest=digest) == paginate(res, 2)
        with pytest.raises(ValueError, match="stale"):
            paginate(_handmade_result({"names": MIXED["names"]}), 2, cursor)

    def test_only_page_rows_are_made_json_safe(self, monkeypatch):
        from repro.pql import serialize

        res = _handmade_result(MIXED)
        converted = []
        real = serialize.jsonable_row

        def counting(row):
            converted.append(row)
            return real(row)

        monkeypatch.setattr(serialize, "jsonable_row", counting)
        page = paginate(res, 3, paginate(res, 3)["next_cursor"])
        assert len(page["rows"]) == 3
        assert len(converted) == 6  # three rows per page, two pages


class TestJsonableRowFastPath:
    @pytest.mark.parametrize("row", [
        (1, 2.5, "v", True, None),
        (0, float("inf"), False),
        (1, (2, "a"), 3),
        (1, [2.0, ("x", None)]),
        ({1}, 2),
        (b"raw", 1),
        (),
    ])
    def test_same_as_per_value_path(self, row):
        assert jsonable_row(row) == [jsonable_value(value) for value in row]

    def test_same_json_bytes_on_mixed_rows(self):
        class Score(int):
            pass

        rows = [row for rows in MIXED.values() for row in rows]
        rows += [(Score(3), "s"), (frozenset({1}), 2)]
        for row in rows:
            assert canonical_json(jsonable_row(row), allow_nan=True) \
                == canonical_json([jsonable_value(v) for v in row],
                                  allow_nan=True)

    def test_returns_a_fresh_list(self):
        row = [1, 2]
        assert jsonable_row(row) is not row
