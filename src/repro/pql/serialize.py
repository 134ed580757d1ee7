"""Canonical ordering and JSON serialization for PQL query results.

This module is the single source of truth for two contracts the CLI and
the query server both depend on:

* **Row order.** Result rows of a relation are totally ordered by
  :func:`row_sort_key` (the row's ``repr``). Every surface that exposes
  rows — ``QueryResult.rows``, ``repro query`` output, HTTP responses
  and their pages, the ledger's result digest — reads one
  :func:`canonical_order` of the relation, which a ``QueryResult``
  builds once (``QueryResult.canonical``), so layered and naive modes,
  CLI and server all agree on the exact sequence. Pagination cursors are
  plain offsets into that sequence, stamped with the ledger's digest of
  the result, which is what makes them deterministic across requests.

* **JSON shape.** :func:`result_to_dict` maps a ``QueryResult`` to a
  JSON-safe dict containing only deterministic evaluation outputs (no
  timings, no index counters), and :func:`canonical_json` fixes the byte
  encoding. The differential tests pin CLI ``--json`` output and server
  responses byte-identical through these two functions.
"""

from __future__ import annotations

import base64
import binascii
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.ledger import digest_query_result


def row_sort_key(row: Any) -> str:
    """The canonical total-order key for result rows.

    ``repr`` orders mixed-type rows without comparability constraints
    (ints, floats, strings, and tuples all occur in provenance rows) and
    is stable across processes for the value types PQL derives.
    """
    return repr(row)


def canonical_order(rows: Iterable[Any]) -> Tuple[List[Tuple[Any, ...]],
                                                  List[str]]:
    """``(columns, keys)``: the rows sorted into the canonical order, held
    as columns, and each row's :func:`row_sort_key` beside it — one key
    per row and one sort. ``zip(*columns)`` gives the rows back in order;
    the keys are exactly the sorted lines
    :func:`repro.obs.ledger.digest_rows` hashes.

    Columns, not row tuples, because a view outlives the call that built
    it: a kept tuple per row would count toward every later collection
    of the cyclic garbage collector, inside whatever runs next."""
    rows = list(rows)
    keys = list(map(row_sort_key, rows))
    order = sorted(range(len(rows)), key=keys.__getitem__)
    return (list(zip(*[rows[i] for i in order])),
            [keys[i] for i in order])


def ordered_rows(rows: Iterable[Any]) -> List[Any]:
    """Rows sorted into the canonical order."""
    return sorted(rows, key=row_sort_key)


def jsonable_value(value: Any) -> Any:
    """Map one row field to a JSON-safe value, deterministically.

    JSON scalars pass through; tuples/lists recurse (message payloads can
    be tuples); anything else degrades to its ``repr`` so serialization
    never fails and equal values always encode equally.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (tuple, list)):
        return [jsonable_value(item) for item in value]
    return repr(value)


#: The exact types :func:`jsonable_value` returns as they are.
_JSON_ATOMS = frozenset((int, float, str, bool, type(None)))


def jsonable_row(row: Sequence[Any]) -> List[Any]:
    if _JSON_ATOMS.issuperset(map(type, row)):
        return list(row)  # what the per-value path returns, without it
    return [jsonable_value(value) for value in row]


def result_to_dict(result: Any) -> Dict[str, Any]:
    """Deterministic JSON-safe view of a ``QueryResult``.

    Contains only content that is byte-identical across evaluation paths:
    mode, derivation count, supersteps, and every relation's row count and
    canonically-ordered rows. Timings and evaluator statistics are
    intentionally excluded — callers attach those as sibling keys.
    """
    relations: Dict[str, Any] = {}
    for relation in result.relations():
        columns, keys = result.canonical(relation)
        relations[relation] = {
            "count": len(keys),
            "rows": [jsonable_row(row) for row in zip(*columns)],
        }
    return {
        "mode": result.mode,
        "derivations": result.derivations,
        "supersteps": result.supersteps,
        "relations": relations,
    }


def canonical_json(obj: Any, allow_nan: bool = False) -> str:
    """The one JSON encoding both CLI and server emit: sorted keys,
    minimal separators, no NaN/Infinity leniency unless asked for."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=allow_nan)


# ----------------------------------------------------------------------
# Pagination cursors: opaque base64url-encoded JSON carrying the offset
# into the flattened row sequence plus the result digest the offset was
# computed against (:func:`repro.obs.ledger.digest_query_result`, the
# digest a served query's ledger record carries). Replaying a cursor
# against a store whose re-evaluated result no longer matches the digest
# is a structured error, never a silently-shifted page.

CURSOR_VERSION = 2


def encode_cursor(offset: int, digest: str) -> str:
    payload = canonical_json(
        {"v": CURSOR_VERSION, "offset": offset, "digest": digest})
    return base64.urlsafe_b64encode(payload.encode("utf-8")).decode("ascii")


def decode_cursor(cursor: str) -> Tuple[int, str]:
    """Returns ``(offset, digest)``; raises ``ValueError`` on garbage and
    on a cursor of another version."""
    try:
        payload = base64.urlsafe_b64decode(cursor.encode("ascii"))
        doc = json.loads(payload.decode("utf-8"))
    except (ValueError, binascii.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed cursor: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("malformed cursor: not an object")
    if doc.get("v") != CURSOR_VERSION:
        raise ValueError(
            f"unsupported cursor version {doc.get('v')!r}: this server "
            f"issues version {CURSOR_VERSION} cursors; restart the walk "
            "without a cursor")
    offset = doc.get("offset")
    digest = doc.get("digest")
    if not isinstance(offset, int) or offset < 0 or not isinstance(digest, str):
        raise ValueError("malformed cursor: bad fields")
    return offset, digest


def paginate(result: Any, limit: int, cursor: Optional[str] = None,
             digest: Optional[str] = None) -> Dict[str, Any]:
    """One stable page over a result's flattened rows: ``(relation,
    row)`` pairs, relations in sorted order, rows in canonical order
    within each relation — :func:`result_to_dict`'s rows, laid end to end.

    Returns ``{"rows": [[relation, row], ...], "offset", "limit",
    "total_rows", "next_cursor"}`` where ``next_cursor`` is ``None`` on
    the last page. The page's rows are sliced from each relation's
    canonical view and only they are made JSON-safe. ``digest`` is the
    result's :func:`~repro.obs.ledger.digest_query_result` when the
    caller has it already. Raises ``ValueError`` for malformed/stale
    cursors or a non-positive limit.
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    if digest is None:
        digest = digest_query_result(result)
    offset = 0
    if cursor is not None:
        offset, expected = decode_cursor(cursor)
        if expected != digest:
            raise ValueError(
                "stale cursor: the result set changed since this cursor "
                "was issued")
    rows: List[List[Any]] = []
    total = 0  # rows of the relations before this one
    for relation in result.relations():
        columns, _keys = result.canonical(relation)
        count = len(columns[0]) if columns else 0
        lo = max(offset - total, 0)
        hi = min(offset + limit - total, count)
        if lo < hi:
            rows.extend([relation, jsonable_row(row)]
                        for row in zip(*[column[lo:hi] for column in columns]))
        total += count
    next_offset = offset + len(rows)
    return {
        "rows": rows,
        "offset": offset,
        "limit": limit,
        "total_rows": total,
        "next_cursor": (encode_cursor(next_offset, digest)
                        if next_offset < total else None),
    }
