"""Canonical ordering and JSON serialization for PQL query results.

This module is the single source of truth for two contracts the CLI and
the query server both depend on:

* **Row order.** Result rows of a relation are totally ordered by
  :func:`row_sort_key` (the row's ``repr``). Every surface that exposes
  rows — ``QueryResult.rows``, ``repro query`` output, HTTP responses,
  pagination cursors, the ledger's result digest — reads one
  :func:`canonical_order` of the relation, which a ``QueryResult``
  builds once (``QueryResult.canonical``), so layered and naive modes,
  CLI and server all agree on the exact sequence. Pagination cursors are
  plain offsets into that sequence, which is what makes them
  deterministic across requests.

* **JSON shape.** :func:`result_to_dict` maps a ``QueryResult`` to a
  JSON-safe dict containing only deterministic evaluation outputs (no
  timings, no index counters), and :func:`canonical_json` fixes the byte
  encoding. The differential tests pin CLI ``--json`` output and server
  responses byte-identical through these two functions.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


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


def result_digest(result: Any) -> str:
    """Short content digest of a result's deterministic view (the
    pagination cursor's consistency token)."""
    return _doc_digest(result_to_dict(result))


def _doc_digest(doc: Dict[str, Any]) -> str:
    # Non-finite floats are legal row values (SSSP holds inf for unreached
    # vertices) and only hashed here, never parsed back; finite-only
    # results encode to the same bytes either way.
    payload = canonical_json(doc, allow_nan=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def flatten_result(result: Any) -> List[Tuple[str, List[Any]]]:
    """The canonical flat sequence a pagination cursor indexes into:
    ``(relation, row)`` pairs, relations in sorted order, rows in
    canonical order within each relation."""
    return _flat_rows(result_to_dict(result))


def _flat_rows(doc: Dict[str, Any]) -> List[Tuple[str, List[Any]]]:
    return [(relation, row)
            for relation, body in doc["relations"].items()
            for row in body["rows"]]


def canonical_json(obj: Any, allow_nan: bool = False) -> str:
    """The one JSON encoding both CLI and server emit: sorted keys,
    minimal separators, no NaN/Infinity leniency unless asked for."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=allow_nan)


# ----------------------------------------------------------------------
# Pagination cursors: opaque base64url-encoded JSON carrying the offset
# into the flattened row sequence plus the result digest the offset was
# computed against. Replaying a cursor against a store whose re-evaluated
# result no longer matches the digest is a structured error, never a
# silently-shifted page.

def encode_cursor(offset: int, digest: str) -> str:
    payload = canonical_json({"v": 1, "offset": offset, "digest": digest})
    return base64.urlsafe_b64encode(payload.encode("utf-8")).decode("ascii")


def decode_cursor(cursor: str) -> Tuple[int, str]:
    """Returns ``(offset, digest)``; raises ``ValueError`` on garbage."""
    try:
        payload = base64.urlsafe_b64decode(cursor.encode("ascii"))
        doc = json.loads(payload.decode("utf-8"))
    except (ValueError, binascii.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed cursor: {exc}") from None
    if not isinstance(doc, dict) or doc.get("v") != 1:
        raise ValueError("malformed cursor: unknown version")
    offset = doc.get("offset")
    digest = doc.get("digest")
    if not isinstance(offset, int) or offset < 0 or not isinstance(digest, str):
        raise ValueError("malformed cursor: bad fields")
    return offset, digest


def paginate(result: Any, limit: int,
             cursor: Optional[str] = None) -> Dict[str, Any]:
    """One stable page over a result's flattened rows.

    Returns ``{"rows": [[relation, row], ...], "offset", "limit",
    "total_rows", "next_cursor"}`` where ``next_cursor`` is ``None`` on
    the last page. Raises ``ValueError`` for malformed/stale cursors or a
    non-positive limit.
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    doc = result_to_dict(result)  # the digest and the rows read one dict
    digest = _doc_digest(doc)
    offset = 0
    if cursor is not None:
        offset, expected = decode_cursor(cursor)
        if expected != digest:
            raise ValueError(
                "stale cursor: the result set changed since this cursor "
                "was issued")
    flat = _flat_rows(doc)
    page = flat[offset:offset + limit]
    next_offset = offset + len(page)
    return {
        "rows": [[relation, row] for relation, row in page],
        "offset": offset,
        "limit": limit,
        "total_rows": len(flat),
        "next_cursor": (encode_cursor(next_offset, digest)
                        if next_offset < len(flat) else None),
    }
