"""Portable provenance export: JSON-lines serialization of a store.

Sealed stores are ARSC slabs (zlib-compressed columns) that only
:mod:`repro.provenance.columnar` reads; this module writes a captured
store as newline-delimited JSON so external tooling (jq, DuckDB, a
notebook) can consume Ariadne provenance (``repro export``). Format:

* line 1: a header object — ``{"format": "repro-provenance", "version": 1,
  "schemas": {relation: {arity, kind, time_index, topology}}}``;
* every following line: ``{"r": relation, "t": [attributes...]}``, each
  relation's rows in ``repr`` order.

Values must be JSON-representable; captured provenance is (freeze() maps
everything to scalars and tuples): tuples become JSON arrays, and the
infinities, which JSON lacks, become ``{"$": "inf"}`` / ``{"$": "-inf"}``.
NaN is refused.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO

from repro.errors import ProvenanceError
from repro.provenance.store import Relations

FORMAT_NAME = "repro-provenance"
FORMAT_VERSION = 1


def _jsonable(value: Any) -> Any:
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        if value != value:  # NaN
            raise ProvenanceError("NaN values cannot be exported as JSON")
        if value == float("inf"):
            return {"$": "inf"}
        if value == float("-inf"):
            return {"$": "-inf"}
    return value


def export_jsonl(store: Relations, fh: IO[str]) -> int:
    """Write ``store`` (a capture store, or a sealed store's view) as JSON
    lines; returns the number of fact lines."""
    schemas: Dict[str, Dict[str, Any]] = {}
    for relation in store.relations():
        schema = store.registry.get(relation)
        schemas[relation] = {
            "arity": schema.arity,
            "kind": schema.kind,
            "time_index": schema.time_index,
            "topology": schema.topology,
        }
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "schemas": schemas,
        "num_layers": store.num_layers,
    }
    fh.write(json.dumps(header, allow_nan=False) + "\n")
    written = 0
    for relation in sorted(store.relations()):
        for row in sorted(store.rows(relation), key=repr):
            fh.write(
                json.dumps(
                    {"r": relation, "t": _jsonable(list(row))},
                    allow_nan=False,
                )
                + "\n"
            )
            written += 1
    return written


def export_path(store: Relations, path: str) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        return export_jsonl(store, fh)

