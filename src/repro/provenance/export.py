"""Portable provenance export: JSON-lines serialization of a store.

The spill slabs (pickle) are fast but Python-private; this module writes a
captured store as newline-delimited JSON so external tooling (jq, DuckDB,
a notebook) can consume Ariadne provenance. Format:

* line 1: a header object — ``{"format": "repro-provenance", "version": 1,
  "schemas": {relation: {arity, kind, time_index, topology}}}``;
* every following line: ``{"r": relation, "t": [attributes...]}``.

Values must be JSON-representable; captured provenance is (freeze() maps
everything to scalars and tuples — tuples become JSON arrays and are
restored as tuples on import).
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO

from repro.errors import ProvenanceError
from repro.provenance.model import RelationSchema, SchemaRegistry
from repro.provenance.store import ProvenanceStore, Relations

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


def _from_json(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_from_json(v) for v in value)
    if isinstance(value, dict):
        marker = value.get("$")
        if marker == "inf":
            return float("inf")
        if marker == "-inf":
            return float("-inf")
        raise ProvenanceError(f"unexpected object in provenance JSON: {value}")
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


def import_jsonl(fh: IO[str]) -> ProvenanceStore:
    """Rebuild a store from :func:`export_jsonl` output."""
    header_line = fh.readline()
    if not header_line:
        raise ProvenanceError("empty provenance export")
    header = json.loads(header_line)
    if header.get("format") != FORMAT_NAME:
        raise ProvenanceError(
            f"not a {FORMAT_NAME} file (format={header.get('format')!r})"
        )
    if header.get("version") != FORMAT_VERSION:
        raise ProvenanceError(
            f"unsupported provenance export version {header.get('version')!r}"
        )
    registry = SchemaRegistry()
    for name, spec in header.get("schemas", {}).items():
        if registry.maybe_get(name) is None:
            registry.register(
                RelationSchema(
                    name,
                    spec["arity"],
                    spec.get("kind", "derived"),
                    time_index=spec.get("time_index"),
                    topology=spec.get("topology"),
                )
            )
    store = ProvenanceStore(registry)
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            relation = record["r"]
            row = tuple(_from_json(v) for v in record["t"])
        except (KeyError, json.JSONDecodeError) as exc:
            raise ProvenanceError(
                f"malformed provenance line {lineno}: {exc}"
            ) from exc
        store.add(relation, row)
    return store


def export_path(store: Relations, path: str) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        return export_jsonl(store, fh)


def import_path(path: str) -> ProvenanceStore:
    with open(path, "r", encoding="utf-8") as fh:
        return import_jsonl(fh)
