"""Append-only run ledger: a durable audit trail for every run.

A capture or query run leaves behind a store directory and (optionally) a
trace file; without a ledger there is no durable record of *what produced
them*, under which configuration, or whether the artifacts on disk still
match what the run sealed. The ledger closes that gap: every CLI workload
invocation (``repro run/monitor/apt/capture/query``) and every served query
appends one JSON record to ``<dir>/ledger.jsonl``. A library run
(:class:`~repro.core.ariadne.Ariadne`, ``run_online``) records nothing: the
callers that write records own where they go. A record describes

* **identity** — a content-derived run id (sha256 over the invocation's
  command, configuration, environment fingerprint and start timestamp),
  plus a ``parent_run_id`` linking a query run to the capture run that
  produced its store (read back from the store manifest);
* **inputs** — the full engine configuration, an
  environment fingerprint (python, platform, usable cores, package
  version) and the dataset identity (edge-list content hash);
* **outputs** — result digests: the vertex-values digest, the sealed-slab
  hashes stamped into the store manifest at seal time, and the query
  result digest — everything ``repro audit verify`` needs to recompute
  and diff against the artifacts later;
* **observations** — the run's metrics summary, a metrics-registry
  snapshot, and a pointer to the trace file (whose JSONL meta line
  carries the same run id).

Records are one JSON object per line, written atomically (single
``write`` + flush) so concurrent readers never see a torn record, and
never rewritten — drift is detected by recomputing digests, not by
editing history. ``repro audit list|show|verify|diff`` is the read
side.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.obs.log import get_logger

logger = get_logger("obs.ledger")

LEDGER_FILENAME = "ledger.jsonl"

#: Bumped when the record shape changes incompatibly.
RECORD_VERSION = 1

_ID_PREFIX = "r"
_ID_HEX_CHARS = 16


# ---------------------------------------------------------------------------
# canonical hashing
# ---------------------------------------------------------------------------
def canonical_json(value: Any) -> str:
    """Deterministic JSON for hashing: sorted keys, no whitespace, and
    ``repr`` for anything JSON cannot represent natively."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=repr)


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_file(path: str, chunk_bytes: int = 1 << 20) -> str:
    """Streaming sha256 of a file's bytes (slab verification)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(chunk_bytes)
            if not chunk:
                break
            h.update(chunk)
    return h.hexdigest()


def digest_values(values: Mapping[Any, Any]) -> str:
    """Digest of an analytic's final vertex values.

    Rows are hashed in sorted ``repr`` order so the digest is independent
    of dict iteration order (and therefore identical at any simulated
    worker count or partitioning).
    """
    h = hashlib.sha256()
    for line in sorted(repr((k, v)) for k, v in values.items()):
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def digest_rows(rows_by_relation: Mapping[str, Iterable[Any]]) -> str:
    """Digest of a query result (relation -> rows), order-insensitive:
    each relation's name, then its rows' ``repr`` lines in sorted order,
    relations in sorted order. The reference definition."""
    return _digest_lines(
        (relation, sorted(repr(row) for row in rows_by_relation[relation]))
        for relation in sorted(rows_by_relation))


def digest_query_result(result: Any) -> str:
    """Digest of a :class:`~repro.runtime.results.QueryResult`:
    :func:`digest_rows` of its rows, read from each relation's canonical
    view. The view's keys are the rows' ``repr`` lines already sorted —
    the very lines :func:`digest_rows` sorts — so nothing is sorted or
    ``repr``'d again here."""
    return _digest_lines((relation, result.canonical(relation)[1])
                         for relation in sorted(result.relations()))


def _digest_lines(lines_by_relation: Iterable[Tuple[str, List[str]]]) -> str:
    """sha256 over ``(relation, sorted lines)`` pairs, in the order given."""
    h = hashlib.sha256()
    for relation, lines in lines_by_relation:
        h.update(relation.encode("utf-8"))
        h.update(b"\x00")
        if lines:
            h.update(("\n".join(lines) + "\n").encode("utf-8"))
    return h.hexdigest()


def digest_graph(graph: Any) -> str:
    """Content hash of a graph's edge list (dataset identity).

    Hashes the canonical edge lines ``repr((u, v, value))`` in sorted
    order plus the isolated vertices, so two graphs with the same edges
    and vertices digest identically regardless of construction order.
    """
    h = hashlib.sha256()
    for line in sorted(repr(edge) for edge in graph.edges()):
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    h.update(b"\x00vertices\n")
    for line in sorted(repr(v) for v in graph.vertices()):
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------
def usable_cores() -> int:
    """Cores this process may actually schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def environment_fingerprint() -> Dict[str, Any]:
    """Where a run happened: interpreter, platform, cores, package."""
    from repro import __version__

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "usable_cores": usable_cores(),
        "package_version": __version__,
        "pid": os.getpid(),
        "argv0": os.path.basename(sys.argv[0]) if sys.argv else None,
    }


def config_fingerprint(config: Any) -> Dict[str, Any]:
    """An ``EngineConfig`` (or any dataclass) as a plain JSON-able dict."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    return dict(config) if isinstance(config, Mapping) else {"repr": repr(config)}


def dataset_fingerprint(graph: Any, source: Optional[str] = None
                        ) -> Dict[str, Any]:
    """Dataset identity: size plus the edge-list content hash."""
    return {
        "source": source,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "edges_sha256": digest_graph(graph),
    }


def new_run_id(command: str, content: Any = None,
               started_ns: Optional[int] = None) -> str:
    """Content-derived run id: sha256 over the invocation's identity.

    The id covers what *launches* the run — command, configuration,
    environment, start timestamp — not what it produces, so it exists
    before the first span is recorded and can be stamped into the trace
    meta line and the store manifest while the run is still live. The
    artifacts a run produces are bound to the id by the digests in its
    ledger record instead.
    """
    payload = canonical_json({
        "command": command,
        "content": content,
        "started_ns": started_ns if started_ns is not None else time.time_ns(),
    })
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return _ID_PREFIX + digest[:_ID_HEX_CHARS]


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


# ---------------------------------------------------------------------------
# the ledger
# ---------------------------------------------------------------------------
class RunLedger:
    """Append-only JSONL ledger in one directory.

    The directory is created on first append; reading a missing ledger
    yields zero records (a fresh store has no history yet, which is not
    an error).
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.path = os.path.join(directory, LEDGER_FILENAME)

    # -- write ----------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Append one record; fills ``run_id`` (content-derived) and the
        bookkeeping fields when absent. Returns the completed record."""
        record = dict(record)
        record.setdefault("record_version", RECORD_VERSION)
        if not record.get("run_id"):
            body = {k: v for k, v in record.items() if k != "run_id"}
            digest = hashlib.sha256(
                canonical_json(body).encode("utf-8")
            ).hexdigest()
            record["run_id"] = _ID_PREFIX + digest[:_ID_HEX_CHARS]
        record.setdefault("recorded_at", _utc_now())
        os.makedirs(self.directory, exist_ok=True)
        line = json.dumps(record, sort_keys=True, default=repr)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
        logger.info("ledger: recorded %s run %s -> %s",
                    record.get("command", "?"), record["run_id"], self.path)
        return record

    # -- read -----------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        if not os.path.exists(self.path):
            return []
        records: List[Dict[str, Any]] = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ReproError(
                        f"{self.path}:{lineno}: corrupt ledger record: {exc}"
                    ) from None
        return records

    def get(self, run_id: str) -> Dict[str, Any]:
        matches = [
            r for r in self.records()
            if r.get("run_id") == run_id
            or (len(run_id) >= 4 and str(r.get("run_id", "")).startswith(run_id))
        ]
        if not matches:
            raise ReproError(f"no ledger record matches {run_id!r} "
                             f"in {self.path}")
        exact = [r for r in matches if r.get("run_id") == run_id]
        if exact:
            return exact[-1]
        ids = {r["run_id"] for r in matches}
        if len(ids) > 1:
            raise ReproError(
                f"run id prefix {run_id!r} is ambiguous: {sorted(ids)}"
            )
        return matches[-1]

    def latest(self, command: Optional[str] = None) -> Optional[Dict[str, Any]]:
        for record in reversed(self.records()):
            if command is None or record.get("command") == command:
                return record
        return None

    def resolve(self, ref: str) -> Dict[str, Any]:
        """A record by reference: ``latest``, ``latest:<command>``, a full
        run id, or an unambiguous run-id prefix."""
        if ref == "latest":
            record = self.latest()
            if record is None:
                raise ReproError(f"ledger {self.path} has no records")
            return record
        if ref.startswith("latest:"):
            command = ref.split(":", 1)[1]
            record = self.latest(command)
            if record is None:
                raise ReproError(
                    f"ledger {self.path} has no {command!r} records"
                )
            return record
        return self.get(ref)


# ---------------------------------------------------------------------------
# record builder
# ---------------------------------------------------------------------------
def make_record(
    command: str,
    *,
    run_id: Optional[str] = None,
    parent_run_id: Optional[str] = None,
    started_at: Optional[str] = None,
    wall_seconds: Optional[float] = None,
    config: Optional[Any] = None,
    environment: Optional[Dict[str, Any]] = None,
    dataset: Optional[Dict[str, Any]] = None,
    analytic: Optional[str] = None,
    query: Optional[str] = None,
    results: Optional[Dict[str, Any]] = None,
    metrics: Optional[Dict[str, Any]] = None,
    registry: Optional[Any] = None,
    trace: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one run record. ``query`` is PQL source text (stored as a
    hash plus a short head, never the full text — ledgers stay small);
    ``registry`` may be a :class:`MetricsRegistry` (snapshotted here).
    ``workers`` is always ``None``: it held the worker-process stamp of a
    multiprocess backend that no longer exists, and stays in the record
    so older and newer records share one shape."""
    if registry is not None and hasattr(registry, "snapshot"):
        registry = registry.snapshot()
    query_field = None
    if query is not None:
        head = " ".join(query.split())
        query_field = {
            "sha256": digest_text(query),
            "head": head[:120] + ("..." if len(head) > 120 else ""),
        }
    return {
        "record_version": RECORD_VERSION,
        "run_id": run_id,
        "parent_run_id": parent_run_id,
        "command": command,
        "started_at": started_at or _utc_now(),
        "wall_seconds": wall_seconds,
        "config": config_fingerprint(config) if config is not None else None,
        "environment": environment or environment_fingerprint(),
        "dataset": dataset,
        "analytic": analytic,
        "query": query_field,
        "results": results or {},
        "metrics": metrics,
        "registry": registry,
        "trace": trace,
        "workers": None,
    }


def store_fingerprint(spill: Any) -> Dict[str, Any]:
    """The sealed store's identity as carried in a capture record: the
    per-slab hashes the manifest was stamped with, plus their digest."""
    from repro.provenance.spill import SLAB_FORMAT

    slabs = {name: dict(entry) for name, entry in spill.slab_digests.items()}
    fingerprint = {
        "directory": os.path.abspath(spill.directory),
        "slabs": slabs,
        "manifest_sha256": manifest_digest(slabs),
        "compression": spill.compression,
        "format": SLAB_FORMAT,
    }
    migrated_from = getattr(spill, "migrated_from", None)
    if migrated_from:
        fingerprint["migrated_from"] = migrated_from
    return fingerprint


def manifest_digest(slabs: Mapping[str, Mapping[str, Any]]) -> str:
    """One digest over a manifest's per-slab hash table."""
    return digest_text(canonical_json(
        {name: entry.get("sha256") for name, entry in slabs.items()}
    ))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------
def verify_store(directory: str,
                 expected_slabs: Optional[Mapping[str, Mapping[str, Any]]] = None,
                 ) -> Tuple[List[str], Dict[str, Any]]:
    """Recompute a sealed store's slab digests and diff them.

    Checks the on-disk slabs against the store's ``manifest.json`` (the
    hashes stamped at seal time) and, when ``expected_slabs`` is given
    (from a ledger record), against those too. Returns ``(problems,
    details)`` — an empty problem list means no drift.
    """
    from repro.provenance.spill import MANIFEST_FILENAME, read_manifest

    problems: List[str] = []
    manifest = read_manifest(directory)
    if manifest is None:
        problems.append(
            f"{directory}: no {MANIFEST_FILENAME} (store predates the run "
            "ledger or was never sealed via seal_all)"
        )
        return problems, {"directory": directory, "manifest": None}
    stamped: Dict[str, Any] = manifest.get("slabs", {})
    recomputed: Dict[str, Dict[str, Any]] = {}
    for name, entry in sorted(stamped.items()):
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            problems.append(f"{name}: sealed slab is missing")
            continue
        actual = {"sha256": digest_file(path), "bytes": os.path.getsize(path)}
        recomputed[name] = actual
        if actual["sha256"] != entry.get("sha256"):
            problems.append(
                f"{name}: content drift — manifest {entry.get('sha256')!r} "
                f"!= on-disk {actual['sha256']!r}"
            )
        elif actual["bytes"] != entry.get("bytes"):
            problems.append(
                f"{name}: size drift — manifest {entry.get('bytes')} bytes "
                f"!= on-disk {actual['bytes']}"
            )
    for name in sorted(os.listdir(directory)):
        if name.endswith(".slab") and name not in stamped:
            problems.append(f"{name}: slab on disk but not in the manifest")
    if expected_slabs is not None:
        for name, entry in sorted(expected_slabs.items()):
            have = recomputed.get(name)
            if have is None:
                if name not in stamped:
                    problems.append(f"{name}: in ledger record but not in "
                                    "the store manifest")
                continue
            if have["sha256"] != entry.get("sha256"):
                problems.append(
                    f"{name}: ledger drift — record {entry.get('sha256')!r} "
                    f"!= on-disk {have['sha256']!r}"
                )
        for name in sorted(stamped):
            if name not in expected_slabs:
                problems.append(
                    f"{name}: in the store manifest but not in the ledger "
                    "record"
                )
    return problems, {
        "directory": directory,
        "manifest": manifest,
        "recomputed": recomputed,
    }


def verify_record(record: Dict[str, Any], ledger: RunLedger,
                  store_directory: Optional[str] = None) -> List[str]:
    """Verify one ledger record against the artifacts it points at."""
    problems: List[str] = []
    command = record.get("command")
    results = record.get("results") or {}
    store = results.get("store")
    if command == "query":
        parent = record.get("parent_run_id")
        if parent:
            try:
                parent_record = ledger.get(parent)
            except ReproError:
                parent_record = None
                problems.append(
                    f"parent run {parent} is not in the ledger"
                )
            if parent_record is not None:
                store = (parent_record.get("results") or {}).get("store")
        elif store is None:
            problems.append("query record has no parent capture run")
    if store is not None:
        directory = store_directory or store.get("directory")
        if directory is None or not os.path.isdir(directory):
            problems.append(f"store directory {directory!r} does not exist")
        else:
            drift, _ = verify_store(directory, store.get("slabs"))
            problems.extend(drift)
    trace = record.get("trace")
    if trace and trace.get("path") and not os.path.exists(trace["path"]):
        problems.append(f"trace file {trace['path']} is missing")
    return problems
