"""The run catalog: sealed captures held open behind the query server.

Admission, identity, and reuse rules:

* **Digest-verified admission.** A store is only admitted after
  :func:`repro.obs.ledger.verify_store` recomputes every slab digest and
  finds no drift against ``manifest.json``. Tampered or torn stores are
  rejected with the full problem list (:class:`AdmissionError`).

* **One open handle per store.** The catalog is the single owner of each
  sealed store's :class:`~repro.provenance.spill.SpillManager`, and reads
  through the manager's read session (:meth:`SpillManager.view
  <repro.provenance.spill.SpillManager.view>`, the one way a store is
  opened: an mmap + footer read per slab; columns decode on demand and
  stay warm across requests). Registering the same directory twice
  returns the same :class:`CatalogEntry`; the store is opened exactly
  once. Each entry's ``eval_lock`` serializes evaluations against one
  store, while different stores evaluate fully in parallel.

* **Prepared-plan cache.** Each entry keeps a small LRU of compiled
  query plans keyed by (query text, bound params, mode).
  A cache hit skips parse + semantic analysis + stratification + plan
  selection; the long-lived store also keeps its lazily decoded columns
  warm across requests — together these are the "warm" path the
  serve benchmark compares against a cold per-request store open.

* **Invalidation.** Every request calls :meth:`CatalogEntry.ensure_fresh`,
  which stats ``manifest.json``; on mtime change the manifest digest is
  recomputed, and on content change the store is re-verified, reopened
  (a fresh manager and session; the old one is released), and the plan
  cache dropped. A store resealed in place is therefore
  picked up without restarting the server.
"""

from __future__ import annotations

import hashlib
import io
import os
import tarfile
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ProvenanceError
from repro.obs import ledger as obsledger
from repro.obs.log import get_logger
from repro.pql.analysis import CompiledQuery, compile_query
from repro.pql.parser import parse
from repro.pql.udf import FunctionRegistry
from repro.provenance.spill import (
    MANIFEST_FILENAME,
    SpillManager,
    read_manifest,
)
from repro.provenance.store import SealedStoreView

logger = get_logger("serve.catalog")

DEFAULT_PLAN_CACHE_SIZE = 32


class AdmissionError(ProvenanceError):
    """A store failed digest verification (or is not a sealed store)."""

    def __init__(self, directory: str, problems: List[str]):
        self.directory = directory
        self.problems = problems
        summary = problems[0] if problems else "unknown problem"
        more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
        super().__init__(
            f"store {directory} failed admission: {summary}{more}"
        )


def _digest_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class CatalogEntry:
    """One sealed capture held open: its spill handle (whose read
    session is the store), prepared-plan cache, and the lock serializing
    evaluation on it."""

    def __init__(self, run_id: str, directory: str, spill: SpillManager,
                 manifest: Dict[str, Any],
                 plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE) -> None:
        self.run_id = run_id
        self.directory = directory
        self.spill = spill
        self.manifest = manifest
        #: Serializes PQL evaluation against this store: one request
        #: evaluates over a store at a time; requests against *different*
        #: entries run in parallel.
        self.eval_lock = threading.Lock()
        self.functions = FunctionRegistry(None)
        self._plans: "OrderedDict[Tuple[Any, ...], CompiledQuery]" = \
            OrderedDict()
        self._plan_cache_size = plan_cache_size
        self.plan_hits = 0
        self.plan_misses = 0
        self.queries_served = 0
        self.reloads = 0
        manifest_path = os.path.join(directory, MANIFEST_FILENAME)
        self._manifest_path = manifest_path
        self._manifest_mtime_ns = os.stat(manifest_path).st_mtime_ns
        self._manifest_sha = _digest_file(manifest_path)

    @property
    def store(self) -> SealedStoreView:
        """The store's read session."""
        return self.spill.view()

    # ------------------------------------------------------------------
    # prepared plans
    # ------------------------------------------------------------------
    def plan_key(self, query_text: str, params: Optional[Dict[str, Any]],
                 mode: str) -> Tuple[Any, ...]:
        return (
            hashlib.sha256(query_text.encode("utf-8")).hexdigest(),
            obsledger.canonical_json(params or {}),
            mode,
        )

    def prepare(self, query_text: str, params: Optional[Dict[str, Any]],
                mode: str) -> Tuple[CompiledQuery, str]:
        """Compile (or fetch the cached plan for) one query.

        Returns ``(compiled, outcome)`` with outcome ``"hit"`` or
        ``"miss"``. Must be called under :attr:`eval_lock` — the cache
        dict and the store's schema registry are not independently
        locked.
        """
        key = self.plan_key(query_text, params, mode)
        cached = self._plans.get(key)
        if cached is not None:
            self._plans.move_to_end(key)
            self.plan_hits += 1
            return cached, "hit"
        program = parse(query_text)
        if params:
            program = program.bind(**params)
        compiled = compile_query(
            program, registry=self.store.registry, functions=self.functions,
        )
        self._plans[key] = compiled
        if len(self._plans) > self._plan_cache_size:
            self._plans.popitem(last=False)
        self.plan_misses += 1
        return compiled, "miss"

    @property
    def plan_cache_len(self) -> int:
        return len(self._plans)

    # ------------------------------------------------------------------
    # freshness
    # ------------------------------------------------------------------
    def ensure_fresh(self, verify: bool = True) -> bool:
        """Reopen the store if its manifest changed on disk.

        One ``stat`` on the fast path. Returns ``True`` when the entry
        was reloaded (plan cache dropped, spill/store replaced).
        Raises :class:`AdmissionError` if the changed store no longer
        verifies.
        """
        try:
            mtime_ns = os.stat(self._manifest_path).st_mtime_ns
        except FileNotFoundError:
            raise AdmissionError(
                self.directory, [f"{MANIFEST_FILENAME} disappeared"])
        if mtime_ns == self._manifest_mtime_ns:
            return False
        sha = _digest_file(self._manifest_path)
        if sha == self._manifest_sha:
            self._manifest_mtime_ns = mtime_ns
            return False
        with self.eval_lock:
            if verify:
                problems, _details = obsledger.verify_store(self.directory)
                if problems:
                    raise AdmissionError(self.directory, problems)
            spill = SpillManager.open(self.directory)
            spill.view()  # the new session, built before any request
            old, self.spill = self.spill, spill
            old.release_slabs()
            self.manifest = read_manifest(self.directory) or {}
            self._plans.clear()
            self._manifest_mtime_ns = mtime_ns
            self._manifest_sha = sha
            self.reloads += 1
            logger.info("reloaded %s (manifest changed)", self.directory)
        return True

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        store = self.store
        return {
            "run_id": self.run_id,
            "directory": self.directory,
            "layers": store.num_layers,
            "rows": store.num_rows,
            "relations": store.counts(),
            "sealed_bytes": self.spill.total_sealed_bytes(),
            "plan_cache": {
                "size": self.plan_cache_len,
                "hits": self.plan_hits,
                "misses": self.plan_misses,
            },
            "queries_served": self.queries_served,
            "reloads": self.reloads,
        }


class RunCatalog:
    """All currently-served captures, keyed by run id.

    Thread-safe: registration is guarded by one lock; lookups read a dict
    that is only ever mutated under it. Enforces one open handle per
    store directory — re-registering a path returns the existing entry.
    """

    def __init__(self, data_dir: Optional[str] = None, *,
                 verify: bool = True,
                 plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE) -> None:
        self._data_dir = data_dir
        self.verify = verify
        self._plan_cache_size = plan_cache_size
        self._lock = threading.Lock()
        self._by_id: Dict[str, CatalogEntry] = {}
        self._by_path: Dict[str, CatalogEntry] = {}
        self._upload_seq = 0

    # ------------------------------------------------------------------
    def register_path(self, directory: str) -> Tuple[CatalogEntry, bool]:
        """Admit one sealed store; returns ``(entry, created)``.

        Verification (slab digests vs manifest) happens *before* the
        store is opened, so a tampered capture never reaches the catalog.
        """
        directory = os.path.abspath(directory)
        with self._lock:
            existing = self._by_path.get(directory)
            if existing is not None:
                return existing, False
            if self.verify:
                problems, _details = obsledger.verify_store(directory)
                if problems:
                    raise AdmissionError(directory, problems)
            try:
                spill = SpillManager.open(directory)
            except ProvenanceError as exc:
                raise AdmissionError(directory, [str(exc)])
            manifest = read_manifest(directory) or {}
            run_id = spill.run_id or "r" + obsledger.manifest_digest(
                {str(k): dict(v)
                 for k, v in manifest.get("slabs", {}).items()}
            )[:16]
            if run_id in self._by_id:
                # Same capture registered from a copied directory: the
                # run id is content-derived, so serve the original handle.
                entry = self._by_id[run_id]
                self._by_path[directory] = entry
                return entry, False
            store = spill.view()
            entry = CatalogEntry(
                run_id, directory, spill, manifest,
                plan_cache_size=self._plan_cache_size,
            )
            self._by_id[run_id] = entry
            self._by_path[directory] = entry
            logger.info("admitted %s as %s (%d layers, %d rows)",
                        directory, run_id, store.num_layers, store.num_rows)
            return entry, True

    def register_upload(self, tar_bytes: bytes) -> Tuple[CatalogEntry, bool]:
        """Admit a store streamed as an uncompressed/gzip tar of slab
        files. Members are extracted flat (basenames only) into a fresh
        directory under the catalog's data dir; absolute names, parent
        traversal, and non-regular members are rejected."""
        with self._lock:
            self._upload_seq += 1
            seq = self._upload_seq
            if self._data_dir is None:
                self._data_dir = tempfile.mkdtemp(prefix="repro-serve-")
            data_dir = self._data_dir
        target = os.path.join(data_dir, f"upload-{seq:04d}")
        os.makedirs(target, exist_ok=True)
        try:
            with tarfile.open(fileobj=io.BytesIO(tar_bytes)) as tar:
                for member in tar.getmembers():
                    if not member.isreg():
                        continue
                    name = member.name
                    if name.startswith("/") or ".." in name.split("/"):
                        raise AdmissionError(
                            target, [f"unsafe tar member name {name!r}"])
                    base = os.path.basename(name)
                    if not base:
                        continue
                    source = tar.extractfile(member)
                    if source is None:
                        continue
                    with open(os.path.join(target, base), "wb") as out:
                        out.write(source.read())
        except tarfile.TarError as exc:
            raise AdmissionError(target, [f"unreadable tar: {exc}"])
        return self.register_path(target)

    # ------------------------------------------------------------------
    def get(self, run_id: str) -> Optional[CatalogEntry]:
        return self._by_id.get(run_id)

    def entries(self) -> List[CatalogEntry]:
        with self._lock:
            return sorted(self._by_id.values(), key=lambda e: e.run_id)

    def __len__(self) -> int:
        return len(self._by_id)

    def describe(self) -> List[Dict[str, Any]]:
        return [entry.describe() for entry in self.entries()]
