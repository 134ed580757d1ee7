"""Layer spilling — the stand-in for Ariadne's HDFS offload.

When the captured provenance graph exceeds available memory the paper's
prototype offloads it to HDFS while the analytic is still running, and
layered offline evaluation later streams it back one layer at a time.
:class:`SpillManager` reproduces the mechanism on the local filesystem:
each layer is sealed into a per-superstep slab file as soon as its
superstep completes (plus a static slab for time-less relations and
schemas), and the offline runtimes stream them back — one layer at a time
for layered evaluation, all at once for naive (see
``repro.runtime.offline.run_layered_from_spill`` /
``run_naive_from_spill``, whose memory budgets reproduce the paper's
observation that naive whole-graph loading fails where layered evaluation
proceeds). What matters for fidelity is the slabs' size and their
layer-at-a-time access pattern, not whether they are written in the
background.

There is one write path:

* **Synchronous, atomic seals**: a seal encodes, hashes and writes its
  slab on the calling thread, inside a ``spill-seal`` span, writing
  ``<slab>.tmp`` and renaming it over the slab (:func:`_write_slab`). A
  seal that fails raises :class:`ProvenanceError` naming the slab at that
  call, removes the ``.tmp`` file and leaves the slab it would have
  replaced, if any, as it was.
* **Columnar ARSC slabs** (:mod:`repro.provenance.columnar`), the one slab
  format: per-relation, per-column typed segments behind an offset-indexed
  footer, zlib-compressed per segment. Stores sealed uncompressed by
  earlier releases still open and query; :meth:`SpillManager.open`
  reports the codec their footers carry.

There is one read path too: a sealed store is read as a
:class:`~repro.provenance.store.SealedStoreView` (:func:`open_store_view`),
the same :class:`~repro.provenance.store.Relations` container as the
in-memory store, whose layers are the slabs' relations. It mmaps the slabs
and decodes only the columns a query touches, which is what makes sealed
captures larger than RAM queryable. A manager holds one such view, its
read session (:meth:`SpillManager.view`): every query over the manager
reads through it, so a segment is decoded once per session, not once per
query. :func:`rebuild_store` copies the
view's columns into an in-memory store, and :func:`migrate_store`
re-encodes each of its slabs.

Stores sealed by earlier releases in a retired format (framed-pickle ARSL
slabs, bare-pickle slabs) are refused at :meth:`SpillManager.open` with an
error naming the format; no reader for them is left. ``repro store migrate
<dir>`` (:func:`migrate_store`) re-encodes an ARSC store with this
release's codec.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.errors import ProvenanceError
from repro.obs.log import get_logger
from repro.obs.metrics import BYTES_BUCKETS, SECONDS_BUCKETS, get_registry
from repro.obs.trace import PHASE_SPILL, get_tracer
from repro.provenance.columnar import (
    ColumnarSlab,
    encode_columnar_slab,
    is_columnar,
    validate_columnar_file,
)
from repro.provenance.store import (
    Layer, ProvenanceStore, Relations, SealedStoreView,
)

logger = get_logger("provenance.spill")

#: The codec every sealed ARSC segment is written with.
SLAB_COMPRESSION = "zlib"

#: The one slab format, as stamped into manifests, ledger fingerprints and
#: query stats.
SLAB_FORMAT = "columnar"

#: Magic of the retired framed-pickle slabs; recognized only so the open
#: error can name the format (nothing decodes them any more).
ARSL_MAGIC = b"ARSL"

#: Store manifest: per-slab content hashes stamped at seal time, the basis
#: for ``repro audit verify`` (see ``repro.obs.ledger``).
MANIFEST_FILENAME = "manifest.json"
MANIFEST_VERSION = 1

#: The static slab's meta chunk key; ``\x00`` cannot start a relation name.
_META_KEY = "\x00meta"

_RATIO_BUCKETS: Tuple[float, ...] = (
    1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0,
)

class _SpillMetrics:
    """Resolved metric handles for one registry.

    Label resolution (``registry.counter(...).labels(...)``) costs a dict
    walk per call; slab operations happen per superstep, so the handles are
    resolved once and cached per registry (tests swap registries via
    ``set_registry``, hence the identity check in :func:`_spill_metrics`).
    """

    __slots__ = (
        "write_ops", "write_bytes", "write_slab", "raw_bytes",
        "seal_seconds", "compression_ratio",
    )

    def __init__(self, registry: Any) -> None:
        ops = registry.counter(
            "repro_spill_ops_total", "slab seal operations",
            labels=("direction",),
        )
        moved = registry.counter(
            "repro_spill_bytes_total", "slab bytes moved", labels=("direction",),
        )
        slab = registry.histogram(
            "repro_spill_slab_bytes", "slab size", labels=("direction",),
            boundaries=BYTES_BUCKETS,
        )
        self.write_ops = ops.labels("write")
        self.write_bytes = moved.labels("write")
        self.write_slab = slab.labels("write")
        self.raw_bytes = registry.counter(
            "repro_spill_raw_bytes_total",
            "pre-compression bytes of sealed slabs",
        )
        self.seal_seconds = registry.histogram(
            "repro_spill_seal_seconds",
            "encode+write latency per sealed slab",
            boundaries=SECONDS_BUCKETS,
        )
        self.compression_ratio = registry.histogram(
            "repro_spill_compression_ratio",
            "raw/compressed ratio per sealed slab",
            boundaries=_RATIO_BUCKETS,
        )

    def count_write(self, size: int) -> None:
        self.write_ops.inc()
        self.write_bytes.inc(size)
        self.write_slab.observe(size)


_metrics_cache: Tuple[Optional[Any], Optional[_SpillMetrics]] = (None, None)


def _spill_metrics() -> _SpillMetrics:
    """The cached handle set for the process registry (satellite fix for
    the old ``_count_spill``, which re-resolved labels on every slab op)."""
    global _metrics_cache
    registry = get_registry()
    cached_registry, metrics = _metrics_cache
    if metrics is None or cached_registry is not registry:
        metrics = _SpillMetrics(registry)
        _metrics_cache = (registry, metrics)
    return metrics


class SpillManager:
    """Seals completed provenance layers out of memory into slab files."""

    def __init__(
        self, store: ProvenanceStore, directory: Optional[str] = None,
    ) -> None:
        self.store = store
        self._own_dir = directory is None
        # False for a manager re-attached by open(): close() then leaves
        # the sealed store on disk
        self._owns_slabs = True
        self.directory = directory or tempfile.mkdtemp(prefix="repro-spill-")
        os.makedirs(self.directory, exist_ok=True)
        #: Segment codec of this store's slabs: what this manager writes,
        #: or — for a reopened store — what its static slab's footer says.
        self.compression = SLAB_COMPRESSION
        self._slabs: Dict[int, str] = {}
        self._static_path: Optional[str] = None
        self.bytes_spilled = 0
        # The read session (view()) and the open mmap handles under it
        # (key: superstep or "static"), which keep what they decode.
        # ``release_epoch`` counts release_slabs() calls so a view held
        # past one can tell its handles were closed and fetch fresh ones.
        self._session: Optional[SealedStoreView] = None
        self._open_slabs: Dict[Any, ColumnarSlab] = {}
        self.release_epoch = 0
        #: Run id a migration rewrote this store under (manifest bookkeeping
        #: only; set by :func:`migrate_store`).
        self.migrated_from: Optional[str] = None
        # Per-slab content hashes (basename -> {"sha256", "bytes"}),
        # computed at each seal while the blob is still in memory and
        # stamped into MANIFEST_FILENAME by seal_all(). Re-seals overwrite
        # their entry.
        self.slab_digests: Dict[str, Dict[str, Any]] = {}
        #: Run id of the capture that sealed this store (set by the caller
        #: before seal_all; read back by :meth:`open` for ledger parent
        #: links on query runs).
        self.run_id: Optional[str] = None
        # Serializes the read path (the session build and the slab opens
        # under it) so one manager can be shared across
        # threads — the query server's catalog holds each sealed store's
        # session and its worker threads may read concurrently. Sealing
        # remains single-threaded by contract (one capture owns the
        # manager). Re-entrant: building the session opens slabs.
        self._read_lock = threading.RLock()

    @classmethod
    def open(cls, directory: str) -> "SpillManager":
        """Re-attach to a directory sealed by a previous process (the CLI's
        persistent store format). The returned manager serves the store's
        readers but is not meant for further sealing, and its
        :meth:`close` removes nothing."""
        manager = cls(ProvenanceStore(), directory=directory)
        manager._owns_slabs = False
        manager._static_path, manager._slabs = slab_paths(directory)
        # Structurally validate every slab up front so a retired-format,
        # truncated or corrupt file surfaces here as a clear
        # ProvenanceError naming the format and path, not as a raw
        # struct.error/EOFError deep inside the first query.
        for path in [manager._static_path, *manager._slabs.values()]:
            check_slab(path)
        # Report the codec on disk, not the one this release writes: a
        # store sealed uncompressed must fingerprint as such.
        with ColumnarSlab(manager._static_path) as static:
            manager.compression = static.compression
        manifest = read_manifest(directory)
        if manifest is not None:
            manager.slab_digests = {
                str(k): dict(v) for k, v in manifest.get("slabs", {}).items()
            }
            manager.run_id = manifest.get("run_id")
        return manager

    def slab_path(self, superstep: int) -> str:
        return os.path.join(self.directory, f"layer-{superstep:06d}.slab")

    # ------------------------------------------------------------------
    # sealing
    # ------------------------------------------------------------------
    def _seal(self, key: Any, path: str) -> int:
        """Seal one slab (``key`` is a superstep, or ``"static"``) on the
        calling thread, inside a ``spill-seal`` span, and account for it;
        returns its byte size."""
        self._end_session()
        with get_tracer().span("spill-seal", PHASE_SPILL, layer=key) as span:
            start = time.perf_counter()
            chunks = (_static_chunks(self.store) if key == "static"
                      else self.store.layer_columns(key))
            size, raw, digest = _write_slab(path, chunks)
            seconds = time.perf_counter() - start
            span.set(bytes=size, raw_bytes=raw)
        self.bytes_spilled += size
        self.slab_digests[os.path.basename(path)] = {
            "sha256": digest, "bytes": size,
        }
        metrics = _spill_metrics()
        metrics.count_write(size)
        metrics.raw_bytes.inc(raw)
        metrics.seal_seconds.observe(seconds)
        if size:
            metrics.compression_ratio.observe(raw / size)
        return size

    def seal_layer(self, superstep: int) -> int:
        """Write one layer to its slab; returns the slab's byte size.
        Re-sealing a superstep replaces its slab, so late rows just cost
        one more write.

        The in-memory store keeps the layer (the capture's result still
        holds the store); what sealing models is the *capture path*: how
        many bytes had to be moved to storage.
        """
        path = self.slab_path(superstep)
        size = self._seal(superstep, path)
        self._slabs[superstep] = path
        return size

    def seal_static(self) -> int:
        """Write the static slab; returns its byte size."""
        path = os.path.join(self.directory, "static.slab")
        size = self._seal("static", path)
        self._static_path = path
        return size

    def seal_all(self) -> int:
        """Seal the static slab and every not-yet-sealed layer, stamp the
        manifest, and return the total on-disk bytes of the sealed store.

        Layers already sealed (eagerly, during the run) are assumed
        current — the online wrapper re-seals any layer that gains rows
        after its first seal; call :meth:`seal_layer` to force a refresh.
        """
        self.seal_static()
        for superstep in range(self.store.num_layers):
            if superstep not in self._slabs:
                self.seal_layer(superstep)
        self.write_manifest()
        total = self.total_sealed_bytes()
        logger.debug(
            "sealed %d layer(s) + static, %d bytes -> %s",
            self.store.num_layers, total, self.directory,
        )
        return total

    def write_manifest(self) -> str:
        """Stamp the per-slab content hashes (and the producing run id, if
        set) into ``manifest.json``. Called by :meth:`seal_all`; callable
        again after setting :attr:`run_id` to re-stamp without re-sealing."""
        path = os.path.join(self.directory, MANIFEST_FILENAME)
        manifest = {
            "manifest_version": MANIFEST_VERSION,
            "run_id": self.run_id,
            "compression": self.compression,
            "format": SLAB_FORMAT,
            "slabs": {name: self.slab_digests[name]
                      for name in sorted(self.slab_digests)},
        }
        if self.migrated_from is not None:
            manifest["migrated_from"] = self.migrated_from
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return path

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def _slab_file(self, key: Any) -> str:
        """Path of one sealed slab (``key`` is a superstep, or
        ``"static"``)."""
        path = self._static_path if key == "static" else self._slabs.get(key)
        if path is None:
            raise ProvenanceError(f"slab {key!r} was never sealed")
        return path

    def sealed_layers(self) -> Iterator[int]:
        return iter(sorted(self._slabs))

    def view(self) -> SealedStoreView:
        """This manager's read session: one
        :class:`~repro.provenance.store.SealedStoreView`, built on first
        use (the footer reads, a ``store-open`` span) and shared by every
        query over the manager, whose slab handles keep what they decode.
        :meth:`release_slabs` and a seal end it; the next call builds a
        fresh one."""
        with self._read_lock:
            session = self._session
            if session is None:
                with get_tracer().span("store-open", PHASE_SPILL,
                                       slabs=len(self._slabs) + 1):
                    session = SealedStoreView(self)
                self._session = session
            return session

    def open_columnar_slab(self, key: Any) -> ColumnarSlab:
        """A shared mmap handle for one columnar slab (``key`` is a
        superstep, or ``"static"``). Opening reads only the footer; the
        handle memoizes everything it decodes until :meth:`release_slabs`."""
        with self._read_lock:
            slab = self._open_slabs.get(key)
            if slab is None:
                slab = self._open_slabs[key] = ColumnarSlab(
                    self._slab_file(key))
            return slab

    def release_slabs(self) -> None:
        """End the read session: close every slab handle (drops their
        mmaps and decode state). Views held past this notice through
        :attr:`release_epoch` and re-fetch."""
        with self._read_lock:
            for slab in self._open_slabs.values():
                slab.close()
            self._open_slabs.clear()
            self._session = None
            self.release_epoch += 1

    def _end_session(self) -> None:
        """A seal rewrites a slab file: drop the handles mapping it."""
        if self._open_slabs:
            self.release_slabs()

    def layer_size(self, superstep: int) -> int:
        """On-disk bytes of one sealed layer slab."""
        return os.path.getsize(self._slab_file(superstep))

    def total_sealed_bytes(self) -> int:
        """On-disk bytes of every sealed slab (static + layers)."""
        total = 0
        if self._static_path is not None:
            total += os.path.getsize(self._static_path)
        for path in self._slabs.values():
            total += os.path.getsize(path)
        return total

    def close(self) -> None:
        """Release the slab handles and — unless the manager was
        re-attached with :meth:`open` — remove the slab files.

        Tolerates a partially-sealed directory: already-deleted files and
        foreign files in the directory are fine."""
        self.release_slabs()
        if self._owns_slabs:
            self._remove_slabs()

    def _remove_slabs(self) -> None:
        paths = list(self._slabs.values())
        if self._static_path is not None:
            paths.append(self._static_path)
        if self.slab_digests or self.run_id is not None:
            paths.append(os.path.join(self.directory, MANIFEST_FILENAME))
        for path in paths:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - best effort cleanup
                pass
        self._slabs.clear()
        self._static_path = None
        self.slab_digests.clear()
        if self._own_dir:
            try:
                os.rmdir(self.directory)
            except OSError:  # pragma: no cover - best effort cleanup
                pass

    def __enter__(self) -> "SpillManager":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def migrate_store(
    directory: str, *, run_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Re-encode a sealed store's slabs in place with this release's codec
    (zlib ARSC) — a store sealed raw by an earlier release, or half
    migrated, is simply finished.

    The store is opened first, so a slab in a retired format (or a corrupt
    one) is refused exactly as :meth:`SpillManager.open` refuses it,
    before any file is touched. Each slab is re-encoded from the store
    view's column copy of its layer and written as a seal writes it
    (:func:`_write_slab`); then the manifest is re-stamped with
    the new digests and — when ``run_id`` is given — the migrating run's
    id, with ``migrated_from`` pointing at the original capture's run id.
    The caller (``repro store migrate``) appends a ledger record
    parent-linked to the old run so ``repro audit verify`` can resolve the
    re-stamped manifest; see :mod:`repro.obs.ledger`.

    Returns a report: per-slab formats and sizes before/after, plus the
    reopened manager (``"spill"``) for fingerprinting.
    """
    before = SpillManager.open(directory)
    view = open_store_view(before)
    slabs_report: Dict[str, Dict[str, Any]] = {}
    digests: Dict[str, Dict[str, Any]] = {}
    try:
        for key, path in [(None, before._static_path),
                          *before._slabs.items()]:
            chunks = (_static_chunks(view) if key is None
                      else view.layer_columns(key))
            size = os.path.getsize(path)
            after, _raw, digest = _write_slab(path, chunks)
            name = os.path.basename(path)
            digests[name] = {"sha256": digest, "bytes": after}
            slabs_report[name] = {
                "from_format": SLAB_FORMAT,
                "bytes_before": size, "bytes_after": after,
            }
            before.release_slabs()  # hold one slab's decode at a time
    finally:
        view.close()
    spill = SpillManager.open(directory)
    old_run_id = spill.run_id
    spill.slab_digests = digests
    if run_id is not None:
        spill.migrated_from = old_run_id
        spill.run_id = run_id
    spill.write_manifest()
    logger.info("migrated %d slab(s) in %s to ARSC", len(digests), directory)
    return {
        "directory": directory,
        "compression": spill.compression,
        "from_run_id": old_run_id,
        "run_id": spill.run_id,
        "slabs": slabs_report,
        "bytes_before": sum(s["bytes_before"] for s in slabs_report.values()),
        "bytes_after": sum(s["bytes_after"] for s in slabs_report.values()),
        "spill": spill,
    }


def _write_slab(path: str, chunks: Dict[str, Any]) -> Tuple[int, int, str]:
    """Encode ``chunks`` as one zlib ARSC slab and write it to ``path``
    atomically: the blob goes to ``path + ".tmp"``, which is then renamed
    over ``path``, so a reader or a crash sees the old slab or the new one,
    never a torn one. Returns ``(bytes, pre-compression bytes, sha256)``;
    the digest is taken while the blob is in memory, so the manifest's
    hash is nearly free.

    A failed encode or write raises :class:`ProvenanceError` naming the
    slab, after removing the ``.tmp`` file; ``path`` is left as it was."""
    tmp = path + ".tmp"
    try:
        blob, raw = encode_columnar_slab(
            chunks, SLAB_COMPRESSION, meta_key=_META_KEY,
        )
        digest = hashlib.sha256(blob).hexdigest()
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, Exception):
            raise ProvenanceError(f"cannot seal slab {path}: {exc}") from exc
        raise
    return len(blob), raw, digest


def slab_paths(directory: str) -> Tuple[str, Dict[int, str]]:
    """``(static slab path, {superstep: layer slab path})`` of a sealed
    store directory."""
    static = os.path.join(directory, "static.slab")
    if not os.path.exists(static):
        raise ProvenanceError(
            f"{directory} does not contain a sealed provenance store"
        )
    layers: Dict[int, str] = {}
    for name in sorted(os.listdir(directory)):
        if name.startswith("layer-") and name.endswith(".slab"):
            superstep = int(name[len("layer-"):-len(".slab")])
            layers[superstep] = os.path.join(directory, name)
    return static, layers


def check_slab(path: str) -> None:
    """Cheap structural check of one slab file (a few bytes plus the ARSC
    trailer). Raises :class:`ProvenanceError` naming the format and path
    when the file is empty, truncated, carries a corrupt footer, or is in
    a retired format — the read-side contract :meth:`SpillManager.open`
    relies on."""
    try:
        with open(path, "rb") as fh:
            prefix = fh.read(4)
    except OSError as exc:
        raise ProvenanceError(f"slab {path}: unreadable: {exc}") from None
    if not prefix:
        raise ProvenanceError(f"slab {path}: empty file")
    if is_columnar(prefix):
        validate_columnar_file(path)
        return
    retired = (
        "framed-pickle (ARSL)" if prefix == ARSL_MAGIC
        else "legacy bare-pickle"
    )
    raise ProvenanceError(
        f"slab {path} is in the retired {retired} format, which this "
        "release cannot read; re-capture the store, or rewrite it as "
        "columnar (ARSC) with an earlier release's `repro store migrate`"
    )


def read_manifest(directory: str) -> Optional[Dict[str, Any]]:
    """Load a store's seal-time manifest; ``None`` when the store predates
    manifests (or was never sealed via :meth:`SpillManager.seal_all`)."""
    path = os.path.join(directory, MANIFEST_FILENAME)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ProvenanceError(f"{path}: corrupt store manifest: {exc}") \
            from None
    if not isinstance(manifest, dict):
        raise ProvenanceError(f"{path}: corrupt store manifest: not an object")
    return manifest


def open_store_view(spill: SpillManager) -> SealedStoreView:
    """The read session over a sealed store (:meth:`SpillManager.view`)."""
    return spill.view()


def rebuild_store(spill: SpillManager) -> ProvenanceStore:
    """Copy every slab back into a fresh in-memory store (the
    whole provenance graph materialized at once): each of the store
    view's layers becomes a :class:`~repro.provenance.store.Layer` of its
    columns, as lists.

    Relations come in the order the static slab's schemas list them — the
    sealed store's own — and each one's rows in slab order, so sealing the
    rebuilt store writes the same bytes again."""
    view = open_store_view(spill)
    try:
        store = ProvenanceStore(view.registry)
        for relation in view.relations():
            for batch in view.column_batches(relation):
                store.put(relation, batch.key, Layer.of(batch.snapshot()))
    finally:
        view.close()
    return store


def _static_chunks(store: Relations) -> Dict[str, Any]:
    """The static slab of ``store`` (a capture store, or a sealed store's
    view), as slab chunks: the time-less relations (e.g. Query 11's
    prov_edges) plus the relation schemas and layer count."""
    chunks: Dict[str, Any] = store.layer_columns(None)
    chunks[_META_KEY] = {
        "schemas": {
            name: store.registry.get(name) for name in store.relations()
        },
        "num_layers": store.num_layers,
    }
    return chunks
