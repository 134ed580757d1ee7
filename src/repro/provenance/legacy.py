"""Retired slab formats: their decoders and the one-way migration to ARSC.

Two slab formats predate the columnar ARSC slabs of
:mod:`repro.provenance.columnar`: framed pickles (magic ``ARSL`` —
length-prefixed, individually compressed per-relation pickle chunks) and,
before those, one bare pickle per slab file. Nothing writes them any more,
and :meth:`SpillManager.open` refuses stores that still contain them. This
module is the only reader left; ``repro store migrate`` imports it lazily
and nothing else may — it unpickles whole slab payloads, so it must stay
off every path that opens a store someone else supplied (the query
server's upload admission goes through :meth:`SpillManager.open`).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import zlib
from typing import Any, Dict, Optional

from repro.errors import ProvenanceError
from repro.obs.log import get_logger
from repro.provenance.columnar import (
    ColumnarSlab,
    encode_columnar_slab,
    is_columnar,
)
from repro.provenance.spill import (
    _META_KEY,
    ARSL_MAGIC,
    SLAB_COMPRESSION,
    SLAB_FORMAT,
    SpillManager,
    slab_paths,
)

logger = get_logger("provenance.legacy")

_U32 = struct.Struct("<I")
_FRAME_VERSION = 1
#: ARSL frame-header compression codes.
_DECOMPRESSORS = {0: None, 1: zlib.decompress}


def _decode_framed(data: bytes) -> Dict[str, Any]:
    """Decode an ARSL slab: a 10-byte header (magic, version, compression
    code, chunk count) followed by length-prefixed (key, payload) pairs."""
    version, code = data[4], data[5]
    if version != _FRAME_VERSION:
        raise ValueError(f"unsupported frame version {version}")
    if code not in _DECOMPRESSORS:
        raise ValueError(f"unsupported compression code {code}")
    decompress = _DECOMPRESSORS[code]
    (nchunks,) = _U32.unpack_from(data, 6)
    chunks: Dict[str, Any] = {}
    offset = 10
    for _ in range(nchunks):
        (key_len,) = _U32.unpack_from(data, offset)
        offset += 4
        key = data[offset:offset + key_len].decode("utf-8")
        offset += key_len
        (payload_len,) = _U32.unpack_from(data, offset)
        offset += 4
        payload = data[offset:offset + payload_len]
        offset += payload_len
        if decompress is not None:
            payload = decompress(payload)
        chunks[key] = pickle.loads(payload)
    return chunks


def decode_retired_slab(path: str, data: bytes, static: bool) -> Dict[str, Any]:
    """One ARSL or bare-pickle slab as sealing-time chunks (``relation ->
    vertex -> set(rows)``, plus the meta entry for the static slab)."""
    try:
        if data[:4] == ARSL_MAGIC:
            return _decode_framed(data)
        payload = pickle.loads(data)
        if not static:
            return payload  # a bare-pickle layer file is chunk-shaped
        # ... and a bare-pickle static file is load_static()'s return shape
        chunks = dict(payload["relations"])
        chunks[_META_KEY] = {
            "schemas": payload["schemas"],
            "num_layers": payload["num_layers"],
        }
        return chunks
    except (struct.error, EOFError, UnicodeDecodeError, zlib.error,
            pickle.UnpicklingError, ValueError, IndexError, KeyError,
            TypeError) as exc:
        raise ProvenanceError(
            f"retired-format slab {path}: corrupt or truncated: {exc}"
        ) from None


def migrate_store(
    directory: str, *, run_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Rewrite a sealed store's slabs in place as zlib ARSC.

    Every slab (static + layers, whatever its current format or codec — so
    a half-migrated directory is simply finished) is fully decoded and
    re-encoded with an atomic per-file rename; then the manifest is
    re-stamped with the new digests and — when ``run_id`` is given — the
    migrating run's id, with ``migrated_from`` pointing at the original
    capture's run id. The caller (``repro store migrate``) appends a
    ledger record parent-linked to the old run so ``repro audit verify``
    can resolve the re-stamped manifest; see :mod:`repro.obs.ledger`.

    Returns a report: per-slab formats and sizes before/after, plus the
    reopened manager (``"spill"``) for fingerprinting.
    """
    static, layers = slab_paths(directory)
    slabs_report: Dict[str, Dict[str, Any]] = {}
    digests: Dict[str, Dict[str, Any]] = {}
    for path in [static, *layers.values()]:
        with open(path, "rb") as fh:
            data = fh.read()
        if is_columnar(data):
            from_format = SLAB_FORMAT
            with ColumnarSlab(path, data=data) as slab:
                chunks = slab.to_chunks(_META_KEY)
        else:
            from_format = "pickle" if data[:4] == ARSL_MAGIC else "legacy"
            chunks = decode_retired_slab(path, data, static=path is static)
        blob, _raw = encode_columnar_slab(
            chunks, SLAB_COMPRESSION, meta_key=_META_KEY,
        )
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
        name = os.path.basename(path)
        digests[name] = {
            "sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob),
        }
        slabs_report[name] = {
            "from_format": from_format,
            "bytes_before": len(data), "bytes_after": len(blob),
        }
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
