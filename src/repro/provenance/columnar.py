"""ARSC — the columnar sealed-slab format for out-of-core queries.

Every sealed slab (one per superstep layer, plus the static slab of
time-less relations and schemas, :mod:`repro.provenance.spill`) stores
each relation as *per-column typed segments* behind an offset-indexed
footer, so a reader can

* reopen a slab by reading only the footer (mmap + one small unpickle), and
* decode exactly the columns a query plan touches.

The writer takes columns, not rows: the in-memory store already holds
each (relation, layer) as column lists plus a vertex group table
(:class:`~repro.provenance.store.Layer`), and a seal hands those over as
they are (:class:`SlabColumns`). Row-shaped chunks (``relation -> vertex
-> rows``) are accepted too and transposed first.

The reader decodes columns, never rows: a sealed store's reader
(:class:`~repro.provenance.store.ColumnBatch`) zips the column slices it
needs, and a migration re-encodes each relation from its decoded columns.

On-disk layout (all offsets are absolute file offsets)::

    +--------+----------------------------------+--------+---------+
    | header |   column segments (+ dicts)      | footer | trailer |
    +--------+----------------------------------+--------+---------+
    header  = b"ARSC" + version u8 + reserved u8 u16         (8 bytes)
    segment = one column's payload, zlib-compressed when the slab was
              sealed with compression="zlib" (raw = zero-copy mmap reads)
    footer  = zlib-compressed pickle of the slab descriptor (below)
    trailer = struct "<QI4s": footer offset u64, footer length u32, b"ARSC"

The footer descriptor maps ``relation -> {rows, groups, columns, keys}``:
``groups`` is the list of ``(start, count)`` row ranges of the partitions
(vertices) in row order — each vertex's rows are one contiguous range per
slab, vertices in the order their first row reached the store — and the
``keys`` segment lists the vertices in the same order; ``columns`` carries
each column's lane, segment offsets and uncompressed size. The static
slab's meta (schemas + layer count) rides inside the footer, which is what
makes catalog reopen near-zero: schemas are available without touching a
single segment.

Column lanes reuse the capture path's exact-type discipline (PR 6): because
``1 == 1.0 == True`` share a hash, a lane only admits values whose concrete
type it can reproduce *exactly*; anything else falls back to pickle:

========  ===========================================================
``i64``   every value ``type(v) is int`` and within signed 64 bits
``f64``   every value ``type(v) is float`` (NaN bit patterns preserved)
``str``   every value ``type(v) is str``: interned dictionary (unique
          strings, utf-8 with surrogatepass) + u32 code array
``pkl``   everything else — bools, big ints, None, tuples, mixed types
========  ===========================================================
"""

from __future__ import annotations

import mmap
import os
import pickle
import struct
import zlib
from operator import itemgetter
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ProvenanceError
from repro.obs.trace import PHASE_SPILL, get_tracer
from repro.sizemodel import exact_kind

Row = Tuple[Any, ...]

ARSC_MAGIC = b"ARSC"
#: Version 2 adds per-column ``distinct`` counts to the footer. No reader
#: uses them; the writer keeps stamping them so sealed bytes stay stable.
#: Readers accept both versions.
ARSC_VERSION = 2
_READABLE_VERSIONS = (1, 2)

LANE_I64 = "i64"
LANE_F64 = "f64"
LANE_STR = "str"
LANE_PKL = "pkl"

_HEADER = struct.Struct("<4sBBH")   # magic, version, reserved, reserved
_TRAILER = struct.Struct("<QI4s")   # footer offset, footer length, magic
_U32 = struct.Struct("<I")

#: zlib level for segments — same speed-over-size tradeoff as ARSL slabs.
_ZLIB_LEVEL = 1


def _corrupt(path: str, detail: str) -> ProvenanceError:
    return ProvenanceError(f"columnar (ARSC) slab {path}: {detail}")


def _pick_lane(values: Sequence[Any]) -> str:
    """The narrowest lane that reproduces every value's exact type."""
    return _lane_payload(values)[0]


def _lane_payload(values: Sequence[Any]) -> Tuple[str, Optional[bytes]]:
    """:func:`_pick_lane`, with the packed column of a fixed-width lane
    (``None`` for the others): an int column is i64 exactly when it packs
    as signed 64-bit."""
    kind = exact_kind(values)
    if kind is int:
        try:
            return LANE_I64, struct.pack(f"<{len(values)}q", *values)
        except struct.error:  # some value outside i64
            return LANE_PKL, None
    if kind is float:
        return LANE_F64, struct.pack(f"<{len(values)}d", *values)
    if kind is str:
        return LANE_STR, None
    return LANE_PKL, None


def _encode_str_dict(values: Sequence[str]) -> Tuple[bytes, bytes, int]:
    """Dictionary-encode strings: (dict blob, u32 codes blob, #entries)."""
    codes: Dict[str, int] = {}
    code_list: List[int] = []
    for v in values:
        code = codes.get(v)
        if code is None:
            code = codes[v] = len(codes)
        code_list.append(code)
    parts: List[bytes] = [_U32.pack(len(codes))]
    for s in codes:  # insertion order == code order
        raw = s.encode("utf-8", "surrogatepass")
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    dict_blob = b"".join(parts)
    codes_blob = struct.pack(f"<{len(code_list)}I", *code_list)
    return dict_blob, codes_blob, len(codes)


class SlabColumns(NamedTuple):
    """One relation's rows of one slab, as the encoder takes them:
    ``columns`` holds one list per attribute, of which the first ``count``
    values are encoded (a capture may keep appending to the lists while
    the writer encodes), and ``groups`` maps each vertex to its
    ``(start, count)`` row range, in row order, covering the rows."""

    columns: Sequence[List[Any]]
    count: int
    groups: Dict[Any, Tuple[int, int]]

    @classmethod
    def of_rows(cls, by_vertex: Dict[Any, Sequence[Row]]) -> "SlabColumns":
        """``vertex -> rows`` transposed, each vertex's rows in the order
        they iterate; empty partitions are dropped."""
        rows: List[Row] = []
        groups: Dict[Any, Tuple[int, int]] = {}
        for vertex, part in by_vertex.items():
            if part:
                groups[vertex] = (len(rows), len(part))
                rows.extend(part)
        arity = len(rows[0]) if rows else 0
        return cls([list(map(itemgetter(pos), rows)) for pos in range(arity)],
                   len(rows), groups)


def encode_columnar_slab(
    chunks: Dict[str, Any],
    compression: str,
    meta_key: str = "\x00meta",
) -> Tuple[bytes, int]:
    """Encode slab ``chunks`` (``relation ->`` :class:`SlabColumns` or
    ``vertex -> rows``, plus an optional meta entry under ``meta_key``) as
    an ARSC blob.

    Returns ``(blob, raw_bytes)``; ``raw_bytes`` is the pre-compression
    payload total (the compression-ratio numerator).
    """
    compress = compression == "zlib"
    parts: List[bytes] = [_HEADER.pack(ARSC_MAGIC, ARSC_VERSION, 0, 0)]
    cursor = _HEADER.size
    raw_total = 0

    def add_segment(payload: bytes) -> Tuple[Tuple[int, int], str, int]:
        nonlocal cursor, raw_total
        raw_len = len(payload)
        raw_total += raw_len
        comp = "raw"
        if compress:
            payload = zlib.compress(payload, _ZLIB_LEVEL)
            comp = "zlib"
        seg = (cursor, len(payload))
        parts.append(payload)
        cursor += len(payload)
        return seg, comp, raw_len

    relations: Dict[str, Dict[str, Any]] = {}
    meta = None
    for relation, chunk in chunks.items():
        if relation == meta_key:
            meta = chunk
            continue
        if isinstance(chunk, dict):
            chunk = SlabColumns.of_rows(chunk)
        nrows = chunk.count
        columns: List[Dict[str, Any]] = []
        for column in chunk.columns:
            values = column[:nrows]
            lane, payload = _lane_payload(values)
            desc: Dict[str, Any] = {"lane": lane}
            if payload is not None:  # i64, f64
                desc["distinct"] = len(set(values))
            elif lane == LANE_STR:
                dict_blob, payload, count = _encode_str_dict(values)
                seg, comp, raw_len = add_segment(dict_blob)
                desc.update(dict_seg=seg, dict_comp=comp,
                            dict_raw=raw_len, dict_count=count,
                            distinct=count)
            else:
                payload = pickle.dumps(values,
                                       protocol=pickle.HIGHEST_PROTOCOL)
                desc["distinct"] = len(set(values))
            seg, comp, raw_len = add_segment(payload)
            desc.update(seg=seg, comp=comp, raw=raw_len)
            columns.append(desc)
        group_keys = list(chunk.groups)
        groups = list(chunk.groups.values())
        keys_seg, keys_comp, keys_raw = add_segment(
            pickle.dumps(group_keys, protocol=pickle.HIGHEST_PROTOCOL)
        )
        relations[relation] = {
            "rows": nrows, "columns": columns, "groups": groups,
            "keys_seg": keys_seg, "keys_comp": keys_comp,
            "keys_raw": keys_raw,
        }
    footer = {
        "version": ARSC_VERSION,
        "compression": compression,
        "relations": relations,
        "meta": meta,
    }
    footer_payload = zlib.compress(
        pickle.dumps(footer, protocol=pickle.HIGHEST_PROTOCOL), _ZLIB_LEVEL,
    )
    raw_total += len(footer_payload)
    parts.append(footer_payload)
    parts.append(_TRAILER.pack(cursor, len(footer_payload), ARSC_MAGIC))
    return b"".join(parts), raw_total


def is_columnar(prefix: bytes) -> bool:
    """True when a slab's first bytes carry the ARSC magic."""
    return prefix[:4] == ARSC_MAGIC


def validate_columnar_file(path: str) -> None:
    """Cheap structural check (header magic + trailer bounds) used by
    :meth:`SpillManager.open` to fail fast — a few byte reads, no decode.

    Raises :class:`ProvenanceError` naming the format and path on a
    truncated or corrupt slab.
    """
    try:
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            fh.seek(0, 2)
            size = fh.tell()
            if size < _HEADER.size + _TRAILER.size:
                raise _corrupt(path, f"truncated ({size} bytes)")
            fh.seek(size - _TRAILER.size)
            trailer = fh.read(_TRAILER.size)
    except OSError as exc:
        raise _corrupt(path, f"unreadable: {exc}") from None
    if header[:4] != ARSC_MAGIC:
        raise _corrupt(path, "bad header magic")
    footer_off, footer_len, magic = _TRAILER.unpack(trailer)
    if magic != ARSC_MAGIC:
        raise _corrupt(path, "bad trailer magic (truncated write?)")
    if footer_off + footer_len + _TRAILER.size > size:
        raise _corrupt(
            path,
            f"footer range [{footer_off}, {footer_off + footer_len}) "
            f"exceeds file size {size}",
        )


class DecodeCharge:
    """One run's decode account over slab handles it shares.

    A handle decodes each segment once and keeps it, so one read session
    serves many runs, and what a handle has decoded says nothing about
    one run. A run charges each segment the first time *it* reads it —
    decoded now or earlier in the session — to the slab holding it (the
    segment lists come from the footer, :meth:`ColumnarSlab.segments`).
    ``decoded_bytes`` is therefore what the run would decode over cold
    handles, ``peak_slab_bytes`` its largest slab's share (the columnar
    load unit), and ``budget`` bounds that share: the charge that takes
    one slab past it raises :class:`MemoryError`, before the read.
    """

    __slots__ = ("budget", "by_slab", "_seen")

    def __init__(self, budget: Optional[int] = None) -> None:
        self.budget = budget
        self.by_slab: Dict[str, int] = {}
        self._seen: set = set()

    def charge(self, path: str,
               segments: Sequence[Tuple[Any, int]]) -> None:
        """Charge ``segments`` (``(segment, bytes)`` pairs) of the slab at
        ``path``, each once per run."""
        seen = self._seen
        for segment, size in segments:
            key = (path, segment)
            if key in seen:
                continue
            seen.add(key)
            total = self.by_slab[path] = self.by_slab.get(path, 0) + size
            if self.budget is not None and total > self.budget:
                raise MemoryError(
                    f"slab {path} decoded {total} bytes of column segments, "
                    f"exceeding the memory budget ({self.budget})"
                )

    @property
    def decoded_bytes(self) -> int:
        return sum(self.by_slab.values())

    @property
    def peak_slab_bytes(self) -> int:
        return max(self.by_slab.values(), default=0)


class ColumnarSlab:
    """An mmap-backed ARSC slab reader with lazy per-column decode.

    Opening reads only the footer. Everything else — column values and
    group (partition) keys — is decoded on first touch and memoized, for
    the life of the handle. ``decoded_bytes`` accounts the uncompressed
    payload of every segment this handle has decoded; what one run over
    shared handles reads is a :class:`DecodeCharge`'s.
    """

    def __init__(self, path: str, data: Optional[bytes] = None) -> None:
        self.path = path
        self._file = None
        self._mm: Any = None
        if data is None:
            try:
                self._file = open(path, "rb")
                self._mm = mmap.mmap(
                    self._file.fileno(), 0, access=mmap.ACCESS_READ,
                )
            except (OSError, ValueError) as exc:
                if self._file is not None:
                    self._file.close()
                raise _corrupt(path, f"cannot map: {exc}") from None
            data = self._mm  # buffer-protocol reads go straight to the map
        self._buf = data
        size = len(data)
        if size < _HEADER.size + _TRAILER.size:
            self.close()
            raise _corrupt(path, f"truncated ({size} bytes)")
        magic, version, _, _ = _HEADER.unpack_from(data, 0)
        if magic != ARSC_MAGIC:
            self.close()
            raise _corrupt(path, "bad header magic")
        if version not in _READABLE_VERSIONS:
            self.close()
            raise _corrupt(path, f"unsupported version {version}")
        try:
            footer_off, footer_len, tmagic = _TRAILER.unpack_from(
                data, size - _TRAILER.size,
            )
            if tmagic != ARSC_MAGIC:
                raise _corrupt(path, "bad trailer magic (truncated write?)")
            if footer_off + footer_len + _TRAILER.size > size:
                raise _corrupt(path, "footer range exceeds file size")
            footer = pickle.loads(
                zlib.decompress(bytes(data[footer_off:footer_off + footer_len]))
            )
        except ProvenanceError:
            self.close()
            raise
        except (struct.error, zlib.error, pickle.UnpicklingError, EOFError,
                ValueError, KeyError) as exc:
            self.close()
            raise _corrupt(path, f"corrupt footer: {exc}") from None
        self._footer = footer
        self._relations: Dict[str, Dict[str, Any]] = footer["relations"]
        self.compression: str = footer.get("compression", "raw")
        self.on_disk_bytes = size
        self.decoded_bytes = 0
        # memoized decode state, keyed so repeated touches are free
        self._buffers: Dict[Tuple[str, Any], Any] = {}
        self._columns: Dict[Tuple[str, int], Tuple[Any, ...]] = {}
        self._str_dicts: Dict[Tuple[str, int], List[str]] = {}
        self._groups: Dict[str, Dict[Any, Tuple[int, int]]] = {}
        # typed zero-copy vectors (memoryview casts) for the batch kernels
        self._vectors: Dict[Tuple[str, int], Any] = {}
        # memoized per-relation lane tuples (footer-only, immutable)
        self._lanes: Dict[str, Tuple[str, ...]] = {}
        # each str column's dictionary as string -> code
        self._dict_codes: Dict[Tuple[str, int], Dict[str, int]] = {}

    # -- footer-only accessors (no segment decode) ----------------------
    @property
    def meta(self) -> Any:
        """The static slab's meta payload (schemas, layer count)."""
        return self._footer.get("meta")

    def relations(self) -> List[str]:
        return list(self._relations)

    def has_relation(self, relation: str) -> bool:
        return relation in self._relations

    def row_count(self, relation: str) -> int:
        desc = self._relations.get(relation)
        return desc["rows"] if desc is not None else 0

    def total_rows(self) -> int:
        return sum(d["rows"] for d in self._relations.values())

    def arity(self, relation: str) -> int:
        return len(self._relations[relation]["columns"])

    def lanes(self, relation: str) -> Tuple[str, ...]:
        """Per-column lane names (memoized — batch construction asks per
        partition, the footer answer never changes)."""
        lanes = self._lanes.get(relation)
        if lanes is None:
            lanes = self._lanes[relation] = tuple(
                c["lane"] for c in self._relations[relation]["columns"]
            )
        return lanes

    def raw_bytes(self, relation: Optional[str] = None) -> int:
        """Uncompressed payload bytes (all relations, or one) — the cost of
        decoding everything, known without decoding anything."""
        descs = (
            self._relations.values() if relation is None
            else [self._relations[relation]]
        )
        total = 0
        for desc in descs:
            for col in desc["columns"]:
                total += col["raw"] + col.get("dict_raw", 0)
        return total

    def segments(self, relation: str) -> Tuple[
            List[Tuple[Any, int]], List[List[Tuple[Any, int]]]]:
        """What each read of ``relation`` decodes, from the footer, as
        ``(segment, bytes)`` lists (what a :class:`DecodeCharge` takes):
        the group table's (none for a relation without rows), and per
        column its values' — a str lane's codes, then its dictionary."""
        desc = self._relations[relation]
        keys = ([((relation, "keys"), desc["keys_raw"])] if desc["groups"]
                else [])
        columns = []
        for pos, col in enumerate(desc["columns"]):
            segments = [((relation, pos), col["raw"])]
            if col["lane"] == LANE_STR:
                segments.append(((relation, ("dict", pos)), col["dict_raw"]))
            columns.append(segments)
        return keys, columns

    # -- lazy decode ----------------------------------------------------
    def _decoding(self, relation: str, segment: str) -> Any:
        """The ``slab-decode`` span around one segment's first decode."""
        return get_tracer().span(
            "slab-decode", PHASE_SPILL, slab=os.path.basename(self.path),
            relation=relation, segment=segment)

    def _segment(self, key: Tuple[str, Any], seg: Tuple[int, int],
                 comp: str, raw_len: int) -> Any:
        """The (decompressed) buffer of one segment; raw-mode segments stay
        zero-copy views into the map. Accounts ``raw_len`` on first touch.

        A segment must decode to exactly the ``raw_len`` bytes its footer
        declares: inflation stops one byte past that, so a lying footer can
        neither allocate without bound nor under-charge ``decoded_bytes``.
        """
        buf = self._buffers.get(key)
        if buf is None:
            off, length = seg
            complete = True
            try:
                if comp == "zlib":
                    inflater = zlib.decompressobj()
                    # max_length=0 means "unlimited", hence the + 1
                    buf = inflater.decompress(
                        bytes(self._buf[off:off + length]), raw_len + 1)
                    complete = inflater.eof
                else:
                    buf = memoryview(self._buf)[off:off + length]
            except (zlib.error, ValueError) as exc:
                raise _corrupt(
                    self.path, f"corrupt segment at {off}: {exc}"
                ) from None
            if len(buf) != raw_len or not complete:
                raise _corrupt(
                    self.path, f"segment at {off} does not decode to the "
                    f"{raw_len} bytes its footer declares",
                )
            self._buffers[key] = buf
            self.decoded_bytes += raw_len
        return buf

    def _column_strings(self, relation: str, pos: int,
                        desc: Dict[str, Any]) -> List[str]:
        key = (relation, pos)
        strings = self._str_dicts.get(key)
        if strings is None:
            with self._decoding(relation, f"dictionary {pos}"):
                buf = self._segment((relation, ("dict", pos)),
                                    desc["dict_seg"], desc["dict_comp"],
                                    desc["dict_raw"])
                strings = []
                offset = _U32.size
                try:
                    (count,) = _U32.unpack_from(buf, 0)
                    for _ in range(count):
                        (slen,) = _U32.unpack_from(buf, offset)
                        offset += _U32.size
                        strings.append(
                            bytes(buf[offset:offset + slen])
                            .decode("utf-8", "surrogatepass")
                        )
                        offset += slen
                except (struct.error, UnicodeDecodeError) as exc:
                    raise _corrupt(
                        self.path, f"corrupt string dictionary: {exc}"
                    ) from None
            self._str_dicts[key] = strings
        return strings

    # -- typed vectors (batch kernels) ----------------------------------
    def vector(self, relation: str, pos: int) -> Any:
        """The whole column as a typed, zero-copy sequence: a ``'q'``/``'d'``
        memoryview cast for the i64/f64 lanes, the raw u32 *dictionary
        code* view for str lanes (no string decode at all), and the
        memoized value tuple for pickle lanes. Slices of the returned
        object are what the vectorized kernels iterate."""
        key = (relation, pos)
        vec = self._vectors.get(key)
        if vec is not None:
            return vec
        desc = self._relations[relation]["columns"][pos]
        lane = desc["lane"]
        with self._decoding(relation, f"column {pos}"):
            if lane == LANE_PKL:
                vec = self.column(relation, pos)
            else:
                buf = self._segment((relation, pos), desc["seg"],
                                    desc["comp"], desc["raw"])
                fmt = {LANE_I64: "q", LANE_F64: "d", LANE_STR: "I"}[lane]
                try:
                    vec = memoryview(buf).cast(fmt)
                except (TypeError, ValueError) as exc:
                    raise _corrupt(
                        self.path,
                        f"corrupt {lane} column {relation}[{pos}]: {exc}",
                    ) from None
                if len(vec) != self._relations[relation]["rows"]:
                    raise _corrupt(
                        self.path,
                        f"column {relation}[{pos}] holds {len(vec)} values, "
                        f"footer says {self._relations[relation]['rows']}",
                    )
        self._vectors[key] = vec
        return vec

    def column_slice(self, relation: str, pos: int, start: int,
                     count: int) -> Any:
        """``count`` decoded values of one column starting at row ``start``
        — string codes are materialized through the (memoized) dictionary;
        the fixed-width lanes stay zero-copy views."""
        desc = self._relations[relation]["columns"][pos]
        vec = self.vector(relation, pos)
        if desc["lane"] == LANE_STR:
            strings = self._column_strings(relation, pos, desc)
            return [strings[c] for c in vec[start:start + count]]
        return vec[start:start + count]

    def str_code(self, relation: str, pos: int, value: Any) -> Optional[int]:
        """The dictionary code of ``value`` in a str-lane column, or ``None``
        when absent (or when ``value`` is not a str — codes only ever encode
        exact strings). The column's dictionary is decoded once and indexed
        by string, so a literal-equality pushdown never decodes the codes."""
        if type(value) is not str:
            return None
        key = (relation, pos)
        index = self._dict_codes.get(key)
        if index is None:
            strings = self._column_strings(
                relation, pos, self._relations[relation]["columns"][pos])
            index = self._dict_codes[key] = {s: code for code, s in enumerate(strings)}
        return index.get(value)

    def column(self, relation: str, pos: int) -> Tuple[Any, ...]:
        """One fully decoded column, memoized. Only the requested column's
        segments are touched."""
        key = (relation, pos)
        values = self._columns.get(key)
        if values is not None:
            return values
        desc = self._relations[relation]["columns"][pos]
        nrows = self._relations[relation]["rows"]
        lane = desc["lane"]
        buf = self._segment((relation, pos), desc["seg"], desc["comp"],
                            desc["raw"])
        try:
            if lane == LANE_I64:
                values = struct.unpack(f"<{nrows}q", buf)
            elif lane == LANE_F64:
                values = struct.unpack(f"<{nrows}d", buf)
            elif lane == LANE_STR:
                strings = self._column_strings(relation, pos, desc)
                codes = struct.unpack(f"<{nrows}I", buf)
                values = tuple(strings[c] for c in codes)
            else:
                values = tuple(pickle.loads(bytes(buf)))
        except (struct.error, pickle.UnpicklingError, IndexError,
                EOFError) as exc:
            raise _corrupt(
                self.path,
                f"corrupt {lane} column {relation}[{pos}]: {exc}",
            ) from None
        if len(values) != nrows:
            raise _corrupt(
                self.path,
                f"column {relation}[{pos}] decoded {len(values)} values, "
                f"footer says {nrows}",
            )
        self._columns[key] = values
        return values

    # -- partitions -----------------------------------------------------
    def groups(self, relation: str) -> Dict[Any, Tuple[int, int]]:
        """``vertex -> (start, count)`` — decodes only the group-key
        segment (one value per partition), no row columns at all."""
        table = self._groups.get(relation)
        if table is None:
            desc = self._relations.get(relation)
            table = {}
            if desc is not None and desc["groups"]:
                with self._decoding(relation, "keys"):
                    buf = self._segment((relation, "keys"), desc["keys_seg"],
                                        desc["keys_comp"], desc["keys_raw"])
                    try:
                        keys = pickle.loads(bytes(buf))
                    except (pickle.UnpicklingError, EOFError,
                            ValueError) as exc:
                        raise _corrupt(
                            self.path,
                            f"corrupt group keys for {relation}: {exc}"
                        ) from None
                    table = dict(zip(keys,
                                     (tuple(g) for g in desc["groups"])))
            self._groups[relation] = table
        return table

    def describe(self) -> Dict[str, Any]:
        """Footer-level facts for ``repro inspect`` (no segment decode)."""
        return {
            "format": "columnar",
            "compression": self.compression,
            "on_disk_bytes": self.on_disk_bytes,
            "raw_bytes": self.raw_bytes(),
            "decoded_bytes": self.decoded_bytes,
            "relations": {
                name: {
                    "rows": desc["rows"],
                    "partitions": len(desc["groups"]),
                    "lanes": self.lanes(name),
                    "raw_bytes": self.raw_bytes(name),
                }
                for name, desc in self._relations.items()
            },
        }

    def close(self) -> None:
        """Drop memoized state and unmap the file."""
        for attr in ("_vectors", "_buffers", "_columns", "_str_dicts",
                     "_groups", "_dict_codes"):
            state = getattr(self, attr, None)
            if state is not None:
                state.clear()
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:  # pragma: no cover - exported view leaked
                pass
            self._mm = None
        if self._file is not None:
            self._file.close()
            self._file = None
        self._buf = b""

    def __enter__(self) -> "ColumnarSlab":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
