"""ARSC columnar codec: lanes, round-trips, corrupt slabs, bounded segment
decompression, fuzz.

The codec's contract: every chunk dict the sealers produce round-trips
*exactly* — including concrete value types (``1`` vs ``1.0`` vs ``True``
share a hash, so a lane that loses the type would corrupt stores) — and
every structural violation of the on-disk format surfaces as a
:class:`ProvenanceError` naming the format and path, never a raw
``struct.error``.
"""

import pickle
import struct
import tracemalloc
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ProvenanceError
from repro.provenance.columnar import (
    LANE_F64,
    LANE_I64,
    LANE_PKL,
    LANE_STR,
    ColumnarSlab,
    _pick_lane,
    encode_columnar_slab,
    is_columnar,
    validate_columnar_file,
)
from tests.conftest import group_rows, slab_chunks

COMPRESSIONS = ("raw", "zlib")


def roundtrip(chunks, compression="zlib"):
    blob, _raw = encode_columnar_slab(chunks, compression)
    return ColumnarSlab("<memory>", data=blob)


def expected_chunks(chunks):
    """What decode must return: empty partitions dropped, each group's
    rows as a list in the order the encoder iterated them."""
    return {
        rel: {v: list(rows) for v, rows in by_vertex.items() if rows}
        for rel, by_vertex in chunks.items()
    }


def typed_rows(rows):
    """Rows with concrete types made visible, so ``1`` vs ``True`` vs
    ``1.0`` drift fails the comparison that plain set equality hides."""
    return sorted(
        (tuple((type(v).__name__, v) for v in row) for row in rows),
        key=repr,
    )


class TestLaneSelection:
    @pytest.mark.parametrize("values,lane", [
        ([1, 2, -5], LANE_I64),
        ([2 ** 63 - 1, -(2 ** 63)], LANE_I64),
        ([2 ** 63], LANE_PKL),            # overflows i64
        ([1.5, float("inf")], LANE_F64),
        (["a", "b", "a"], LANE_STR),
        ([True, False], LANE_PKL),        # bool is not int here
        ([1, True], LANE_PKL),            # mixed concrete types
        ([1, 1.0], LANE_PKL),
        ([None, None], LANE_PKL),
        ([(1, 2), (3, 4)], LANE_PKL),
        ([1, "a"], LANE_PKL),
        ([-(2 ** 63) - 1], LANE_PKL),     # past the lower bound
        ([0, 2 ** 63, -1], LANE_PKL),     # one value past the upper bound
        ([-(2 ** 63), 0, 2 ** 63 - 1], LANE_I64),
        ([False, 0, 1], LANE_PKL),        # bool among ints
        ([0, 1, True], LANE_PKL),
        ([0.0, -0.0, float("nan")], LANE_F64),
        (["", "x", "\udcff"], LANE_STR),
        (["a", 1.0], LANE_PKL),
    ])
    def test_pick_lane(self, values, lane):
        assert _pick_lane(values) == lane

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(min_value=-(2 ** 64), max_value=2 ** 64), st.booleans(),
        st.floats(), st.text(max_size=3), st.none()), min_size=1))
    def test_pick_lane_matches_its_per_value_definition(self, values):
        kinds = {type(v) for v in values}
        if kinds == {int}:
            lane = (LANE_I64 if all(-(2 ** 63) <= v < 2 ** 63 for v in values)
                    else LANE_PKL)
        else:
            lane = {frozenset([float]): LANE_F64,
                    frozenset([str]): LANE_STR}.get(frozenset(kinds), LANE_PKL)
        assert _pick_lane(values) == lane


class TestRoundTrip:
    @pytest.mark.parametrize("compression", COMPRESSIONS)
    def test_mixed_lanes(self, compression):
        chunks = {
            "value": {
                0: {(0, 1.5, 0), (0, 2.5, 1)},
                1: {(1, 0.5, 0)},
            },
            "label": {
                0: {("a", 0)},
                "v2": {("b", 1), ("ü\n", 2)},
            },
            "odd": {
                0: {(True, None, 2 ** 80), ((1, "x"), 0.0, -1)},
            },
            "hollow": {},                       # empty relation survives
            "dead": {5: set()},                 # empty partition dropped
        }
        slab = roundtrip(chunks, compression)
        assert slab_chunks(slab) == expected_chunks(chunks)
        assert slab.compression == compression

    def test_exact_types_preserved(self):
        chunks = {"r": {0: {(True, 1.0, "1")}, 1: {(1, 2.0, "x")}}}
        slab = roundtrip(chunks)
        for vertex in (0, 1):
            got = typed_rows(group_rows(slab, "r", vertex))
            want = typed_rows(chunks["r"][vertex])
            assert got == want

    def test_meta_rides_in_footer(self):
        meta = {"schemas": {"v": "schema-object"}, "num_layers": 7}
        chunks = {"\x00meta": meta, "r": {0: {(1,)}}}
        slab = roundtrip(chunks)
        assert slab.meta == meta
        assert slab_chunks(slab)["\x00meta"] == meta

    def test_unicode_dictionary_lane(self):
        strings = ["", "héllo", "日本語", "a\x00b", "\udc80\udcff", "héllo"]
        chunks = {"s": {0: {(s, i) for i, s in enumerate(strings)}}}
        slab = roundtrip(chunks)
        assert group_rows(slab, "s", 0) == chunks["s"][0]
        assert list(slab.lanes("s")) == ["str", "i64"]

    def test_non_scalar_vertex_keys(self):
        chunks = {"r": {("w", 3): {(1, 2)}, None: {(3, 4)}}}
        slab = roundtrip(chunks)
        assert set(slab.groups("r")) == {("w", 3), None}
        assert group_rows(slab, "r", None) == {(3, 4)}


class TestLazyAccounting:
    def _chunks(self, rows=64):
        return {
            "wide": {0: {(i, float(i), f"s{i % 5}", i % 3) for i in range(rows)}},
            "other": {0: {(i, i) for i in range(rows)}},
        }

    def test_open_decodes_nothing(self):
        slab = roundtrip(self._chunks())
        assert slab.decoded_bytes == 0
        assert slab.row_count("wide") == 64       # footer-only
        assert slab.total_rows() == 128
        assert slab.raw_bytes() > 0
        assert slab.decoded_bytes == 0

    def test_groups_decode_only_keys(self):
        slab = roundtrip(self._chunks())
        slab.groups("wide")
        after_keys = slab.decoded_bytes
        assert 0 < after_keys < slab.raw_bytes("wide")
        slab.column("wide", 0)
        assert slab.decoded_bytes > after_keys

    def test_single_column_scan_is_partial(self):
        slab = roundtrip(self._chunks())
        slab.column("other", 0)
        assert slab.decoded_bytes < slab.raw_bytes() // 2


class TestCorruptSlabs:
    def _blob(self):
        blob, _ = encode_columnar_slab(
            {"r": {0: {(1, 2.0)}}}, "zlib",
        )
        return blob

    def test_magic_detection(self):
        assert is_columnar(self._blob())
        assert not is_columnar(b"ARSL\x01\x00")
        assert not is_columnar(b"")

    @pytest.mark.parametrize("mutate", [
        lambda b: b[: len(b) // 2],                      # torn write
        lambda b: b[:-4] + b"ARSX",                      # bad trailer magic
        lambda b: b[:8],                                 # header only
        lambda b: b[:-16] + struct.pack(
            "<QI4s", 2 ** 40, 10, b"ARSC"),              # footer out of range
    ], ids=["torn", "trailer-magic", "header-only", "footer-range"])
    def test_structural_corruption(self, mutate, tmp_path):
        path = tmp_path / "bad.slab"
        path.write_bytes(mutate(self._blob()))
        with pytest.raises(ProvenanceError) as err:
            validate_columnar_file(str(path))
        assert "columnar (ARSC)" in str(err.value)
        assert "bad.slab" in str(err.value)
        with pytest.raises(ProvenanceError):
            ColumnarSlab(str(path))

    def test_garbage_footer_payload(self, tmp_path):
        blob = self._blob()
        off, length, magic = struct.unpack("<QI4s", blob[-16:])
        garbage = zlib.compress(b"not a pickle")
        bad = blob[:off] + garbage + struct.pack(
            "<QI4s", off, len(garbage), magic)
        path = tmp_path / "bad.slab"
        path.write_bytes(bad)
        with pytest.raises(ProvenanceError, match=r"columnar \(ARSC\)"):
            ColumnarSlab(str(path))

    def test_mmap_open_reads_file(self, tmp_path):
        path = tmp_path / "ok.slab"
        path.write_bytes(self._blob())
        with ColumnarSlab(str(path)) as slab:
            assert group_rows(slab, "r", 0) == {(1, 2.0)}


def _with_segment(blob, relation, pos, payload):
    """``blob`` with column ``pos`` of ``relation`` re-pointed at a new
    zlib ``payload``, its footer still declaring the original size."""
    footer_off, footer_len, magic = struct.unpack("<QI4s", blob[-16:])
    footer = pickle.loads(zlib.decompress(blob[footer_off:footer_off
                                               + footer_len]))
    column = footer["relations"][relation]["columns"][pos]
    column.update(seg=(footer_off, len(payload)), comp="zlib")
    encoded = zlib.compress(pickle.dumps(footer))
    return (blob[:footer_off] + payload + encoded + struct.pack(
        "<QI4s", footer_off + len(payload), len(encoded), magic), footer_off)


class TestBoundedDecode:
    """A footer that lies about a segment's size is refused by name before
    the segment can allocate past it or under-charge ``decoded_bytes``."""

    ROWS = {"r": {0: {(i, float(i)) for i in range(4)}}}  # i64: 32 bytes

    def _open(self, tmp_path, payload):
        blob, _ = encode_columnar_slab(self.ROWS, "zlib")
        bad, offset = _with_segment(blob, "r", 0, payload)
        path = tmp_path / "lying.slab"
        path.write_bytes(bad)
        return ColumnarSlab(str(path)), offset

    def test_segment_inflating_far_past_its_size_is_refused(self, tmp_path):
        deflate = zlib.compressobj()
        zeros = bytes(1 << 20)
        bomb = b"".join(deflate.compress(zeros) for _ in range(64))
        bomb += deflate.flush()  # 64 MiB of zeros in ~64 KiB
        slab, offset = self._open(tmp_path, bomb)
        tracemalloc.start()
        try:
            with pytest.raises(ProvenanceError) as err:
                slab.column("r", 0)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            slab.close()
        assert peak < 1 << 20  # never inflated beyond the declared size
        assert "lying.slab" in str(err.value)
        assert f"segment at {offset}" in str(err.value)
        assert slab.decoded_bytes == 0

    def test_segment_inflating_short_is_refused(self, tmp_path):
        slab, offset = self._open(tmp_path, zlib.compress(bytes(8)))
        with pytest.raises(ProvenanceError, match=f"segment at {offset}"):
            slab.vector("r", 0)
        slab.close()

    def test_truncated_stream_is_refused(self, tmp_path):
        slab, offset = self._open(tmp_path, zlib.compress(bytes(32))[:-6])
        with pytest.raises(ProvenanceError, match=f"segment at {offset}"):
            slab.column("r", 0)
        slab.close()

    @pytest.mark.parametrize("compression", COMPRESSIONS)
    def test_honest_slab_charges_declared_sizes(self, compression):
        chunks = {"r": {0: {(0, "a", 1.5), (0, "b", 2.5)},
                        1: {(1, "a", 3.5)}}}
        slab = roundtrip(chunks, compression)
        assert slab_chunks(slab) == expected_chunks(chunks)
        desc = slab._relations["r"]  # noqa: SLF001 - the declared sizes
        assert slab.decoded_bytes == slab.raw_bytes() + desc["keys_raw"]


# ---------------------------------------------------------------------------
# hypothesis fuzz: arbitrary chunk dicts round-trip exactly
# ---------------------------------------------------------------------------
scalars = st.one_of(
    st.integers(),                       # includes > 64-bit magnitudes
    st.floats(allow_nan=False),
    st.text(max_size=8),                 # unicode, empty strings
    st.booleans(),
    st.none(),
    st.tuples(st.integers(), st.text(max_size=3)),
)

vertex_keys = st.one_of(st.integers(), st.text(max_size=4))


@st.composite
def chunk_dicts(draw):
    relations = {}
    for index in range(draw(st.integers(min_value=0, max_value=3))):
        arity = draw(st.integers(min_value=1, max_value=4))
        rows = st.sets(st.tuples(*[scalars] * arity), max_size=6)
        by_vertex = {}
        for vertex in draw(st.lists(vertex_keys, max_size=3, unique=True)):
            by_vertex[vertex] = draw(rows)
        relations[f"rel{index}"] = by_vertex
    return relations


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks=chunk_dicts(), compression=st.sampled_from(COMPRESSIONS))
def test_fuzz_roundtrip(chunks, compression):
    slab = roundtrip(chunks, compression)
    assert slab_chunks(slab) == expected_chunks(chunks)
    for rel, by_vertex in chunks.items():
        for vertex, rows in by_vertex.items():
            if rows:
                got = group_rows(slab, rel, vertex)
                assert typed_rows(got) == typed_rows(rows)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks=chunk_dicts())
def test_fuzz_survives_reserialization(chunks):
    """Encoding the decoded chunks again produces the same logical slab
    (byte stability across a migrate round-trip)."""
    first, _ = encode_columnar_slab(chunks, "zlib")
    decoded = slab_chunks(ColumnarSlab("<memory>", data=first))
    second, _ = encode_columnar_slab(decoded, "zlib")
    again = ColumnarSlab("<memory>", data=second)
    assert slab_chunks(again) == expected_chunks(chunks)
