"""Frame codec unit tests (plus hypothesis fuzz).

The wire format must be a bijection on tagged batches: whatever
``encode_batch`` accepts, ``decode_frame`` must return unchanged —
including lane selection (struct-packed i64/f64 columns for homogeneous
int/float payloads, pickle for everything else) being invisible to the
receiver.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.transport import (
    KIND_EMPTY,
    KIND_F8,
    KIND_I8,
    KIND_PICKLE,
    decode_frame,
    encode_batch,
)

I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1


def roundtrip(batch, src=3, superstep=7, epoch=11):
    frame = encode_batch(src, superstep, epoch, batch)
    got_src, got_step, got_epoch, got = decode_frame(memoryview(frame))
    assert (got_src, got_step, got_epoch) == (src, superstep, epoch)
    return got


class TestLaneSelection:
    def kind(self, batch):
        return encode_batch(0, 0, 0, batch)[0]

    def test_empty_batch(self):
        assert self.kind([]) == KIND_EMPTY
        assert roundtrip([]) == []

    def test_int_lane(self):
        batch = [(0, 0, 5, 17), (0, 1, 6, -3)]
        assert self.kind(batch) == KIND_I8
        assert roundtrip(batch) == batch

    def test_float_lane(self):
        batch = [(1, 0, 5, 0.25), (1, 1, 6, -1e300)]
        assert self.kind(batch) == KIND_F8
        assert roundtrip(batch) == batch

    def test_mixed_payloads_fall_back_to_pickle(self):
        batch = [(0, 0, 5, 17), (0, 1, 6, 0.5)]
        assert self.kind(batch) == KIND_PICKLE
        assert roundtrip(batch) == batch

    def test_bool_is_not_int(self):
        # bool is an int subclass but must not ride the struct lane:
        # decode would return 0/1, silently changing the payload type
        batch = [(0, 0, 5, True), (0, 1, 6, False)]
        assert self.kind(batch) == KIND_PICKLE
        got = roundtrip(batch)
        assert got == batch
        assert all(type(m[3]) is bool for m in got)

    def test_oversized_int_falls_back_to_pickle(self):
        batch = [(0, 0, 5, 1 << 70)]
        assert self.kind(batch) == KIND_PICKLE
        assert roundtrip(batch) == batch

    def test_i64_boundaries_stay_struct(self):
        batch = [(0, 0, 1, I64_MIN), (0, 1, 2, I64_MAX)]
        assert self.kind(batch) == KIND_I8
        assert roundtrip(batch) == batch

    def test_object_payloads(self):
        batch = [(2, 0, 5, ("tuple", [1, 2])), (2, 1, 6, None)]
        assert self.kind(batch) == KIND_PICKLE
        assert roundtrip(batch) == batch

    def test_nan_roundtrips_on_float_lane(self):
        batch = [(0, 0, 5, float("nan"))]
        assert self.kind(batch) == KIND_F8
        got = roundtrip(batch)
        assert len(got) == 1 and math.isnan(got[0][3])
        assert got[0][:3] == (0, 0, 5)

    def test_seq_regenerated_as_send_order(self):
        # seq is dropped from the wire and regenerated 0..n-1 at decode:
        # within one frame, wire order IS send order
        batch = [(4, 0, 9, 1.0), (4, 1, 3, 2.0), (4, 2, 9, 3.0)]
        assert roundtrip(batch) == batch


# Header fields have fixed wire widths (src is u16, superstep/epoch are
# u32); pos and target ride i64 columns on the struct lanes, so fuzz the
# full i64 range for targets and per-lane payloads.
srcs = st.integers(min_value=0, max_value=(1 << 16) - 1)
u32s = st.integers(min_value=0, max_value=(1 << 32) - 1)
tags = srcs
ints = st.integers(min_value=I64_MIN, max_value=I64_MAX)
floats = st.floats(allow_nan=False)  # NaN != NaN; covered separately above
objects = st.one_of(
    st.none(), st.booleans(), st.text(max_size=8),
    st.tuples(st.integers(), st.floats(allow_nan=False)),
    st.lists(st.integers(), max_size=3),
    st.integers(), st.floats(allow_nan=False),
)


def batch_strategy(payloads):
    return st.lists(
        st.tuples(tags, tags, ints, payloads), max_size=50
    ).map(
        # decode regenerates seq as 0..n-1, so feed batches whose seq
        # already follows that convention — exactly what the sender emits
        lambda b: [(pos, i, tgt, pay)
                   for i, (pos, _, tgt, pay) in enumerate(b)]
    )


class TestCodecFuzz:
    @settings(max_examples=200, deadline=None)
    @given(batch=batch_strategy(ints), src=srcs, step=u32s, epoch=u32s)
    def test_int_batches(self, batch, src, step, epoch):
        assert roundtrip(batch, src, step, epoch) == batch

    @settings(max_examples=200, deadline=None)
    @given(batch=batch_strategy(floats))
    def test_float_batches(self, batch):
        assert roundtrip(batch) == batch

    @settings(max_examples=200, deadline=None)
    @given(batch=batch_strategy(objects))
    def test_arbitrary_batches(self, batch):
        assert roundtrip(batch) == batch


class TestFrameValidation:
    def test_truncated_frame_raises(self):
        frame = encode_batch(0, 1, 2, [(0, 0, 5, 17)])
        with pytest.raises(Exception):
            decode_frame(memoryview(frame[: len(frame) - 3]))
