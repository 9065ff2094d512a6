import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evc import events as ev
from evc.events import (
    CRF_PARAMS,
    EMPTY,
    EVENT,
    StreamFormatError,
    StreamHeader,
    crf_params,
    display_values,
    event_array,
    read_header,
    window_of,
    write_header,
)
from fastdet_oracle import display_value

# The documented 9-byte record, kept independent of EVENT.
RECORD = struct.Struct("<HHBI")


@settings(max_examples=500, deadline=None)
@given(d=st.integers(0, 127) | st.just(EMPTY), dt=st.integers(1, 1 << 32),
       dt_ref=st.integers(1, 1 << 12))
def test_display_value_rounds_half_up_and_clamps(d, dt, dt_ref):
    if d == EMPTY:
        want = 0
    else:
        exact = Fraction((1 << d) * dt_ref, dt) + Fraction(1, 2)
        want = min(255, math.floor(exact))
    assert display_value(d, dt, dt_ref) == want


@settings(max_examples=300, deadline=None)
@given(dt_ref=st.sampled_from((1, 255, 65535, 2**32 - 1)),
       pairs=st.lists(st.tuples(
           st.one_of(st.integers(0, 127), st.just(EMPTY), st.just(35)),
           st.one_of(st.integers(1, 2**32 - 1),
                     st.sampled_from((1, 2**31, 2**32 - 1)))),
           min_size=1, max_size=30))
def test_display_values_match_display_value(dt_ref, pairs):
    # (2 << d) * dt_ref in plain int64 wraps silently from d = 30 on: at
    # d = 35, dt_ref = 2**31 and dt = 2**32 - 1 it reads 0, not 255
    d, dt = np.array(pairs, np.int64).T
    assert display_values(d, dt, dt_ref).tolist() == [
        display_value(a, b, dt_ref) for a, b in pairs]


def test_display_values_do_not_wrap_where_int64_would():
    d, dt = np.array([35]), np.array([2**32 - 1])
    assert display_values(d, dt, 2**31).tolist() == [255]
    assert display_value(35, 2**32 - 1, 2**31) == 255


def test_crf_table_shape_and_anchors():
    assert len(CRF_PARAMS) == 10
    lossless = crf_params(0)
    assert lossless.m_base == 0 and lossless.m_max == 0
    for crf in range(9):
        a, b = crf_params(crf), crf_params(crf + 1)
        assert b.m_base >= a.m_base
        assert b.m_max >= a.m_max
        assert b.m_v >= 1
    with pytest.raises(ValueError):
        crf_params(10)
    with pytest.raises(ValueError):
        crf_params(-1)


def test_serialize_known_bytes(tmp_path):
    events = event_array([1], [2], [5], [100])
    blob = bytes([0x01, 0x00, 0x02, 0x00, 0x05, 0x64, 0x00, 0x00, 0x00])
    assert EVENT.itemsize == 9
    assert events.tobytes() == blob
    path = str(tmp_path / "s.adder")
    ev.write_stream(path, StreamHeader(4, 4), events)
    with open(path, "rb") as fh:
        assert fh.read()[ev.HEADER_SIZE:] == blob


_records = st.lists(st.tuples(
    st.integers(0, 0xFFFF) | st.sampled_from((0, 0xFFFF)),
    st.integers(0, 0xFFFF) | st.sampled_from((0, 0xFFFF)),
    st.integers(0, 127) | st.sampled_from((0, 127, EMPTY)),
    st.integers(0, 0xFFFFFFFF) | st.sampled_from((0, 0xFFFFFFFF))),
    max_size=30)


@settings(max_examples=200, deadline=None)
@given(records=_records)
def test_serialize_roundtrip_random(tmp_path_factory, records):
    events = event_array(*(list(zip(*records)) or [[]] * 4))
    path = str(tmp_path_factory.mktemp("rt") / "s.adder")
    hdr = StreamHeader(8, 8)
    n = ev.write_stream(path, hdr, events)
    with open(path, "rb") as fh:
        blob = fh.read()
    assert blob == write_header(hdr) + b"".join(
        RECORD.pack(*r) for r in records)
    assert n == len(blob)
    hdr2, back = ev.read_stream(path)
    assert hdr2 == hdr and back.dtype == EVENT
    assert back.tolist() == records
    assert not back.flags.writeable


def test_serialize_rejects_out_of_range():
    ok = ([1, 3], [2, 4], [5, EMPTY], [100, 0xFFFFFFFF])
    assert event_array(*ok).tolist() == [(1, 2, 5, 100),
                                         (3, 4, EMPTY, 0xFFFFFFFF)]
    for field, bad, message in (
            (0, 70000, "16-bit"), (1, 70000, "16-bit"), (0, -1, "16-bit"),
            (2, 200, "decimation"), (2, 128, "decimation"),
            (2, -1, "decimation"), (3, 1 << 32, "32-bit"), (3, -1, "32-bit")):
        columns = [list(c) for c in ok]
        columns[field][1] = bad
        with pytest.raises(ValueError, match=message):
            event_array(*columns)


def test_parse_truncated(tmp_path):
    path = tmp_path / "s.adder"
    blob = write_header(StreamHeader(4, 4)) + RECORD.pack(1, 2, 5, 100)
    for cut in range(1, 9):
        path.write_bytes(blob[:-cut])
        with pytest.raises(StreamFormatError):
            ev.read_stream(str(path))


def test_header_roundtrip():
    hdr = StreamHeader(640, 360, 1, 255, 7650, 7650, crf=3)
    back = read_header(write_header(hdr))
    assert back == hdr


def test_header_rejects_bad_magic_and_version():
    blob = bytearray(write_header(StreamHeader(4, 4)))
    bad = b"XXXX" + bytes(blob[4:])
    with pytest.raises(StreamFormatError):
        read_header(bad)
    blob[4] = 99
    with pytest.raises(StreamFormatError):
        read_header(bytes(blob))


def test_header_rejects_unknown_source_codec():
    blob = bytearray(write_header(StreamHeader(4, 4)))
    # byte 12 is the source codec id; 1 to 4 were retired coders
    for codec in (1, 2, 3, 4, 6, 255):
        blob[12] = codec
        with pytest.raises(StreamFormatError):
            read_header(bytes(blob))
    with pytest.raises(StreamFormatError):
        write_header(StreamHeader(4, 4, source_codec=1))
    for codec in (ev.CODEC_RAW, ev.CODEC_COMPRESSED):
        blob[12] = codec
        assert read_header(bytes(blob)).source_codec == codec


def test_three_channel_header_is_rejected():
    blob = bytearray(write_header(StreamHeader(4, 4)))
    # byte 10 is the channel count; streams are mono
    for channels in (0, 2, 3):
        blob[10] = channels
        with pytest.raises(StreamFormatError, match="mono"):
            read_header(bytes(blob))
    with pytest.raises(StreamFormatError, match="mono"):
        write_header(StreamHeader(4, 4, channels=3))


def test_header_rejects_oversized_frames():
    assert read_header(write_header(StreamHeader(4096, 4096))).width == 4096
    assert read_header(write_header(StreamHeader(3840, 2160))).height == 2160
    blob = bytearray(write_header(StreamHeader(4096, 4096)))
    # bytes 6-7 and 8-9 are the width and the height
    for width, height in ((4097, 4096), (65535, 65535), (65535, 257)):
        blob[6:10] = struct.pack("<HH", width, height)
        with pytest.raises(StreamFormatError, match="pixel limit"):
            read_header(bytes(blob))
    with pytest.raises(StreamFormatError, match="pixel limit"):
        write_header(StreamHeader(8192, 4096))


def test_header_invariants():
    with pytest.raises(ValueError):
        write_header(StreamHeader(4, 4, channels=2))
    with pytest.raises(ValueError):
        write_header(StreamHeader(4, 4, dt_ref=255, dt_max=100))
    with pytest.raises(ValueError):
        write_header(StreamHeader(4, 4, crf=11))


@pytest.mark.parametrize("field, limit", [
    ("width", 0xFFFF), ("height", 0xFFFF), ("dt_ref", 0xFFFFFFFF),
    ("dt_max", 0xFFFFFFFF), ("dt_s", 0xFFFFFFFF)])
def test_header_fields_must_fit_their_packed_widths(field, limit):
    # each field at its limit packs and reads back; one past it is a
    # format error, not struct's
    def header(value):
        fields = {"width": 1, "height": 1, "dt_ref": 1, "dt_max": 1}
        fields[field] = value
        if field == "dt_ref":
            fields["dt_max"] = value
        return StreamHeader(**fields)
    assert getattr(read_header(write_header(header(limit))), field) == limit
    with pytest.raises(StreamFormatError, match="does not fit"):
        write_header(header(limit + 1))
    with pytest.raises(StreamFormatError):
        write_header(header(-1))


def test_header_needs_a_tick_per_second():
    blob = bytearray(write_header(StreamHeader(4, 4, dt_s=1)))
    assert read_header(bytes(blob)).dt_s == 1
    blob[-4:] = bytes(4)  # dt_s is the header's last field
    with pytest.raises(StreamFormatError,
                       match="dt_s must be at least one tick"):
        read_header(bytes(blob))
    with pytest.raises(StreamFormatError,
                       match="dt_s must be at least one tick"):
        write_header(StreamHeader(4, 4, dt_s=0))


def test_stream_file_roundtrip(tmp_path):
    hdr = StreamHeader(8, 8, dt_ref=255, dt_max=510, dt_s=7650)
    evs = event_array([0, 7], [0, 7], [3, EMPTY], [10, 300])
    path = str(tmp_path / "s.adder")
    n = ev.write_stream(path, hdr, evs)
    assert n == ev.HEADER_SIZE + 9 * len(evs)
    hdr2, evs2 = ev.read_stream(path)
    assert hdr2 == hdr and np.array_equal(evs2, evs)
    assert evs2.tolist() == [(0, 0, 3, 10), (7, 7, EMPTY, 300)]


def test_stream_file_truncated(tmp_path):
    hdr = StreamHeader(8, 8)
    path = str(tmp_path / "s.adder")
    ev.write_stream(path, hdr, event_array([0], [0], [3], [10]))
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:-4])
    with pytest.raises(StreamFormatError):
        ev.read_stream(path)


@settings(max_examples=500, deadline=None)
@given(span=st.integers(1, (1 << 32) - 1) | st.integers(1, 8),
       k=st.integers(0, 1 << 32), offset=st.sampled_from((-1, 0, 1)),
       tick=st.integers(0, (1 << 32) - 1))
def test_window_of_cuts_left_open_windows(span, k, offset, tick):
    # ticks on a boundary k * span, beside it, at 0 and anywhere, as uint32
    # and as int64: window k holds k * span < t <= (k + 1) * span, and
    # window 0 also tick 0
    ticks = [t for t in (0, k * span + offset, tick) if 0 <= t < 1 << 32]
    for dtype in (np.uint32, np.int64):
        got = window_of(np.array(ticks, dtype), span)
        for t, w in zip(ticks, got.tolist()):
            if t == 0:
                assert w == 0
            else:
                assert w * span < t <= (w + 1) * span
