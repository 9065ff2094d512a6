import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evc import events as ev
from evc.events import (
    CRF_PARAMS,
    EMPTY,
    Event,
    StreamFormatError,
    StreamHeader,
    crf_params,
    display_value,
    event_intensity,
    parse_event,
    read_header,
    serialize_event,
    write_header,
)


def test_intensity_examples():
    assert event_intensity(7, 255) == pytest.approx(128 / 255, abs=1e-9)
    assert event_intensity(0, 1) == pytest.approx(1.0, abs=1e-9)
    assert event_intensity(EMPTY, 1000) == 0.0


def test_intensity_doubles_with_d():
    rng = random.Random(11)
    for _ in range(200):
        d = rng.randrange(0, 126)
        dt = rng.randrange(1, 100000)
        assert event_intensity(d + 1, dt) == pytest.approx(2 * event_intensity(d, dt), rel=1e-12)
        assert event_intensity(d, 2 * dt) == pytest.approx(event_intensity(d, dt) / 2, rel=1e-12)


def test_intensity_rejects_bad_interval():
    with pytest.raises(ValueError):
        event_intensity(5, 0)
    with pytest.raises(ValueError):
        event_intensity(5, -3)


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


def test_crf_table_shape_and_anchors():
    assert len(CRF_PARAMS) == 10
    lossless = crf_params(0)
    assert lossless.m_base == 0 and lossless.m_max == 0
    for crf in range(9):
        a, b = crf_params(crf), crf_params(crf + 1)
        assert b.m_base >= a.m_base
        assert b.m_max >= a.m_max
        assert b.m_v >= 1
    # adjustment radii shrink as quality drops (preset 0 never adapts)
    for crf in range(1, 9):
        assert crf_params(crf + 1).feature_radius <= crf_params(crf).feature_radius
    with pytest.raises(ValueError):
        crf_params(10)
    with pytest.raises(ValueError):
        crf_params(-1)


def test_serialize_known_bytes():
    blob = serialize_event(Event(1, 2, 5, 100))
    assert blob == bytes([0x01, 0x00, 0x02, 0x00, 0x05, 0x64, 0x00, 0x00, 0x00])
    assert len(blob) == 9


def test_serialize_roundtrip_random():
    rng = random.Random(3)
    for _ in range(1000):
        e = Event(rng.randrange(65536), rng.randrange(65536),
                  rng.choice(list(range(128)) + [EMPTY]), rng.randrange(1 << 32))
        back = parse_event(serialize_event(e))
        assert back == e


def test_serialize_rejects_out_of_range():
    with pytest.raises(ValueError):
        serialize_event(Event(70000, 0, 5, 1))
    with pytest.raises(ValueError):
        serialize_event(Event(0, 0, 200, 1))
    with pytest.raises(ValueError):
        serialize_event(Event(0, 0, 5, 1 << 32))


def test_parse_truncated():
    blob = serialize_event(Event(1, 2, 5, 100))
    with pytest.raises(StreamFormatError):
        parse_event(blob[:-1])


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
    # byte 12 is the source codec id; 1 was the retired binary coder
    for codec in (1, 3, 255):
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


def test_header_invariants():
    with pytest.raises(ValueError):
        write_header(StreamHeader(4, 4, channels=2))
    with pytest.raises(ValueError):
        write_header(StreamHeader(4, 4, dt_ref=255, dt_max=100))
    with pytest.raises(ValueError):
        write_header(StreamHeader(4, 4, crf=11))


def test_stream_file_roundtrip(tmp_path):
    hdr = StreamHeader(8, 8, dt_ref=255, dt_max=510, dt_s=7650)
    evs = [Event(0, 0, 3, 10), Event(7, 7, EMPTY, 300)]
    path = str(tmp_path / "s.adder")
    n = ev.write_stream(path, hdr, evs)
    assert n == ev.HEADER_SIZE + 9 * len(evs)
    hdr2, evs2 = ev.read_stream(path)
    assert hdr2 == hdr and evs2 == evs


def test_stream_file_truncated(tmp_path):
    hdr = StreamHeader(8, 8)
    path = str(tmp_path / "s.adder")
    ev.write_stream(path, hdr, [Event(0, 0, 3, 10)])
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:-4])
    with pytest.raises(StreamFormatError):
        ev.read_stream(path)
