import io
import lzma
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compress_oracle import encode_stream, leb128, reference_sequence, zigzag
from evc import (
    CODEC_COMPRESSED,
    EMPTY,
    EVENT,
    StreamFormatError,
    StreamHeader,
    compress_stream,
    synth_clip,
)
from evc import compress
from evc.events import HEADER_SIZE
from evc.harness import transcode_clip
from evc.compress import (
    Adu,
    DecodeError,
    build_adus,
    decode_adu,
    encode_adu,
    read_compressed,
)


def header(w=32, h=32, crf=0, dt_ref=255, dt_max=2550):
    return StreamHeader(w, h, dt_ref=dt_ref, dt_max=dt_max,
                        dt_s=dt_ref * 30, crf=crf)


def events_of(rows):
    return np.array(rows, EVENT)


def decompress_payloads(payloads, hdr):
    """All events of a stream's ADU payloads, decoded in order."""
    return np.concatenate([decode_adu(payload, hdr, k)
                           for k, payload in enumerate(payloads)])


def key_sorted(events):
    """(x, y, d, t) rows sorted by pixel, then t."""
    return sorted(events.tolist(), key=lambda e: (e[1], e[0], e[3]))


def random_stream(rng, w, h, max_t, mean_events=4):
    events = []
    for y in range(h):
        for x in range(w):
            n = rng.randrange(mean_events * 2 + 1)
            if not n:
                continue
            ts = sorted(rng.sample(range(1, max_t), n))
            for t in ts:
                d = EMPTY if rng.random() < 0.08 else rng.randrange(0, 12)
                events.append((x, y, d, t))
    rng.shuffle(events)
    return events_of(events)


def body_of(payload):
    """The LEB128 body of an ADU payload, inflated past its unit prefix."""
    return lzma.decompress(payload[compress._ADU_PREFIX.size:],
                           lzma.FORMAT_RAW, filters=compress._FILTERS)


def test_adu_windows_are_left_open():
    hdr = header(16, 16)
    events = events_of([(0, 0, 3, 2550), (0, 0, 3, 2551)])
    adus = build_adus(events, hdr, dt_adu=2550)
    assert len(adus) == 2
    assert [a.events.tolist() for a in adus] == [[(0, 0, 3, 2550)],
                                                 [(0, 0, 3, 2551)]]
    assert adus[0].start_t == 0 and adus[1].start_t == 2550


def test_adu_count_matches_grid():
    hdr = header(16, 16, dt_max=7650)
    events = events_of([(0, 0, 3, t) for t in range(255, 122401, 255)])
    adus = build_adus(events, hdr)
    assert len(adus) == 16  # 480 frames of 255 ticks, 30 frames per unit


def test_build_adus_keeps_only_occupied_cubes():
    hdr = header(4096, 4096)
    (empty,) = build_adus(events_of([]), hdr)
    assert len(empty.events) == 0
    events = events_of([(40, 20, 3, 10), (40, 20, 3, 2600)])
    first, second = build_adus(events, hdr)
    assert first.events.tolist() == [(40, 20, 3, 10)]
    assert second.events.tolist() == [(40, 20, 3, 2600)]


def test_build_adus_rejects_out_of_bounds():
    with pytest.raises(ValueError, match=r"\(40, 0\)"):
        build_adus(events_of([(4, 0, 3, 5), (40, 0, 3, 10)]), header(32, 32))
    with pytest.raises(ValueError, match=r"\(0, 32\)"):
        build_adus(events_of([(0, 32, 3, 10)]), header(32, 32))


@pytest.mark.parametrize("dt_adu", [0, -1, 1 << 32])
def test_dt_adu_outside_32_bits_raises_value_error(dt_adu):
    events = events_of([(0, 0, 3, 10)])
    with pytest.raises(ValueError, match="dt_adu"):
        encode_stream(events, header(16, 16), dt_adu)
    payloads = encode_stream(events, header(16, 16), (1 << 32) - 1)
    assert decompress_payloads(payloads, header(16, 16)).tolist() == [
        (0, 0, 3, 10)]


def test_empty_adu_roundtrip_is_tiny():
    hdr = header(64, 64)
    payloads = encode_stream(events_of([]), hdr)
    assert len(payloads) == 1
    assert len(payloads[0]) <= 48
    decoded = decode_adu(payloads[0], hdr)
    assert decoded.dtype == EVENT and len(decoded) == 0


def test_lossless_roundtrip_random_streams():
    rng = random.Random(31)
    hdr = header(32, 24, crf=0)
    events = random_stream(rng, 32, 24, 9000)
    decoded = decompress_payloads(encode_stream(events, hdr), hdr)
    assert key_sorted(decoded) == key_sorted(events)


def test_constant_rate_pixel_is_exact_even_lossy():
    # CRF 3, 6 and 9 are lossy in the transcoder only; the coder keeps
    # every tick of a steady pixel at each of them, as at CRF 0
    events = events_of([(3, 2, 6, 255 * k) for k in range(1, 30)])
    for crf in (0, 3, 6, 9):
        hdr = header(16, 16, crf=crf)
        decoded = decompress_payloads(encode_stream(events, hdr), hdr)
        assert decoded.tolist() == events.tolist()


def test_lossy_roundtrip_preserves_counts_and_bound():
    # the header's CRF steers the transcoder only: at every CRF the coder
    # gives back each event, so counts are kept and the timestamp error
    # bound is zero, and the payloads do not depend on the CRF
    rng = random.Random(77)
    events = random_stream(rng, 32, 24, 3 * 2550)
    coded = {}
    for crf in (0, 3, 6, 9):
        hdr = header(32, 24, crf=crf)
        coded[crf] = encode_stream(events, hdr)
        decoded = decompress_payloads(coded[crf], hdr)
        assert key_sorted(decoded) == key_sorted(events)
    assert coded[0] == coded[3] == coded[6] == coded[9]


def test_adus_decode_independently():
    rng = random.Random(5)
    hdr = header(32, 24, crf=4)
    events = random_stream(rng, 32, 24, 3 * 2550)
    payloads = encode_stream(events, hdr)
    assert len(payloads) >= 3
    full = [decode_adu(p, hdr, k) for k, p in enumerate(payloads)]
    alone = decode_adu(payloads[1], hdr, 1)
    assert np.array_equal(alone, full[1])


def test_encoding_is_reproducible():
    rng = random.Random(13)
    hdr = header(32, 24, crf=3)
    events = random_stream(rng, 32, 24, 2550)
    adu = build_adus(events, hdr)[0]
    assert encode_adu(adu, hdr) == encode_adu(adu, hdr)


def test_partial_edge_cubes_roundtrip():
    hdr = header(20, 20, crf=0)
    events = events_of([(19, 19, 4, 100), (19, 19, 4, 300), (0, 17, 2, 50)])
    decoded = decompress_payloads(encode_stream(events, hdr), hdr)
    assert key_sorted(decoded) == key_sorted(events)


def test_corrupt_payload_raises_with_index():
    rng = random.Random(3)
    hdr = header(32, 24, crf=2)
    events = random_stream(rng, 32, 24, 2550)
    payload = bytearray(encode_stream(events, hdr)[0])
    payload[12:] = bytes(b ^ 0xA5 for b in payload[12:])
    with pytest.raises(DecodeError) as err:
        decode_adu(bytes(payload), hdr, adu_index=7)
    assert "ADU 7" in str(err.value)


def test_file_roundtrip_and_truncation(tmp_path):
    rng = random.Random(9)
    hdr = header(32, 24, crf=0)
    events = random_stream(rng, 32, 24, 5000)
    path = tmp_path / "s.adderc"
    compress_stream(path, hdr, events)
    buf = io.BytesIO(path.read_bytes())
    rhdr, decoded = read_compressed(buf)
    assert rhdr.source_codec == CODEC_COMPRESSED
    assert (rhdr.width, rhdr.height, rhdr.crf) == (32, 24, 0)
    assert key_sorted(decoded) == key_sorted(events)

    # a stream of no ADUs holds no events
    _, none = read_compressed(io.BytesIO(buf.getvalue()[:HEADER_SIZE]))
    assert none.dtype == EVENT and len(none) == 0

    clipped = io.BytesIO(buf.getvalue()[:-3])
    with pytest.raises(StreamFormatError):
        read_compressed(clipped)


def test_single_event_pixel_needs_only_intra():
    hdr = header(16, 16, crf=5)
    events = events_of([(1, 1, 7, 500)])
    payloads = encode_stream(events, hdr)
    decoded = decompress_payloads(payloads, hdr)
    assert decoded.tolist() == [(1, 1, 7, 500)]


def test_repeated_tick_raises_naming_the_pixel():
    hdr = header(32, 24)
    events = events_of([(1, 1, 3, 100), (5, 2, 3, 300), (5, 2, 4, 300),
                        (5, 2, 3, 900)])
    (adu,) = build_adus(events, hdr)
    with pytest.raises(ValueError, match=r"pixel \(5, 2\): tick 300"):
        encode_adu(adu, hdr)
    # as does an ADU assembled out of order by hand
    adu = Adu(0, 2550, events_of([(5, 2, 3, 900), (5, 2, 3, 300)]))
    with pytest.raises(ValueError, match=r"pixel \(5, 2\): tick 300"):
        encode_adu(adu, hdr)


@pytest.mark.parametrize("start_t, rows", [
    (0, [(5, 2, 3, 300), (1, 1, 3, 100)]),     # pixels out of raster order
    (2550, [(1, 1, 3, 100)]),                  # a tick before the unit
])
def test_units_out_of_coding_order_raise(start_t, rows):
    # a hand-made unit that build_adus would not give would code a
    # negative value, which has no varint
    with pytest.raises(ValueError, match="out of coding order"):
        encode_adu(Adu(start_t, 2550, events_of(rows)), header(32, 24))


def test_valid_payloads_are_consumed_exactly():
    rng = random.Random(41)
    for crf in (0, 3, 9):
        hdr = header(32, 24, crf=crf)
        payloads = encode_stream(random_stream(rng, 32, 24, 3 * 2550), hdr)
        for k, payload in enumerate(payloads):
            decode_adu(payload, hdr, k)
            with pytest.raises(DecodeError, match="left over"):
                decode_adu(payload + b"\x00", hdr, k)
            with pytest.raises(DecodeError, match="past the end"):
                decode_adu(payload[:-1], hdr, k)


def test_fuzzed_payloads_raise_only_stream_format_error():
    rng = random.Random(2024)
    cases = []
    for crf in (0, 3, 6):
        hdr = header(16, 16, crf=crf)
        events = random_stream(rng, 16, 16, 2 * 2550)
        for payload in encode_stream(events, hdr):
            cases.append((hdr, payload))
    attempts = raised = 0
    for n in range(600):
        hdr, payload = cases[n % len(cases)]
        data = bytearray(payload)
        mode = n % 3
        if mode == 0:
            for _ in range(rng.randrange(1, 4)):
                data[rng.randrange(len(data))] ^= rng.randrange(1, 256)
        elif mode == 1:
            del data[rng.randrange(len(data)):]
        else:
            cut = rng.randrange(len(data))
            data[cut:] = rng.randbytes(rng.randrange(1, 64))
        attempts += 1
        start = time.perf_counter()
        try:
            decode_adu(bytes(data), hdr, n)
        except StreamFormatError:
            raised += 1
        assert time.perf_counter() - start < 2.0
    assert attempts >= 500
    assert raised >= attempts * 0.95


def test_coding_one_adu_holds_a_few_bytes_per_event():
    # a 30-frame unit of dense content: the value sequence, its varints
    # and the decoded columns must stay within a small multiple of the
    # unit's own 9-byte events (the ratio is the same at 64x64, but
    # tracing every allocation slows the coder down).  liblzma's fixed
    # workspace, which tracemalloc sees through PyMem_RawMalloc, does not
    # grow with the unit: it is measured on an empty unit, bounded on its
    # own, and left out of the per-event bound.
    hdr = header(16, 16, dt_max=30 * 255)
    events = transcode_clip(hdr, synth_clip("walk", 16, 16, 30))[0]
    (adu,) = build_adus(events, hdr)
    assert len(adu.events) > 10_000
    empty = Adu(0, adu.span, events_of([]))

    def peaks(unit):
        """Peak bytes held while encoding the unit, then while decoding it."""
        tracemalloc.reset_peak()
        payload = encode_adu(unit, hdr)
        encode_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        decoded = decode_adu(payload, hdr)
        decode_peak = tracemalloc.get_traced_memory()[1]
        assert np.array_equal(decoded, unit.events)
        return encode_peak, decode_peak

    tracemalloc.start()
    try:
        fixed = peaks(empty)
        peak = peaks(adu)
    finally:
        tracemalloc.stop()
    for fixed_part, total in zip(fixed, peak):
        assert fixed_part <= 1.5 * (1 << 20)
        assert total - fixed_part < 5 * adu.events.nbytes


@st.composite
def streams(draw):
    """(width, height, dt_adu, events) of a random stream: pixels on the
    frame's edges, gap markers, d jumps of up to 127 either way,
    single-event pixels, and windows with no events at all."""
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    dt_adu = draw(st.sampled_from((50, 700, 2550, (1 << 32) - 1)))
    pixels = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    decimations = st.one_of(st.sampled_from((0, 127, EMPTY)),
                            st.integers(0, 127))
    # at most 320 windows, and at dt_adu 2**32 - 1 gaps of up to 2**31
    gaps = st.one_of(st.integers(1, 3000),
                     st.integers(1, min(40 * dt_adu, 1 << 31)))
    rows = []
    for x, y in draw(st.lists(pixels, unique=True, max_size=12)):
        t = 0
        for d, gap in draw(st.lists(st.tuples(decimations, gaps),
                                    min_size=1, max_size=8)):
            t += gap
            if t >= 1 << 32:
                break
            rows.append((x, y, d, t))
    return width, height, dt_adu, rows


# intervals of 2**31 and of nearly 2**32 ahead of a d step of +127, and
# an interval past 2**31 ahead of steps of 0 and -1
_LAST = (1 << 32) - 1


@settings(max_examples=100, deadline=None)
@given(case=streams())
@example(case=(16, 16, _LAST, [(3, 4, 0, 1), (3, 4, 0, (1 << 31) + 1),
                               (3, 4, 127, _LAST)]))
@example(case=(20, 20, _LAST, [(17, 18, 0, 1), (17, 18, 0, _LAST - 2),
                               (17, 18, 127, _LAST)]))
@example(case=(16, 16, _LAST, [(3, 4, 5, 1), (3, 4, 5, (1 << 31) + 6),
                               (3, 4, 5, (1 << 31) + 100)]))
@example(case=(16, 16, _LAST, [(3, 4, 5, 1), (3, 4, 5, (1 << 31) + 6),
                               (3, 4, 4, (1 << 31) + 100)]))
@example(case=(16, 16, 50, []))
def test_sequence_matches_the_per_event_reference(case):
    width, height, dt_adu, rows = case
    hdr = header(width, height)
    for adu in build_adus(events_of(rows), hdr, dt_adu):
        payload = encode_adu(adu, hdr)
        assert body_of(payload) == leb128(reference_sequence(adu, hdr))
        decoded = decode_adu(payload, hdr)
        assert decoded.dtype == EVENT and np.array_equal(decoded, adu.events)


def _coded(columns, prefix=None, tail=b""):
    """An ADU payload whose body is the six ``columns`` as LEB128, then
    ``tail``; its prefix declares the columns' own pixel and event counts
    unless ``prefix`` (start_t, pixels, events) replaces them."""
    if prefix is None:
        pixels = len(columns[0])
        prefix = (0, pixels, pixels + len(columns[3]))
    values = [value for column in columns for value in column]
    return compress._ADU_PREFIX.pack(*prefix) + lzma.compress(
        leb128(values) + tail, lzma.FORMAT_RAW, filters=compress._FILTERS)


def _pixel(gap=0, count=1, d_first=zigzag(4), d_later=0, t_first=100,
           t_later=254):
    """The columns of a unit whose one pixel, (gap, 0) in a 16x16 frame,
    holds two events, by default (3, 100) and (3, 355), each column
    replaceable by a damaged value."""
    return [[gap], [count], [d_first], [d_later], [t_first], [t_later]]


@pytest.mark.parametrize("payload, message", [
    (_coded(_pixel(), prefix=(0, 2, 1)),
     "prefix declares 2 pixels for 1 events in a 16x16 frame"),
    (_coded(_pixel(), prefix=(0, 0, 2)),
     "prefix declares 0 pixels for 2 events in a 16x16 frame"),
    (_coded(_pixel(), prefix=(0, 257, 300)),
     "prefix declares 257 pixels for 300 events in a 16x16 frame"),
    (_coded(_pixel(), prefix=(0, 1, 3)), "read past the end of the payload"),
    (_coded(_pixel(), prefix=(0, 1, 1)),
     "more values than the prefix declares"),
    (_coded([[0] * 40], prefix=(0, 1, 1)),
     "more values than the prefix declares"),
    (_coded(_pixel()) + b"\x00", "bytes left over after the end of the body"),
    (_coded(_pixel(), tail=b"\x80"), "truncated varint"),
    (_coded(_pixel(gap=256)), "pixel 256 outside the 16x16 frame"),
    (_coded(_pixel(count=0)), "pixel event counts sum to 1, not 2"),
    (_coded(_pixel(d_first=zigzag(129))),
     "coded decimation 129 outside 0..128"),
    (_coded(_pixel(d_later=zigzag(-5))), "coded decimation -1 outside 0..128"),
    (_coded(_pixel(d_first=zigzag(1 << 39))),
     "coded decimation 129 outside 0..128"),
    (_coded(_pixel(), prefix=((1 << 32) - 100, 1, 2)),
     "timestamp 4294967296 outside the tick range"),
    (_coded(_pixel(t_first=1 << 39)),
     "timestamp 4294967296 outside the tick range"),
    (_coded(_pixel(t_later=(1 << 32) - 101)),
     "timestamp 4294967296 outside the tick range"),
    (_coded(_pixel(t_later=1 << 40)),
     "timestamp 4294967396 outside the tick range"),
], ids=["counts", "no-pixel", "area", "short", "extra-value", "over-limit",
        "left-over", "cut-varint", "pixel", "count-sum", "intra-d", "inter-d",
        "huge-d", "intra-t", "huge-t", "inter-t", "huge-interval"])
def test_each_decode_error_names_its_case(payload, message):
    hdr = header(16, 16)
    with pytest.raises(DecodeError, match=f"ADU 4: {message}"):
        decode_adu(payload, hdr, adu_index=4)
    with pytest.raises(DecodeError, match="shorter than the unit prefix"):
        decode_adu(payload[:compress._ADU_PREFIX.size - 1], hdr)
    # the same unit, well formed, decodes
    assert decode_adu(_coded(_pixel()), hdr).tolist() == [(0, 0, 3, 100),
                                                         (0, 0, 3, 355)]


def test_inflation_stops_at_the_declared_counts():
    # 8 MiB of zero varints pack into about 1.2 KB of LZMA; under a prefix
    # that declares one pixel of one event, the decoder inflates no more
    # than those four values can take and holds well under a MiB
    zeros = lzma.compress(bytes(8 << 20), lzma.FORMAT_RAW,
                          filters=compress._FILTERS)
    assert len(zeros) < 1300
    payload = compress._ADU_PREFIX.pack(0, 1, 1) + zeros
    tracemalloc.start()
    try:
        with pytest.raises(DecodeError, match="more values than the prefix"):
            decode_adu(payload, header(16, 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_tiny_payloads_decode_in_time_whatever_the_frame():
    # decoding work follows the payload, not the header's area: small
    # payloads of random counts and bodies under a 4096x4096 header each
    # fail fast
    rng = random.Random(14)
    hdr = header(4096, 4096)
    for n in range(300):
        events = rng.choice((rng.randrange(4), rng.randrange(1 << 32)))
        pixels = rng.choice((rng.randrange(min(events, 1 << 24) + 1),
                             rng.randrange(1 << 32)))
        size = rng.randrange(52)
        body = rng.randbytes(size)
        if n % 2:
            # past LZMA's first byte, which is always 0
            body = lzma.compress(rng.randbytes(size), lzma.FORMAT_RAW,
                                 filters=compress._FILTERS)[:52]
        payload = compress._ADU_PREFIX.pack(rng.randrange(1 << 32), pixels,
                                            events) + body
        assert len(payload) <= 64
        start = time.perf_counter()
        with pytest.raises(StreamFormatError):
            decode_adu(payload, hdr, n)
        assert time.perf_counter() - start < 0.05


def test_a_deep_pixel_decodes_in_one_pass():
    # 20,000 events of one pixel in one unit: its ticks are one cumulative
    # sum, so decoding takes no step per event rank
    rng = random.Random(20)
    t = np.cumsum([1] + [rng.randrange(200, 300) for _ in range(19_999)])
    events = np.zeros(len(t), EVENT)
    events["d"], events["t"] = 6, t
    hdr = header(1, 1)
    (payload,) = encode_stream(events, hdr, (1 << 32) - 1)
    start = time.perf_counter()
    decoded = decode_adu(payload, hdr)
    assert time.perf_counter() - start < 0.2
    assert np.array_equal(decoded, events)
