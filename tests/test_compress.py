import io
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evc import (
    CODEC_COMPRESSED,
    EMPTY,
    EVENT,
    StreamFormatError,
    StreamHeader,
    crf_params,
    display_value,
    synth_clip,
    transcode,
)
from evc import compress
from evc.events import HEADER_SIZE
from evc.compress import (
    Adu,
    DecodeError,
    build_adus,
    choose_shift,
    compress_events,
    decode_adu,
    encode_adu,
    read_compressed,
    t_prediction,
    write_compressed,
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


def test_prediction_examples():
    assert t_prediction(1000, 100, 1) == 1200
    assert t_prediction(1000, 100, 0) == 1100
    assert t_prediction(1000, 100, -2) == 1025


def test_prediction_never_stalls_or_explodes():
    assert t_prediction(50, 1, -30) == 51          # floored at one tick
    assert t_prediction(0, 1 << 20, 31) == 1 << 31  # capped increment


def test_choose_shift_zero_residual_and_lossless():
    assert choose_shift(1000, 1000, 5, 900, 8, dt_ref=255) == (0, 0)
    assert choose_shift(1000, 940, 5, 900, 0, dt_ref=255) == (0, 60)


def test_choose_shift_brute_force_example():
    # frozen from an exhaustive scan over s: t'=240 passes the loose
    # per-tick tolerance, so the maximal shift wins outright
    assert choose_shift(256, 240, 8, 0, 10, dt_ref=1) == (31, 0)
    # under display-unit scaling the same setup only admits the exact
    # reconstruction, reached at s=4 where the residual survives intact
    assert choose_shift(256, 240, 8, 0, 10, dt_ref=255) == (4, 1)


def test_choose_shift_falls_back_to_exact_residual():
    # every nonzero shift overshoots t_true here, so the search
    # degenerates to the exact residual at shift zero
    s, res = choose_shift(259, 500, 4, 255, 200, dt_ref=255)
    assert s == 0 and res == -241
    assert 500 + res == 259


def test_choose_shift_lookahead_guards_successor():
    # alone, the coarse shift is admissible; with a successor close by,
    # the drifted interval would break its tolerance at shift zero
    free = choose_shift(2000, 1800, 6, 1000, 30, dt_ref=255)
    held = choose_shift(2000, 1800, 6, 1000, 30, dt_ref=255,
                        following=(6, 2100))
    assert free[0] > held[0]
    t_free = 1800 + (free[1] << free[0])
    t_held = 1800 + (held[1] << held[0])
    assert t_held > t_free


def choose_shift_by_search(t_true, p_b, d, prev_t_recon, m_max, dt_ref=1,
                           dt_true=None, following=None):
    """``choose_shift`` as a search over every shift from the cap down."""
    r = t_true - p_b
    if m_max == 0 or r == 0 or d == EMPTY:
        return 0, r
    if dt_true is None:
        dt_true = t_true - prev_t_recon
    lo, hi = compress._dt_window(d, dt_true, m_max, dt_ref)
    t_lo = prev_t_recon + lo
    t_hi = t_true if hi is None else min(t_true, prev_t_recon + hi)
    if following is not None and following[0] != EMPTY:
        next_d, next_t = following
        flo, fhi = compress._dt_window(next_d, next_t - t_true, m_max, dt_ref)
        if fhi is not None:
            t_lo = max(t_lo, next_t - fhi)
        t_hi = min(t_hi, next_t - flo)
    mag = abs(r)
    for s in range(compress.SHIFT_CAP, 0, -1):
        q = mag >> s if r > 0 else -(mag >> s)
        if t_lo <= p_b + (q << s) <= t_hi:
            return s, q
    return 0, r


def _interval(d, value, dt_ref):
    """Ticks over which 2**d units display as ``value``."""
    return max(1, ((1 << d) * dt_ref) // value)


@settings(max_examples=600, deadline=None)
@given(prev_t=st.integers(0, 1 << 24),
       d=st.sampled_from(list(range(21)) + [EMPTY]),
       value=st.one_of(st.integers(1, 16), st.integers(1, 300)),
       dt_ref=st.sampled_from((1, 3, 255, 1000)), m_max=st.integers(1, 40),
       miss=st.one_of(st.floats(-0.05, 0.05), st.floats(-1, 1)),
       slip=st.integers(0, 64),
       following=st.one_of(st.none(), st.tuples(
           st.sampled_from(list(range(21)) + [EMPTY]),
           st.integers(1, 300))))
@example(prev_t=0, d=8, value=1, dt_ref=1, m_max=10, miss=-0.0625, slip=0,
         following=None)
@example(prev_t=1000, d=6, value=16, dt_ref=255, m_max=30, miss=-0.2,
         slip=0, following=(6, 163))
def test_choose_shift_takes_the_top_of_the_admissible_shifts(
        prev_t, d, value, dt_ref, m_max, miss, slip, following):
    # a pixel showing ``value`` over its true interval (a marker's
    # interval is that of d = 20), a prediction that misses t_true by up
    # to one interval either way, a true interval that trails the
    # reconstructed one by ``slip``, and maybe a successor (d, value) in
    # the encoder's lookahead
    gap = _interval(min(d, 20), value, dt_ref)
    t_true = prev_t + gap
    p_b = max(prev_t + 1, t_true + int(miss * gap))
    if following is not None:
        next_d, next_value = following
        following = (next_d,
                     t_true + _interval(min(next_d, 20), next_value, dt_ref))
    args = (t_true, p_b, d, prev_t, m_max, dt_ref)
    kwargs = dict(dt_true=gap + slip, following=following)
    assert choose_shift(*args, **kwargs) == choose_shift_by_search(*args,
                                                                   **kwargs)


def test_the_shift_search_examples_hit_the_cap_and_the_lookahead():
    assert choose_shift_by_search(256, 240, 8, 0, 10, dt_ref=1) == (31, 0)
    free = choose_shift_by_search(2000, 1800, 6, 1000, 30, dt_ref=255)
    held = choose_shift_by_search(2000, 1800, 6, 1000, 30, dt_ref=255,
                                  following=(6, 2100))
    assert free[0] > held[0] > 0


def _intensity_close(d, dt_a, dt_b, m_max, dt_ref):
    """Shift admissibility written out: the displayed value must not move
    at all, and the underlying intensities must stay strictly within m_max
    of each other (the latter also covers the clamped regime, where two
    displays can agree at 255 while the raw intensities drift apart).
    """
    if d == EMPTY:
        return True
    if display_value(d, dt_a, dt_ref) != display_value(d, dt_b, dt_ref):
        return False
    return ((1 << d) * dt_ref * abs(dt_a - dt_b)) < m_max * dt_a * dt_b


@settings(max_examples=400, deadline=None)
@given(d=st.integers(0, 127), dt_true=st.integers(1, 1 << 20),
       m_max=st.integers(1, 40),
       dt_ref=st.sampled_from((1, 2, 3, 255, 256, 1000)),
       dt=st.integers(1, 1 << 24))
def test_dt_window_admits_exactly_what_the_oracle_accepts(d, dt_true, m_max,
                                                          dt_ref, dt):
    lo, hi = compress._dt_window(d, dt_true, m_max, dt_ref)
    assert lo <= dt_true and (hi is None or dt_true <= hi)
    probes = {dt, dt_true, lo - 1, lo, lo + 1}
    if hi is not None:
        probes |= {hi - 1, hi, hi + 1}
    for probe in probes:
        if probe >= 1:
            inside = lo <= probe and (hi is None or probe <= hi)
            assert inside == _intensity_close(d, dt_true, probe, m_max,
                                              dt_ref), probe


def test_adu_windows_are_left_open():
    hdr = header(16, 16)
    events = events_of([(0, 0, 3, 2550), (0, 0, 3, 2551)])
    adus = build_adus(events, hdr, dt_adu=2550)
    assert len(adus) == 2
    assert [a.events.tolist() for a in adus] == [[(0, 0, 3, 2550)],
                                                 [(0, 0, 3, 2551)]]
    assert adus[0].following.tolist() == [(0, 0, 3, 2551)]
    assert len(adus[1].following) == 0
    assert adus[0].start_t == 0 and adus[1].start_t == 2550


def test_adu_count_matches_grid():
    hdr = header(16, 16, dt_max=7650)
    events = events_of([(0, 0, 3, t) for t in range(255, 122401, 255)])
    adus = build_adus(events, hdr)
    assert len(adus) == 16  # 480 frames of 255 ticks, 30 frames per unit


def test_build_adus_keeps_only_occupied_cubes():
    hdr = header(4096, 4096)
    (empty,) = build_adus(events_of([]), hdr)
    assert len(empty.events) == len(empty.following) == 0
    events = events_of([(40, 20, 3, 10), (40, 20, 3, 2600)])
    first, second = build_adus(events, hdr)
    assert first.events.tolist() == [(40, 20, 3, 10)]
    assert first.following.tolist() == [(40, 20, 3, 2600)]
    assert second.events.tolist() == [(40, 20, 3, 2600)]
    assert len(second.following) == 0


def test_build_adus_rejects_out_of_bounds():
    with pytest.raises(ValueError, match=r"\(40, 0\)"):
        build_adus(events_of([(4, 0, 3, 5), (40, 0, 3, 10)]), header(32, 32))
    with pytest.raises(ValueError, match=r"\(0, 32\)"):
        build_adus(events_of([(0, 32, 3, 10)]), header(32, 32))


@pytest.mark.parametrize("dt_adu", [0, -1, 1 << 32])
def test_dt_adu_outside_32_bits_raises_value_error(dt_adu):
    events = events_of([(0, 0, 3, 10)])
    with pytest.raises(ValueError, match="dt_adu"):
        compress_events(events, header(16, 16), dt_adu)
    payloads = compress_events(events, header(16, 16), (1 << 32) - 1)
    assert decompress_payloads(payloads, header(16, 16)).tolist() == [
        (0, 0, 3, 10)]


def test_empty_adu_roundtrip_is_tiny():
    hdr = header(64, 64)
    payloads = compress_events(events_of([]), hdr)
    assert len(payloads) == 1
    assert len(payloads[0]) <= 48
    decoded = decode_adu(payloads[0], hdr)
    assert decoded.dtype == EVENT and len(decoded) == 0


def test_lossless_roundtrip_random_streams():
    rng = random.Random(31)
    hdr = header(32, 24, crf=0)
    events = random_stream(rng, 32, 24, 9000)
    decoded = decompress_payloads(compress_events(events, hdr), hdr)
    assert key_sorted(decoded) == key_sorted(events)


def test_constant_rate_pixel_is_exact_even_lossy():
    hdr = header(16, 16, crf=9)
    events = events_of([(3, 2, 6, 255 * k) for k in range(1, 30)])
    decoded = decompress_payloads(compress_events(events, hdr), hdr)
    assert key_sorted(decoded) == key_sorted(events)


def test_lossy_roundtrip_preserves_counts_and_bound():
    rng = random.Random(77)
    hdr = header(32, 24, crf=6)
    m_max = crf_params(hdr.crf).m_max
    events = random_stream(rng, 32, 24, 3 * 2550)
    decoded = decompress_payloads(compress_events(events, hdr), hdr)
    assert len(decoded) == len(events)

    span = hdr.dt_max
    truth = {}
    for x, y, d, t in sorted(events.tolist(), key=lambda e: e[3]):
        truth.setdefault((x, y), []).append((d, t))
    got = {}
    for x, y, d, t in decoded.tolist():
        got.setdefault((x, y), []).append((d, t))

    checked = 0
    for pixel, true_seq in truth.items():
        rec_seq = sorted(got[pixel], key=lambda e: e[1])
        assert [d for d, _ in rec_seq] == [d for d, _ in true_seq]
        prev_true = prev_rec = None
        window = None
        for (d, t_true), (_, t_rec) in zip(true_seq, rec_seq):
            k = (t_true - 1) // span if t_true > 0 else 0
            is_first = k != window
            window = k
            if is_first:
                assert t_rec == t_true  # intra events are lossless
            elif d != EMPTY:
                true_i = (1 << d) * hdr.dt_ref / (t_true - prev_true)
                rec_i = (1 << d) * hdr.dt_ref / (t_rec - prev_rec)
                assert abs(rec_i - true_i) < m_max
                checked += 1
            assert t_rec <= t_true
            prev_true, prev_rec = t_true, t_rec
    assert checked > 200


def test_adus_decode_independently():
    rng = random.Random(5)
    hdr = header(32, 24, crf=4)
    events = random_stream(rng, 32, 24, 3 * 2550)
    payloads = compress_events(events, hdr)
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
    decoded = decompress_payloads(compress_events(events, hdr), hdr)
    assert key_sorted(decoded) == key_sorted(events)


def test_corrupt_payload_raises_with_index():
    rng = random.Random(3)
    hdr = header(32, 24, crf=2)
    events = random_stream(rng, 32, 24, 2550)
    payload = bytearray(compress_events(events, hdr)[0])
    payload[12:] = bytes(b ^ 0xA5 for b in payload[12:])
    with pytest.raises(DecodeError) as err:
        decode_adu(bytes(payload), hdr, adu_index=7)
    assert "ADU 7" in str(err.value)


def test_file_roundtrip_and_truncation():
    rng = random.Random(9)
    hdr = header(32, 24, crf=0)
    events = random_stream(rng, 32, 24, 5000)
    buf = io.BytesIO()
    write_compressed(buf, hdr, events)
    buf.seek(0)
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
    payloads = compress_events(events, hdr)
    decoded = decompress_payloads(payloads, hdr)
    assert decoded.tolist() == [(1, 1, 7, 500)]


def test_bad_shift_raises_instead_of_asserting(monkeypatch):
    rng = random.Random(21)
    hdr = header(32, 24, crf=3)
    adu = build_adus(random_stream(rng, 32, 24, 2550), hdr)[0]
    # a shift that lands one tick past the true timestamp
    monkeypatch.setattr(compress, "choose_shift",
                        lambda t_true, p_b, *a, **k: (0, t_true - p_b + 1))
    with pytest.raises(ValueError, match="outside"):
        encode_adu(adu, hdr)


def test_valid_payloads_are_consumed_exactly():
    rng = random.Random(41)
    for crf in (0, 3, 9):
        hdr = header(32, 24, crf=crf)
        payloads = compress_events(random_stream(rng, 32, 24, 3 * 2550), hdr)
        for k, payload in enumerate(payloads):
            # the range coder's stream opens with a zero byte
            assert payload[8] == 0
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
        for payload in compress_events(events, hdr):
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
    # a 30-frame unit of dense content: the symbol sequence, the columns
    # the coder reads and the decoded columns must stay within a small
    # multiple of the unit's own 9-byte events (the ratio is the same at
    # 64x64, but tracing every allocation slows the coder some 30x)
    hdr = header(16, 16, dt_max=30 * 255)
    (adu,) = build_adus(transcode(synth_clip("walk", 16, 16, 30), hdr), hdr)
    assert len(adu.events) > 10_000
    tracemalloc.start()
    try:
        payload = encode_adu(adu, hdr)
        encode_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        decoded = decode_adu(payload, hdr)
        decode_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(decoded, adu.events)
    assert encode_peak < 5 * adu.events.nbytes
    assert decode_peak < 5 * adu.events.nbytes
