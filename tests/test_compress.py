import io
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evc import (
    CODEC_COMPRESSED,
    EMPTY,
    Event,
    StreamFormatError,
    StreamHeader,
    crf_params,
    display_value,
)
from evc import compress
from evc.compress import (
    Adu,
    DecodeError,
    build_adus,
    choose_shift,
    compress_events,
    decode_adu,
    decompress_payloads,
    encode_adu,
    read_compressed,
    t_prediction,
    write_compressed,
)


def header(w=32, h=32, crf=0, dt_ref=255, dt_max=2550):
    return StreamHeader(w, h, dt_ref=dt_ref, dt_max=dt_max,
                        dt_s=dt_ref * 30, crf=crf)


def key_sorted(events):
    return sorted(events, key=lambda e: (e.y, e.x, e.t))


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
                events.append(Event(x, y, d, t))
    rng.shuffle(events)
    return events


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
    events = [Event(0, 0, 3, 2550), Event(0, 0, 3, 2551)]
    adus = build_adus(events, hdr, dt_adu=2550)
    assert len(adus) == 2
    assert [len(a.cubes[0].queues[(0, 0)]) for a in adus] == [1, 1]
    assert adus[0].start_t == 0 and adus[1].start_t == 2550


def test_adu_count_matches_grid():
    hdr = header(16, 16, dt_max=7650)
    events = [Event(0, 0, 3, t) for t in range(255, 122401, 255)]
    adus = build_adus(events, hdr)
    assert len(adus) == 16  # 480 frames of 255 ticks, 30 frames per unit


def test_build_adus_keeps_only_occupied_cubes():
    hdr = header(4096, 4096)
    assert build_adus([], hdr)[0].cubes == {}
    events = [Event(40, 20, 3, 10), Event(40, 20, 3, 2600)]
    first, second = build_adus(events, hdr)
    assert list(first.cubes) == list(second.cubes) == [256 + 2]
    assert first.cubes[258].origin == (32, 16)
    assert first.cubes[258].following == {(4, 8): (3, 2600)}


def test_build_adus_rejects_out_of_bounds():
    with pytest.raises(ValueError):
        build_adus([Event(40, 0, 3, 10)], header(32, 32))


def test_empty_adu_roundtrip_is_tiny():
    hdr = header(64, 64)
    payloads = compress_events([], hdr)
    assert len(payloads) == 1
    assert len(payloads[0]) <= 48
    assert decode_adu(payloads[0], hdr) == []


def test_lossless_roundtrip_random_streams():
    rng = random.Random(31)
    hdr = header(32, 24, crf=0)
    events = random_stream(rng, 32, 24, 9000)
    decoded = decompress_payloads(compress_events(events, hdr), hdr)
    assert key_sorted(decoded) == key_sorted(events)


def test_constant_rate_pixel_is_exact_even_lossy():
    hdr = header(16, 16, crf=9)
    events = [Event(3, 2, 6, 255 * k) for k in range(1, 30)]
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
    for ev in sorted(events, key=lambda e: e.t):
        truth.setdefault((ev.x, ev.y), []).append(ev)
    got = {}
    for ev in decoded:
        got.setdefault((ev.x, ev.y), []).append(ev)

    checked = 0
    for pixel, true_seq in truth.items():
        rec_seq = sorted(got[pixel], key=lambda e: e.t)
        assert [e.d for e in rec_seq] == [e.d for e in true_seq]
        prev_true = prev_rec = None
        window = None
        for te, re in zip(true_seq, rec_seq):
            k = (te.t - 1) // span if te.t > 0 else 0
            is_first = k != window
            window = k
            if is_first:
                assert re.t == te.t  # intra events are lossless
            elif te.d != EMPTY:
                true_i = (1 << te.d) * hdr.dt_ref / (te.t - prev_true)
                rec_i = (1 << re.d) * hdr.dt_ref / (re.t - prev_rec)
                assert abs(rec_i - true_i) < m_max
                checked += 1
            assert re.t <= te.t
            prev_true, prev_rec = te.t, re.t
    assert checked > 200


def test_adus_decode_independently():
    rng = random.Random(5)
    hdr = header(32, 24, crf=4)
    events = random_stream(rng, 32, 24, 3 * 2550)
    payloads = compress_events(events, hdr)
    assert len(payloads) >= 3
    full = [decode_adu(p, hdr, k) for k, p in enumerate(payloads)]
    alone = decode_adu(payloads[1], hdr, 1)
    assert alone == full[1]


def test_encoding_is_reproducible():
    rng = random.Random(13)
    hdr = header(32, 24, crf=3)
    events = random_stream(rng, 32, 24, 2550)
    adu = build_adus(events, hdr)[0]
    assert encode_adu(adu, hdr) == encode_adu(adu, hdr)


def test_partial_edge_cubes_roundtrip():
    hdr = header(20, 20, crf=0)
    events = [Event(19, 19, 4, 100), Event(19, 19, 4, 300),
              Event(0, 17, 2, 50)]
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

    clipped = io.BytesIO(buf.getvalue()[:-3])
    with pytest.raises(StreamFormatError):
        read_compressed(clipped)


def test_single_event_pixel_needs_only_intra():
    hdr = header(16, 16, crf=5)
    events = [Event(1, 1, 7, 500)]
    payloads = compress_events(events, hdr)
    decoded = decompress_payloads(payloads, hdr)
    assert decoded == events


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
