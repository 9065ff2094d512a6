import random

import numpy as np
import pytest

from evc import (
    EMPTY,
    Event,
    ParamSet,
    PixelIntegrator,
    StreamHeader,
    Transcoder,
    crf_params,
    starting_decimation,
    transcode,
)

LOSSLESS = ParamSet(0, 0, 1, 0)


def header(w, h, dt_ref=255, dt_max=7650, crf=0):
    return StreamHeader(w, h, dt_ref=dt_ref, dt_max=dt_max, dt_s=dt_ref * 30, crf=crf)


def run_oracle_count(value, n_frames):
    """Independent count of coalesced events for a constant-value run.

    The queue behaves as a binary counter over boundary crossings with the
    first crossing pinned, so a flushed run holds 1 + popcount(n - 1)
    events, n being the number of completed crossings.
    """
    d = value.bit_length() - 1
    n = (n_frames * value) >> d
    return 1 + bin(n - 1).count("1") if n else 0


def unit_rate_queue(crossings):
    """The queue after ``crossings`` frames at one 2**8 crossing each."""
    px = PixelIntegrator(LOSSLESS, dt_ref=256, dt_max=300)
    for _ in range(crossings):
        assert px.integrate(256) is None
    return px.queue


def test_coalesce_three_entry_example():
    assert unit_rate_queue(3) == [(8, 256), (9, 768)]


def test_coalesce_five_entry_fixpoint():
    out = unit_rate_queue(5)
    assert out == [(8, 256), (10, 1280)]
    assert sum(1 << d for d, _ in out) == 5 * 256


def test_coalesce_first_entry_pinned():
    assert unit_rate_queue(2) == [(8, 256), (8, 512)]
    assert unit_rate_queue(1) == [(8, 256)]
    assert unit_rate_queue(0) == []


def test_unit_rate_drive_matches_known_sequence():
    px = PixelIntegrator(LOSSLESS, dt_ref=256, dt_max=300)
    for _ in range(3):
        assert px.integrate(256) is None
    assert px.d == 8
    assert px.queue == [(8, 256), (9, 768)]
    out = px.integrate(0)  # value leaves the contrast window
    # the flushed queue, then the marker opening the dark run; the marker
    # lands one tick after the colliding final queue entry
    assert out == [(8, 256), (9, 768), (EMPTY, 769)]


def test_going_dark_announces_the_dark_run_immediately():
    px = PixelIntegrator(LOSSLESS, dt_ref=255, dt_max=7650)
    assert px.integrate(32) is None
    out = px.integrate(0)
    # 32 crosses its threshold exactly at the frame boundary, so the marker
    # is bumped one tick past the colliding queue entry
    assert out == [(5, 255), (EMPTY, 256)]
    # closing the dark run dates its far end, so the next run's first event
    # spans one frame rather than the whole dark spell
    assert px.integrate(64) == [(EMPTY, 510)]
    # a dark run opened at stream start still reports at close
    fresh = PixelIntegrator(LOSSLESS, dt_ref=255, dt_max=7650)
    assert fresh.integrate(0) is None
    assert fresh.flush() == [(EMPTY, 255)]


def test_starting_decimation_values():
    assert starting_decimation(223, 255, 7650) == 7
    assert starting_decimation(1, 255, 7650) == 0
    assert starting_decimation(255, 255, 7650) == 7
    assert starting_decimation(256, 256, 300) == 8
    with pytest.raises(ValueError):
        starting_decimation(0, 255, 7650)


def test_stability_raises_final_decimation():
    px = PixelIntegrator(ParamSet(3, 3, 1, 0), dt_ref=255, dt_max=7650)
    for f in [223, 220, 220, 220]:
        assert px.integrate(f) is None
    assert px.d == 7  # floor(log2(223))
    assert max(d for d, _ in px.queue) == 9  # floor(log2(223 + 220*3))
    flushed = px.flush()
    emitted_units = sum(1 << d for d, _ in flushed)
    assert emitted_units <= 223 + 3 * 220
    assert 223 + 3 * 220 - emitted_units < 1 << 7  # remainder below one base event


def test_zero_frames_emit_single_empty_per_flush():
    hdr = header(4, 3)
    frames = [np.zeros((3, 4), dtype=np.uint8)] * 5
    coder = Transcoder(hdr)
    for f in frames:
        assert coder.integrate_frame(f) == []
    events = coder.flush_all()
    assert len(events) == 12
    assert all(e.d == EMPTY for e in events)
    assert all(e.t == 5 * 255 for e in events)
    # untouched state flushes nothing
    assert Transcoder(hdr).flush_all() == []


def test_every_pixel_emits_after_constant_frame():
    hdr = header(5, 4)
    events = transcode([np.full((4, 5), 17, dtype=np.uint8)], hdr)
    assert {(e.x, e.y) for e in events} == {(x, y) for x in range(5) for y in range(4)}


def test_per_pixel_timestamps_strictly_increase():
    rng = np.random.default_rng(5)
    frames = [rng.integers(0, 256, size=(6, 7), dtype=np.uint8) for _ in range(20)]
    for crf in (0, 3, 9):
        events = transcode(frames, header(7, 6, crf=crf))
        last = {}
        for e in events:
            key = (e.x, e.y)
            assert e.t > last.get(key, 0)
            last[key] = e.t


def test_constant_run_accounting():
    for value in (1, 17, 48, 223, 255):
        hdr = header(1, 1)
        frames = [np.full((1, 1), value, dtype=np.uint8)] * 12
        events = transcode(frames, hdr)
        emitted_units = sum(1 << e.d for e in events)
        total = 12 * value
        d = value.bit_length() - 1
        assert 0 <= total - emitted_units < (1 << d)
        assert len(events) == run_oracle_count(value, 12)


def test_first_event_fires_inside_opening_span():
    rng = random.Random(21)
    for _ in range(80):
        dt_ref = rng.choice([64, 255, 510])
        dt_max = dt_ref * rng.randrange(1, 12)
        params = ParamSet(rng.randrange(0, 6), rng.randrange(6, 25), rng.randrange(1, 6), 0)
        px = PixelIntegrator(params, dt_ref, dt_max)
        for _ in range(40):
            px.integrate(rng.randrange(0, 256))
            if px.queue:
                assert px.queue[0][1] - px.run_start <= dt_max


def test_lossless_flushes_on_any_change():
    hdr = header(1, 1, crf=0)
    frames = [np.full((1, 1), v, dtype=np.uint8) for v in [40, 40, 41, 41, 41]]
    coder = Transcoder(hdr)
    out = [coder.integrate_frame(f) for f in frames]
    assert out[0] == [] and out[1] == []
    assert len(out[2]) >= 1  # run at 40 flushed when 41 arrives
    assert out[3] == [] and out[4] == []


def test_threshold_growth_step_count():
    params = ParamSet(1, 9, 3, 0)
    px = PixelIntegrator(params, 255, 7650)
    px.integrate(100)
    assert px.m_cur == 1
    for k in range(1, 13):
        px.integrate(100)
        assert px.m_cur == min(1 + k // 3, 9)


def test_growth_counts_reset_on_new_run():
    params = ParamSet(0, 5, 2, 0)
    px = PixelIntegrator(params, 255, 7650)
    for _ in range(5):
        px.integrate(80)
    assert px.m_cur == 2
    px.integrate(200)  # violation opens a fresh run at m_base
    assert px.m_cur == 0


def test_set_sensitivity_changes_next_comparison():
    hdr = header(1, 1, crf=0)
    coder = Transcoder(hdr, ParamSet(0, 4, 1, 0))
    coder.integrate_frame([[100]])
    for _ in range(4):
        coder.integrate_frame([[100]])
    assert coder.pixels[0].m_cur == 4
    assert coder.integrate_frame([[103]]) == []  # absorbed by grown threshold
    coder.set_sensitivity(0, 0, 0)
    assert coder.pixels[0].m_cur == 0
    out = coder.integrate_frame([[103]])  # same deviation now violates
    assert len(out) >= 1


def test_set_sensitivity_respects_radius_and_bounds():
    hdr = header(5, 5, crf=9)
    coder = Transcoder(hdr)
    frame = np.full((5, 5), 50, dtype=np.uint8)
    coder.integrate_frame(frame)
    for _ in range(8):
        coder.integrate_frame(frame)
    grown = coder.pixels[0].m_cur
    assert grown > coder.params.m_base
    coder.set_sensitivity(2, 2, 1, duration=10 * 255)
    for y in range(5):
        for x in range(5):
            px = coder.pixels[y * 5 + x]
            if max(abs(x - 2), abs(y - 2)) <= 1:
                assert px.m_cur == coder.params.m_base
                assert px.m_tgt == coder.params.m_base
            else:
                assert px.m_cur == grown
    coder.set_sensitivity(99, 99, 3)  # out of bounds: no-op with a warning


def test_sensitivity_override_expires():
    params = ParamSet(1, 8, 1, 0)
    px = PixelIntegrator(params, 255, 7650)
    px.integrate(100)
    px.sensitize(2 * 255)
    px.integrate(100)
    assert px.m_tgt == 1 and px.m_cur == 1
    px.integrate(100)  # still inside the override window
    assert px.m_tgt == 1
    px.integrate(100)  # window expired; target reverts and growth resumes
    assert px.m_tgt == 8
    assert px.m_cur == 2


def test_transcode_deterministic():
    rng = np.random.default_rng(9)
    frames = [rng.integers(0, 256, size=(8, 9), dtype=np.uint8) for _ in range(12)]
    hdr = header(9, 8, crf=4)
    a = transcode(frames, hdr)
    b = transcode(frames, hdr)
    assert a == b


def test_emission_order_is_row_major():
    hdr = header(3, 2, crf=0)
    f1 = np.array([[10, 20, 30], [40, 50, 60]], dtype=np.uint8)
    f2 = np.array([[200, 20, 220], [40, 230, 60]], dtype=np.uint8)
    coder = Transcoder(hdr)
    coder.integrate_frame(f1)
    events = coder.integrate_frame(f2)
    flush_pixels = []
    for e in events:
        if (e.x, e.y) not in flush_pixels:
            flush_pixels.append((e.x, e.y))
    assert flush_pixels == [(0, 0), (2, 0), (1, 1)]


def test_single_pixel_transcoder_matches_integrator():
    rng = random.Random(77)
    for trial in range(20):
        params = ParamSet(rng.randrange(0, 4), rng.randrange(4, 20), rng.randrange(1, 5), 0)
        values = [rng.randrange(0, 256) for _ in range(30)]
        hdr = header(1, 1, crf=0)
        coder = Transcoder(hdr, params)
        got = []
        for v in values:
            got.extend((e.d, e.t) for e in coder.integrate_frame([[v]]))
        got.extend((e.d, e.t) for e in coder.flush_all())
        px = PixelIntegrator(params, hdr.dt_ref, hdr.dt_max)
        want = []
        for v in values:
            out = px.integrate(v)
            if out:
                want.extend(out)
        want.extend(px.flush())
        assert got == want

