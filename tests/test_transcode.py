import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evc import (
    EMPTY,
    EVENT,
    ParamSet,
    StreamHeader,
    Transcoder,
    crf_params,
    starting_decimation,
)
from evc.harness import transcode_clip
from transcode_oracle import OracleGrid, PixelIntegrator

LOSSLESS = ParamSet(0, 0, 1)


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
    px = PixelIntegrator(LOSSLESS, dt_ref=256)
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
    px = PixelIntegrator(LOSSLESS, dt_ref=256)
    for _ in range(3):
        assert px.integrate(256) is None
    assert px.d == 8
    assert px.queue == [(8, 256), (9, 768)]
    out = px.integrate(0)  # value leaves the contrast window
    # the flushed queue, then the marker opening the dark run; the marker
    # lands one tick after the colliding final queue entry
    assert out == [(8, 256), (9, 768), (EMPTY, 769)]


def test_going_dark_announces_the_dark_run_immediately():
    px = PixelIntegrator(LOSSLESS, dt_ref=255)
    assert px.integrate(32) is None
    out = px.integrate(0)
    # 32 crosses its threshold exactly at the frame boundary, so the marker
    # is bumped one tick past the colliding queue entry
    assert out == [(5, 255), (EMPTY, 256)]
    # closing the dark run dates its far end, so the next run's first event
    # spans one frame rather than the whole dark spell
    assert px.integrate(64) == [(EMPTY, 510)]
    # a dark run opened at stream start still reports at close
    fresh = PixelIntegrator(LOSSLESS, dt_ref=255)
    assert fresh.integrate(0) is None
    assert fresh.flush() == [(EMPTY, 255)]


def test_starting_decimation_values():
    assert starting_decimation(223) == 7
    assert starting_decimation(1) == 0
    assert starting_decimation(255) == 7
    assert starting_decimation(256) == 8
    assert starting_decimation(1 << 40) == 40
    with pytest.raises(ValueError):
        starting_decimation(0)


def test_stability_raises_final_decimation():
    px = PixelIntegrator(ParamSet(3, 3, 1), dt_ref=255)
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
        out = coder.integrate_frame(f)
        assert out.dtype == EVENT and len(out) == 0
    events = coder.flush_all()
    assert len(events) == 12
    assert np.all(events["d"] == EMPTY)
    assert np.all(events["t"] == 5 * 255)
    # untouched state flushes nothing
    assert len(Transcoder(hdr).flush_all()) == 0


def test_every_pixel_emits_after_constant_frame():
    hdr = header(5, 4)
    events = transcode_clip(hdr, [np.full((4, 5), 17, dtype=np.uint8)])[0]
    assert set(zip(events["x"].tolist(), events["y"].tolist())) == \
        {(x, y) for x in range(5) for y in range(4)}


def test_per_pixel_timestamps_strictly_increase():
    rng = np.random.default_rng(5)
    frames = [rng.integers(0, 256, size=(6, 7), dtype=np.uint8) for _ in range(20)]
    for crf in (0, 3, 9):
        events = transcode_clip(header(7, 6, crf=crf), frames)[0]
        last = {}
        for x, y, _, t in events.tolist():
            assert t > last.get((x, y), 0)
            last[(x, y)] = t


def test_constant_run_accounting():
    for value in (1, 17, 48, 223, 255):
        hdr = header(1, 1)
        frames = [np.full((1, 1), value, dtype=np.uint8)] * 12
        events = transcode_clip(hdr, frames)[0]
        emitted_units = sum(1 << d for d in events["d"].tolist())
        total = 12 * value
        d = value.bit_length() - 1
        assert 0 <= total - emitted_units < (1 << d)
        assert len(events) == run_oracle_count(value, 12)


def test_first_event_fires_inside_opening_span():
    rng = random.Random(21)
    for _ in range(80):
        dt_ref = rng.choice([64, 255, 510])
        params = ParamSet(rng.randrange(0, 6), rng.randrange(6, 25), rng.randrange(1, 6))
        px = PixelIntegrator(params, dt_ref)
        for _ in range(40):
            px.integrate(rng.randrange(0, 256))
            if px.queue:
                # within one dt_ref, and so within any header's dt_max
                assert px.queue[0][1] - px.run_start <= dt_ref


def test_lossless_flushes_on_any_change():
    hdr = header(1, 1, crf=0)
    frames = [np.full((1, 1), v, dtype=np.uint8) for v in [40, 40, 41, 41, 41]]
    coder = Transcoder(hdr)
    out = [len(coder.integrate_frame(f)) for f in frames]
    assert out[0] == 0 and out[1] == 0
    assert out[2] >= 1  # run at 40 flushed when 41 arrives
    assert out[3] == 0 and out[4] == 0


def test_threshold_growth_step_count():
    params = ParamSet(1, 9, 3)
    px = PixelIntegrator(params, 255)
    px.integrate(100)
    assert px.m_cur == 1
    for k in range(1, 13):
        px.integrate(100)
        assert px.m_cur == min(1 + k // 3, 9)


def test_growth_counts_reset_on_new_run():
    params = ParamSet(0, 5, 2)
    px = PixelIntegrator(params, 255)
    for _ in range(5):
        px.integrate(80)
    assert px.m_cur == 2
    px.integrate(200)  # violation opens a fresh run at m_base
    assert px.m_cur == 0


def test_transcode_deterministic():
    rng = np.random.default_rng(9)
    frames = [rng.integers(0, 256, size=(8, 9), dtype=np.uint8) for _ in range(12)]
    hdr = header(9, 8, crf=4)
    a = transcode_clip(hdr, frames)[0]
    b = transcode_clip(hdr, frames)[0]
    assert a.dtype == EVENT and len(a) > 0
    assert np.array_equal(a, b)


def test_emission_order_is_row_major():
    hdr = header(3, 2, crf=0)
    f1 = np.array([[10, 20, 30], [40, 50, 60]], dtype=np.uint8)
    f2 = np.array([[200, 20, 220], [40, 230, 60]], dtype=np.uint8)
    coder = Transcoder(hdr)
    coder.integrate_frame(f1)
    events = coder.integrate_frame(f2)
    flush_pixels = []
    for x, y, _, _ in events.tolist():
        if (x, y) not in flush_pixels:
            flush_pixels.append((x, y))
    assert flush_pixels == [(0, 0), (2, 0), (1, 1)]


def test_single_pixel_transcoder_matches_integrator():
    rng = random.Random(77)
    for trial in range(20):
        params = ParamSet(rng.randrange(0, 4), rng.randrange(4, 20), rng.randrange(1, 5))
        values = [rng.randrange(0, 256) for _ in range(30)]
        hdr = header(1, 1, crf=0)
        coder = Transcoder(hdr, params)
        got = []
        for v in values:
            got.extend(coder.integrate_frame([[v]])[["d", "t"]].tolist())
        got.extend(coder.flush_all()[["d", "t"]].tolist())
        px = PixelIntegrator(params, hdr.dt_ref)
        want = []
        for v in values:
            out = px.integrate(v)
            if out:
                want.extend(out)
        want.extend(px.flush())
        assert got == want


def test_starting_decimation_works_elementwise():
    values = np.array([1, 2, 3, 127, 128, 255])
    want = [starting_decimation(int(v)) for v in values]
    assert starting_decimation(values).tolist() == want
    with pytest.raises(ValueError):
        starting_decimation(np.array([4, 0]))


def test_frame_of_the_wrong_shape_raises_value_error():
    coder = Transcoder(header(3, 3))
    with pytest.raises(ValueError):
        coder.integrate_frame([1, 2, 3])
    with pytest.raises(ValueError):
        coder.integrate_frame(np.zeros((3, 4), np.uint8))
    with pytest.raises(ValueError):
        coder.integrate_frame([[1, 2, 3], [4, 5], [6, 7, 8]])


def run_both(hdr, params, steps):
    """Drive the array transcoder and the oracle grid through ``steps``
    (frames and flushes) and return both event logs."""
    coder = Transcoder(hdr, params)
    oracle = OracleGrid(hdr, params if params is not None else crf_params(hdr.crf))
    got, want = [], []
    for step in steps:
        if step[0] == "frame":
            got.append(coder.integrate_frame(step[1]).tolist())
            want.append(oracle.integrate_frame(step[1]))
        else:
            got.append(coder.flush_all().tolist())
            want.append(oracle.flush_all())
    got.append(coder.flush_all().tolist())
    want.append(oracle.flush_all())
    return got, want


@st.composite
def transcoder_runs(draw):
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    dt_ref = draw(st.sampled_from([1, 7, 255, 256]))
    # a dt_max of one frame is the tightest latency bound a header allows
    dt_max = dt_ref * draw(st.sampled_from([1, 1, 2, 5, 30]))
    crf = draw(st.integers(0, 9))
    hdr = header(width, height, dt_ref=dt_ref, dt_max=dt_max, crf=crf)
    params = None
    if draw(st.booleans()):
        m_base = draw(st.integers(0, 12))
        params = ParamSet(m_base, m_base + draw(st.integers(0, 20)),
                          draw(st.integers(1, 5)))
    value = st.sampled_from([0, 1, 255]) | st.integers(0, 255)
    grid = st.lists(st.lists(value, min_size=width, max_size=width),
                    min_size=height, max_size=height)
    flat = value.map(lambda v: [[v] * width for _ in range(height)])
    frame = st.tuples(st.just("frame"), grid | flat)
    repeat = st.tuples(frame, st.integers(1, 12)).map(lambda fr: [fr[0]] * fr[1])
    step = frame.map(lambda f: [f]) | repeat | st.just([("flush",)])
    steps = [s for chunk in draw(st.lists(step, max_size=16)) for s in chunk]
    return hdr, params, steps


@settings(max_examples=300, deadline=None)
@given(transcoder_runs())
def test_array_transcoder_matches_oracle_grid(run):
    got, want = run_both(*run)
    assert got == want


def test_long_constant_run_grows_the_level_table():
    hdr = header(2, 2)
    # 255 crosses its 2**7 boundary about twice a frame and first needs a
    # wider table near frame 129, when 192's count already has bit 7 set
    frame = [[1, 3], [192, 255]]
    coder = Transcoder(hdr)
    start_width = coder.levels.shape[1]
    for _ in range(1100):
        coder.integrate_frame(frame)
    assert coder.fired.max() > 1 << 10
    assert coder.levels.shape[1] > start_width
    steps = [("frame", frame)] * 140 + [("flush",)] + [("frame", frame)] * 1100
    got, want = run_both(hdr, None, steps)
    assert got == want
    assert len(got[-1]) > 4
