import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evc import (
    EMPTY,
    EVENT,
    PSNR_CAP,
    StreamFormatError,
    StreamHeader,
    build_adus,
    mse,
    reconstruct_at_boundaries,
    synth_clip,
)
from evc.events import D_MAX
from evc.harness import transcode_clip
from fastdet_oracle import display_value, psnr
from fastdet_oracle import reconstruct_at_boundaries as replay_per_event


def header(w=4, h=4, dt_ref=255):
    return StreamHeader(w, h, dt_ref=dt_ref, dt_max=dt_ref * 30, dt_s=dt_ref * 30)


def batch(*rows):
    return np.array(list(rows), EVENT)


def values_one_by_one(hdr, rows):
    """Each event's displayed value: its pixel in the last frame of a
    replay of the events up to it."""
    n_frames = max(t for *_, t in rows) // hdr.dt_ref + 1
    return [int(reconstruct_at_boundaries(batch(*rows[:i + 1]), hdr,
                                          n_frames)[-1, y, x])
            for i, (x, y, _, _) in enumerate(rows)]


def test_absolute_timestamps_recover_intervals():
    seq = [(0, 0, 5, 100), (0, 0, 5, 220), (0, 0, 5, 330)]
    values = values_one_by_one(header(1, 1), seq)
    # intervals 100, 120, 110 scaled by dt_ref
    assert values == [
        int(32 * 255 / 100 + 0.5),
        int(32 * 255 / 120 + 0.5),
        int(32 * 255 / 110 + 0.5),
    ]


def test_timestamp_corruption_stays_local():
    clean = [(0, 0, 5, 100), (0, 0, 5, 220), (0, 0, 5, 330)]
    corrupt = [(0, 0, 5, 70)] + clean[1:]
    va = values_one_by_one(header(1, 1), clean)
    vb = values_one_by_one(header(1, 1), corrupt)
    assert vb[0] > va[0]      # shortened first interval reads brighter
    assert vb[1] < va[1]      # stretched second interval reads darker
    assert vb[2] == va[2]     # third interval is untouched


def test_out_of_order_rejected():
    # a repeated tick, and a first event at tick 0, leave no interval
    with pytest.raises(ValueError, match="t=100 after t=100"):
        reconstruct_at_boundaries(batch((0, 0, 5, 100), (0, 0, 6, 100)),
                                  header(1, 1), 1)
    with pytest.raises(ValueError, match="t=0 after t=0"):
        reconstruct_at_boundaries(batch((0, 0, 5, 0)), header(1, 1), 1)


def test_out_of_order_rejected_from_an_array():
    # The uint32 field would wrap 40 - 100 to a huge positive interval,
    # which shows 0.  Replay takes each pixel's events by tick, so a tick
    # that falls in stream order never reaches that subtraction: the last
    # interval is 60, and only a repeated tick reaches the check.
    hdr = header(1, 1)
    falling = batch((0, 0, 5, 100), (0, 0, 5, 40))
    assert reconstruct_at_boundaries(falling, hdr, 1)[0, 0, 0] == (
        display_value(5, 60, hdr.dt_ref))
    repeated = np.concatenate([falling, batch((0, 0, 6, 40))])
    with pytest.raises(ValueError, match="out-of-order"):
        reconstruct_at_boundaries(repeated, hdr, 1)


def test_empty_event_darkens_pixel():
    frames = reconstruct_at_boundaries(
        batch((0, 0, 6, 255), (0, 0, EMPTY, 900)), header(1, 1), 4)
    assert frames[0, 0, 0] > 0
    assert frames[3, 0, 0] == 0


def test_pixels_hold_last_value():
    frames = reconstruct_at_boundaries(
        batch((0, 0, 6, 255), (1, 0, 3, 500)), header(2, 1), 2)
    assert frames[0, 0, 1] == 0 < frames[0, 0, 0] == frames[1, 0, 0]


def test_fresh_state_is_black():
    frames = reconstruct_at_boundaries(np.empty(0, EVENT), header(), 3)
    assert frames.shape == (3, 4, 4) and np.all(frames == 0)


def test_mse_psnr_known_values():
    a = np.zeros((10, 10), dtype=np.uint8)
    assert psnr(a, a) == PSNR_CAP
    b = np.full((10, 10), 255, dtype=np.uint8)
    assert mse(a, b) == pytest.approx(255 * 255)
    assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)
    c = a.copy()
    c[3, 4] = 1
    assert mse(a, c) == pytest.approx(0.01)


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 5),
                       st.integers(1, 6)),
       seed=st.integers(0, 2**32 - 1))
def test_mse_is_the_float_mean_of_each_frames_squares(shape, seed):
    rng = np.random.default_rng(seed)
    a, b = (rng.integers(0, 256, shape, dtype=np.uint8) for _ in "ab")
    expected = []
    for x, y in zip(a, b):
        diff = x.astype(np.float64) - y.astype(np.float64)
        expected.append(float(np.mean(diff * diff)))
    assert mse(a, b) == expected
    assert [mse(x, y) for x, y in zip(a, b)] == expected


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse(np.zeros((2, 2)), np.zeros((3, 2)))


def test_lossless_static_reconstruction_is_exact():
    # palette restricted to values whose boundary crossings express exactly
    palette = [0, 16, 48, 64, 96, 128, 160, 192]
    frame = np.array([[palette[(x + y) % 8] for x in range(8)] for y in range(6)],
                     dtype=np.uint8)
    hdr = header(8, 6)
    frames = [frame] * 20
    events = transcode_clip(hdr, frames)
    for snap in reconstruct_at_boundaries(events, hdr, 20):
        assert np.array_equal(snap, frame)


def test_step_between_power_of_two_values_is_exact():
    # power-of-two values put every crossing exactly on a frame boundary, so
    # a run transition leaves no timeline gap and every snapshot is exact
    hdr = header(2, 2)
    f1 = np.full((2, 2), 32, dtype=np.uint8)
    f2 = np.full((2, 2), 128, dtype=np.uint8)
    frames = [f1] * 5 + [f2] * 5
    events = transcode_clip(hdr, frames)
    snaps = reconstruct_at_boundaries(events, hdr, 10)
    for k in range(5):
        assert np.array_equal(snaps[k], f1)
    for k in range(5, 10):
        assert np.array_equal(snaps[k], f2)


def test_step_between_unaligned_values_tracks_within_rounding():
    # 48 leaves a sub-boundary remainder when its run closes, so a gap
    # marker re-anchors timing and the next run's first event expresses
    # the new level, off by at most the one tick the marker occupies
    hdr = header(2, 2)
    f1 = np.full((2, 2), 48, dtype=np.uint8)
    f2 = np.full((2, 2), 192, dtype=np.uint8)
    frames = [f1] * 5 + [f2] * 5
    events = transcode_clip(hdr, frames)
    gaps = events[events["d"] == EMPTY]
    assert len(gaps) == 4 and np.all(gaps["t"] == 5 * 255 + 1)
    snaps = reconstruct_at_boundaries(events, hdr, 10)
    for k in range(5):
        assert np.array_equal(snaps[k], f1)
    for k in range(5, 10):
        assert np.all(np.abs(snaps[k].astype(int) - 192) <= 1)
    assert np.array_equal(snaps[9], f2)


def test_static_reconstruction_within_one_unit_for_all_values():
    for v in range(0, 256, 7):
        hdr = header(1, 1)
        frames = [np.full((1, 1), v, dtype=np.uint8)] * 12
        events = transcode_clip(hdr, frames)
        for snap in reconstruct_at_boundaries(events, hdr, 12):
            assert abs(int(snap[0, 0]) - v) <= 1


def outcome(replay, events, hdr, n_frames):
    """The frames a replay gives as one stack, or its ValueError message."""
    try:
        return np.array(replay(events, hdr, n_frames), np.uint8)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from((0, 1, 2, 3, 65535)),
                               st.sampled_from((0, 1, 2, 4, 65535)),
                               st.sampled_from((0, 5, 127, 128, 200, 254,
                                                EMPTY)),
                               st.integers(0, 12)),
                     min_size=1, max_size=12))
def test_one_pass_errors_name_the_first_event_the_oracle_refuses(rows):
    # events outside a 3x3 frame, repeated ticks, ticks at 0 and
    # decimations 128..254, in any mix and over three frames: the replay
    # raises the per-event replay's message, for the first refused event,
    # and build_adus, which sees the same events, raises it too
    hdr = header(3, 3, dt_ref=4)
    events = np.array(rows, EVENT)
    expected = outcome(replay_per_event, events, hdr, 3)
    got = outcome(reconstruct_at_boundaries, events, hdr, 3)
    assert type(got) is type(expected)
    if isinstance(expected, str):
        assert got == expected
        with pytest.raises(StreamFormatError) as info:
            build_adus(events, hdr)
        assert str(info.value) == expected
    else:
        assert np.array_equal(got, expected)
        adus = build_adus(events, hdr)
        assert sum(len(adu.events) for adu in adus) == len(events)


@st.composite
def streams(draw, max_events=30):
    """(header, frame count, events in shuffled order): each pixel's ticks
    are distinct and at least 1, run past the last boundary, and often
    land on a boundary; ``n_frames`` may exceed the stream."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    dt_ref = draw(st.integers(1, 4))
    n_frames = draw(st.integers(1, 6))
    cells = draw(st.lists(st.tuples(st.integers(0, width * height - 1),
                                    st.integers(1, 6 * dt_ref)),
                          unique=True, max_size=max_events))
    decimations = st.sampled_from((0, 1, 5, 7, 30, D_MAX, EMPTY))
    rows = [(p % width, p // width, draw(decimations), t)
            for p, t in draw(st.permutations(cells))]
    return header(width, height, dt_ref), n_frames, rows


@settings(max_examples=400, deadline=None)
@given(stream=streams())
def test_one_pass_equals_the_per_event_replay(stream):
    hdr, n_frames, rows = stream
    events = np.array(rows, EVENT)
    frames = reconstruct_at_boundaries(events, hdr, n_frames)
    assert frames.dtype == np.uint8
    assert frames.shape == (n_frames, hdr.height, hdr.width)
    assert np.array_equal(frames, outcome(replay_per_event, events, hdr,
                                          n_frames))


@settings(max_examples=400, deadline=None)
@given(stream=streams(max_events=12), data=st.data())
def test_one_pass_raises_the_per_event_replays_error(stream, data):
    # one corrupt event: a repeated tick of an event, a pixel outside the
    # image, a decimation of 128..254, or a pixel's first event at tick 0
    hdr, n_frames, rows = stream
    kind = data.draw(st.sampled_from(("repeat", "outside", "d", "zero")))
    tick = data.draw(st.integers(1, 6 * hdr.dt_ref))
    if kind == "repeat" and rows:
        x, y, d, tick = data.draw(st.sampled_from(rows))
        bad = (x, y, 5 if d != 5 else 6, tick)
    elif kind == "outside":
        bad = (data.draw(st.sampled_from((hdr.width, 65535))),
               data.draw(st.integers(0, hdr.height)), 5, tick)
    elif kind == "d":
        bad = (0, 0, data.draw(st.integers(D_MAX + 1, EMPTY - 1)), tick)
    else:
        tick, bad = 0, (data.draw(st.integers(0, hdr.width - 1)), 0, 5, 0)
    at = data.draw(st.integers(0, len(rows)))
    events = np.array(rows[:at] + [bad] + rows[at:], EVENT)
    expected = outcome(replay_per_event, events, hdr, n_frames)
    got = outcome(reconstruct_at_boundaries, events, hdr, n_frames)
    if tick <= n_frames * hdr.dt_ref:
        assert isinstance(expected, str)
    else:
        assert not isinstance(expected, str)
    assert type(got) is type(expected)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert np.array_equal(got, expected)


# Measured peaks above the output: 41 B per event on the walk clip, 37 on
# the static one (51 on a 64x48 moving_box clip).
BYTES_PER_EVENT = 64
SLACK = 64 * 1024


@pytest.mark.parametrize("kind, size", [("walk", (16, 16, 40)),
                                        ("static", (64, 48, 150))])
def test_replay_peak_memory_is_the_output_plus_a_bound_per_event(kind, size):
    # walk's events outweigh its frames; static's 150 frames outweigh its
    # events, so a frame-sized buffer wider than uint8 would break the bound
    frames = synth_clip(kind, *size, seed=1)
    hdr = header(*size[:2])
    events = transcode_clip(hdr, frames)
    tracemalloc.start()
    try:
        out = reconstruct_at_boundaries(events, hdr, len(frames))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dtype == np.uint8
    assert peak <= out.nbytes + BYTES_PER_EVENT * len(events) + SLACK
