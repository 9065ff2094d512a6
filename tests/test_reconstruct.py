import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evc import (
    EMPTY,
    Event,
    PSNR_CAP,
    Reconstructor,
    StreamHeader,
    event_intensity,
    mse,
    psnr,
    reconstruct_at_boundaries,
    transcode,
)
from evc.reconstruct import replay_batches


def header(w=4, h=4, dt_ref=255):
    return StreamHeader(w, h, dt_ref=dt_ref, dt_max=dt_ref * 30, dt_s=dt_ref * 30)


def test_absolute_timestamps_recover_intervals():
    recon = Reconstructor(header(1, 1))
    seq = [Event(0, 0, 5, 100), Event(0, 0, 5, 220), Event(0, 0, 5, 330)]
    values = [recon.apply_event(e) for e in seq]
    # intervals 100, 120, 110 scaled by dt_ref
    assert values == [
        int(32 * 255 / 100 + 0.5),
        int(32 * 255 / 120 + 0.5),
        int(32 * 255 / 110 + 0.5),
    ]


def test_timestamp_corruption_stays_local():
    clean = [Event(0, 0, 5, 100), Event(0, 0, 5, 220), Event(0, 0, 5, 330)]
    corrupt = [Event(0, 0, 5, 70)] + clean[1:]
    a = Reconstructor(header(1, 1))
    b = Reconstructor(header(1, 1))
    va = [a.apply_event(e) for e in clean]
    vb = [b.apply_event(e) for e in corrupt]
    assert vb[0] > va[0]      # shortened first interval reads brighter
    assert vb[1] < va[1]      # stretched second interval reads darker
    assert vb[2] == va[2]     # third interval is untouched


def test_out_of_order_rejected():
    recon = Reconstructor(header(1, 1))
    recon.apply_event(Event(0, 0, 5, 100))
    with pytest.raises(ValueError):
        recon.apply_event(Event(0, 0, 5, 100))
    with pytest.raises(ValueError):
        recon.apply_event(Event(0, 0, 5, 40))


def test_empty_event_darkens_pixel():
    recon = Reconstructor(header(1, 1))
    recon.apply_event(Event(0, 0, 6, 255))
    assert recon.frame_at()[0, 0] > 0
    recon.apply_event(Event(0, 0, EMPTY, 900))
    assert recon.frame_at()[0, 0] == 0


def test_pixels_hold_last_value():
    recon = Reconstructor(header(2, 1))
    recon.apply_event(Event(0, 0, 6, 255))
    first = recon.frame_at().copy()
    recon.apply_event(Event(1, 0, 3, 500))
    assert recon.frame_at()[0, 0] == first[0, 0]


def test_fresh_state_is_black():
    assert np.all(Reconstructor(header()).frame_at() == 0)


def test_mse_psnr_known_values():
    a = np.zeros((10, 10), dtype=np.uint8)
    assert psnr(a, a) == PSNR_CAP
    b = np.full((10, 10), 255, dtype=np.uint8)
    assert mse(a, b) == pytest.approx(255 * 255)
    assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)
    c = a.copy()
    c[3, 4] = 1
    assert mse(a, c) == pytest.approx(0.01)


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
    events = transcode(frames, hdr)
    for snap in reconstruct_at_boundaries(events, hdr, 20):
        assert np.array_equal(snap, frame)


def test_step_between_power_of_two_values_is_exact():
    # power-of-two values put every crossing exactly on a frame boundary, so
    # a run transition leaves no timeline gap and every snapshot is exact
    hdr = header(2, 2)
    f1 = np.full((2, 2), 32, dtype=np.uint8)
    f2 = np.full((2, 2), 128, dtype=np.uint8)
    frames = [f1] * 5 + [f2] * 5
    events = transcode(frames, hdr)
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
    events = transcode(frames, hdr)
    gaps = [e for e in events if e.d == EMPTY]
    assert len(gaps) == 4 and all(e.t == 5 * 255 + 1 for e in gaps)
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
        events = transcode(frames, hdr)
        for snap in reconstruct_at_boundaries(events, hdr, 12):
            assert abs(int(snap[0, 0]) - v) <= 1


@settings(max_examples=300, deadline=None)
@given(dt_ref=st.integers(1, 4), n_frames=st.integers(1, 5),
       ticks=st.lists(st.integers(0, 30), max_size=40))
def test_replay_batches_match_a_per_boundary_filter(dt_ref, n_frames, ticks):
    # ticks come unsorted, land on boundaries k * dt_ref often and run past
    # the last boundary; x tells events with equal t apart
    events = [Event(i, 0, 5, t) for i, t in enumerate(ticks)]
    ordered = sorted(events, key=lambda e: e.t)
    expected = [[e for e in ordered
                 if (k == 0 or e.t > k * dt_ref) and e.t <= (k + 1) * dt_ref]
                for k in range(n_frames)]
    expected.append([e for e in ordered if e.t > n_frames * dt_ref])
    assert list(replay_batches(events, dt_ref, n_frames)) == expected
