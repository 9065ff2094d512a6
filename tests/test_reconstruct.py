import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evc import (
    EMPTY,
    Detector,
    EVENT,
    PSNR_CAP,
    Reconstructor,
    StreamHeader,
    mse,
    psnr,
    reconstruct_at_boundaries,
    transcode,
)
from evc.reconstruct import replay_batches
from fastdet_oracle import Reconstructor as OracleReconstructor


def header(w=4, h=4, dt_ref=255):
    return StreamHeader(w, h, dt_ref=dt_ref, dt_max=dt_ref * 30, dt_s=dt_ref * 30)


def batch(*rows):
    return np.array(list(rows), EVENT)


def values_one_by_one(recon, rows):
    """Each event's displayed value, the events applied as batches of one."""
    values = []
    for x, y, d, t in rows:
        recon.apply_batch(batch((x, y, d, t)))
        values.append(int(recon.image[y, x]))
    return values


def test_absolute_timestamps_recover_intervals():
    recon = Reconstructor(header(1, 1))
    seq = [(0, 0, 5, 100), (0, 0, 5, 220), (0, 0, 5, 330)]
    values = values_one_by_one(recon, seq)
    # intervals 100, 120, 110 scaled by dt_ref
    assert values == [
        int(32 * 255 / 100 + 0.5),
        int(32 * 255 / 120 + 0.5),
        int(32 * 255 / 110 + 0.5),
    ]


def test_timestamp_corruption_stays_local():
    clean = [(0, 0, 5, 100), (0, 0, 5, 220), (0, 0, 5, 330)]
    corrupt = [(0, 0, 5, 70)] + clean[1:]
    a = Reconstructor(header(1, 1))
    b = Reconstructor(header(1, 1))
    va = values_one_by_one(a, clean)
    vb = values_one_by_one(b, corrupt)
    assert vb[0] > va[0]      # shortened first interval reads brighter
    assert vb[1] < va[1]      # stretched second interval reads darker
    assert vb[2] == va[2]     # third interval is untouched


def test_out_of_order_rejected():
    recon = Reconstructor(header(1, 1))
    recon.apply_batch(batch((0, 0, 5, 100)))
    with pytest.raises(ValueError):
        recon.apply_batch(batch((0, 0, 5, 100)))
    with pytest.raises(ValueError):
        recon.apply_batch(batch((0, 0, 5, 40)))


def test_out_of_order_rejected_from_an_array():
    # The uint32 field would wrap 40 - 100 to a huge positive interval;
    # the check still fires, whether the events come in one batch or two.
    events = np.array([(0, 0, 5, 100), (0, 0, 5, 40)], EVENT)
    recon = Reconstructor(header(1, 1))
    recon.apply_batch(events[:1])
    with pytest.raises(ValueError, match="out-of-order"):
        recon.apply_batch(events[1:])
    with pytest.raises(ValueError, match="t=40 after t=100"):
        Reconstructor(header(1, 1)).apply_batch(events)
    # Replay sorts by t, so only a repeated tick can reach the check.
    repeated = np.array([(0, 0, 5, 100), (0, 0, 6, 100)], EVENT)
    with pytest.raises(ValueError, match="out-of-order"):
        reconstruct_at_boundaries(repeated, header(1, 1), 1)


def test_empty_event_darkens_pixel():
    recon = Reconstructor(header(1, 1))
    recon.apply_batch(batch((0, 0, 6, 255)))
    assert recon.frame_at()[0, 0] > 0
    recon.apply_batch(batch((0, 0, EMPTY, 900)))
    assert recon.frame_at()[0, 0] == 0


def test_pixels_hold_last_value():
    recon = Reconstructor(header(2, 1))
    recon.apply_batch(batch((0, 0, 6, 255)))
    first = recon.frame_at().copy()
    recon.apply_batch(batch((1, 0, 3, 500)))
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
        events = transcode(frames, hdr)
        for snap in reconstruct_at_boundaries(events, hdr, 12):
            assert abs(int(snap[0, 0]) - v) <= 1


@settings(max_examples=300, deadline=None)
@given(dt_ref=st.integers(1, 4), n_frames=st.integers(1, 5),
       ticks=st.lists(st.integers(0, 30), max_size=40))
def test_replay_batches_match_a_per_boundary_filter(dt_ref, n_frames, ticks):
    # ticks come unsorted, land on boundaries k * dt_ref often and run past
    # the last boundary; x tells events with equal t apart
    events = np.array([(i, 0, 5, t) for i, t in enumerate(ticks)], EVENT)
    ordered = sorted(events.tolist(), key=lambda e: e[3])
    expected = [[e for e in ordered
                 if (k == 0 or e[3] > k * dt_ref) and e[3] <= (k + 1) * dt_ref]
                for k in range(n_frames)]
    expected.append([e for e in ordered if e[3] > n_frames * dt_ref])
    batches = list(replay_batches(events, dt_ref, n_frames))
    assert [b.tolist() for b in batches] == expected
    assert all(b.dtype == EVENT for b in batches)


def oracle_error(hdr, rows):
    """The message of the first event the per-event oracle refuses."""
    oracle = OracleReconstructor(hdr)
    try:
        for row in rows:
            oracle.apply_event(*row)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from((0, 1, 2, 3, 65535)),
                               st.sampled_from((0, 1, 2, 4, 65535)),
                               st.sampled_from((0, 5, 127, 128, 200, 254,
                                                EMPTY)),
                               st.integers(0, 12)),
                     min_size=1, max_size=12))
def test_batch_errors_name_the_first_event_the_oracle_refuses(rows):
    # events outside a 3x3 frame, repeated or falling ticks and decimations
    # 128..254, in any mix; the batch raises the oracle's message, for the
    # first refused event, and leaves its state as it was
    hdr = header(3, 3)
    expected = oracle_error(hdr, rows)
    for target in (Reconstructor(hdr), Detector(hdr, retest_neighbors=True)):
        recon = getattr(target, "recon", target)
        recon.apply_batch(batch((1, 1, 5, 3)))
        image, clock = recon.image.copy(), recon.last_t.copy()
        if expected is None:
            target.apply_batch(np.array(rows, EVENT))
            continue
        with pytest.raises(ValueError) as err:
            target.apply_batch(np.array(rows, EVENT))
        assert str(err.value) == oracle_error(hdr, [(1, 1, 5, 3)] + rows)
        assert np.array_equal(recon.image, image)
        assert np.array_equal(recon.last_t, clock)
