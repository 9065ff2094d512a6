import random

import numpy as np
import pytest

from evc import EMPTY, StreamHeader
from evc.fastdet import RING, Detector, detect_frame, is_feature


def header(w, h, crf=0):
    return StreamHeader(w, h, dt_ref=255, dt_max=7650, dt_s=255 * 30, crf=crf)


def flat(w, h, value=0):
    return [[value] * w for _ in range(h)]


def test_ring_is_the_radius_three_circle():
    assert len(RING) == 16
    assert len(set(RING)) == 16
    assert RING[0] == (0, -3)
    for dx, dy in RING:
        assert 8 <= dx * dx + dy * dy <= 10  # radius 3 Bresenham shell
    # symmetric ring: every offset's negation is also on the ring, so the
    # pixels seeing (x, y) in their circle are (x, y) + each offset
    assert {(-dx, -dy) for dx, dy in RING} == set(RING)


def test_uniform_image_has_no_features():
    assert detect_frame(flat(16, 16, 77), threshold=10) == set()


def test_dark_center_bright_circle_is_a_feature():
    img = flat(16, 16, 0)
    for dx, dy in RING:
        img[8 + dy][8 + dx] = 255
    assert is_feature(img, 8, 8, 10)


def test_eight_contiguous_bright_is_not_enough_for_streak_nine():
    for start in range(16):
        img = flat(16, 16, 100)
        for i in range(8):
            dx, dy = RING[(start + i) % 16]
            img[8 + dy][8 + dx] = 255
        assert not is_feature(img, 8, 8, 10), f"rotation {start}"
    for start in range(16):
        img = flat(16, 16, 100)
        for i in range(9):
            dx, dy = RING[(start + i) % 16]
            img[8 + dy][8 + dx] = 255
        assert is_feature(img, 8, 8, 10), f"rotation {start}"


def test_dark_streak_counts_like_bright_streak():
    img = flat(16, 16, 200)
    for i in range(11):
        dx, dy = RING[(3 + i) % 16]
        img[8 + dy][8 + dx] = 40
    assert is_feature(img, 8, 8, 10)


def test_border_pixels_are_never_features():
    img = flat(16, 16, 0)
    for dx, dy in RING:
        img[3 + dy][3 + dx] = 255  # would be a corner if testable
    assert not is_feature(img, 2, 3, 10)
    assert not is_feature(img, 3, 2, 10)
    assert not is_feature(img, 13, 8, 10)
    assert not is_feature(img, 8, 13, 10)


def test_detect_frame_finds_exactly_one_constructed_corner():
    img = flat(16, 16, 50)
    img[8][8] = 200
    assert detect_frame(img, threshold=10) == {(8, 8)}
    assert detect_frame(np.array(img, dtype=np.uint8), 10) == {(8, 8)}


@pytest.mark.parametrize("value, center", [(3, 5), (255, 250)])
def test_uint8_frames_do_not_wrap_the_thresholds(value, center):
    # center -/+ threshold leaves 0..255 here; on uint8 it used to wrap
    # and turn every testable pixel into a corner
    img = flat(16, 16, value)
    img[8][8] = center
    assert detect_frame(img, threshold=10) == set()
    assert detect_frame(np.array(img, dtype=np.uint8), threshold=10) == set()


def test_threshold_is_strict():
    img = flat(16, 16, 100)
    for dx, dy in RING:
        img[8 + dy][8 + dx] = 110  # exactly +threshold: not strictly greater
    assert not is_feature(img, 8, 8, 10)
    for dx, dy in RING:
        img[8 + dy][8 + dx] = 111
    assert is_feature(img, 8, 8, 10)


def random_stream(w, h, n, rng):
    clocks = {}
    events = []
    for _ in range(n):
        x = rng.randrange(w)
        y = rng.randrange(h)
        t = clocks.get((x, y), 0) + rng.randint(1, 300)
        clocks[(x, y)] = t
        d = EMPTY if rng.random() < 0.15 else rng.randrange(11)
        events.append((x, y, d, t))
    return events


def test_exact_mode_tracks_full_frame_detection():
    for seed in range(4):
        rng = random.Random(900 + seed)
        det = Detector(header(24, 20), threshold=10, retest_neighbors=True)
        for i, ev in enumerate(random_stream(24, 20, 2000, rng), start=1):
            det.on_event(*ev)
            if i % 500 == 0:
                assert det.features == detect_frame(det.recon.image, 10), (
                    f"seed {seed}, prefix {i}")


def test_single_pixel_mode_tests_once_per_interior_event():
    rng = random.Random(31)
    det = Detector(header(24, 20), threshold=10)
    interior = 0
    for x, y, d, t in random_stream(24, 20, 1500, rng):
        det.on_event(x, y, d, t)
        if 3 <= x < 21 and 3 <= y < 17:
            interior += 1
    assert det.test_count == interior


def test_exact_mode_work_is_bounded_per_event():
    rng = random.Random(32)
    det = Detector(header(24, 20), threshold=10, retest_neighbors=True)
    n = 1500
    for ev in random_stream(24, 20, n, rng):
        det.on_event(*ev)
    assert det.test_count <= 17 * n


def test_border_event_in_single_pixel_mode_is_free():
    det = Detector(header(16, 16), threshold=10)
    added, removed = det.on_event(0, 0, 7, 100)
    assert (added, removed) == ([], [])
    assert det.test_count == 0


def test_on_event_reports_feature_insertion_and_removal():
    det = Detector(header(16, 16), threshold=10, retest_neighbors=True)
    t = 0
    # hold-last-value reconstruction: one event per ring pixel makes a
    # bright circle around a dark center
    for dx, dy in RING:
        t += 1
        det.on_event(8 + dx, 8 + dy, 10, t)  # displays as 255
    # neighbor retesting picked the dark center up while the ring built
    assert (8, 8) in det.features
    # brightening the center to match the ring dissolves the corner
    added, removed = det.on_event(8, 8, 10, t + 1)
    assert added == [] and removed == [(8, 8)]
    # going dark again re-inserts it
    added, removed = det.on_event(8, 8, EMPTY, t + 2)
    assert added == [(8, 8)] and removed == []
