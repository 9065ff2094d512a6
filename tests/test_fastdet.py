import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evc import EMPTY, EVENT, StreamHeader
from evc.fastdet import (
    CHUNK,
    RING,
    Detector,
    detect_frame,
    is_feature,
    ring_corners,
)
from fastdet_oracle import Detector as OracleDetector


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
        stream = np.array(random_stream(24, 20, 2000, rng), EVENT)
        for i in range(0, 2000, 500):
            det.apply_batch(stream[i:i + 500])
            assert det.features == detect_frame(det.recon.image, 10), (
                f"seed {seed}, prefix {i + 500}")


def test_single_pixel_mode_tests_once_per_interior_event():
    rng = random.Random(31)
    det = Detector(header(24, 20), threshold=10)
    stream = random_stream(24, 20, 1500, rng)
    det.apply_batch(np.array(stream, EVENT))
    interior = sum(3 <= x < 21 and 3 <= y < 17 for x, y, _, _ in stream)
    assert det.test_count == interior


def test_exact_mode_work_is_bounded_per_event():
    rng = random.Random(32)
    det = Detector(header(24, 20), threshold=10, retest_neighbors=True)
    n = 1500
    det.apply_batch(np.array(random_stream(24, 20, n, rng), EVENT))
    assert det.test_count <= 17 * n


def test_border_event_in_single_pixel_mode_is_free():
    det = Detector(header(16, 16), threshold=10)
    assert det.apply_batch(np.array([(0, 0, 7, 100)], EVENT)) == set()
    assert det.test_count == 0


def test_on_event_reports_feature_insertion_and_removal():
    det = OracleDetector(header(16, 16), threshold=10, retest_neighbors=True)
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


def test_apply_batch_reports_corners_freshly_inserted_within_it():
    det = Detector(header(16, 16), threshold=10, retest_neighbors=True)
    ring = np.array([(8 + dx, 8 + dy, 10, t)
                     for t, (dx, dy) in enumerate(RING, start=1)], EVENT)
    assert (8, 8) in det.apply_batch(ring)
    # a corner that is removed and re-inserted within one batch counts as
    # freshly inserted, though the set is the same before and after
    again = np.array([(8, 8, 10, 17), (8, 8, EMPTY, 18)], EVENT)
    assert det.apply_batch(again) == {(8, 8)}
    assert (8, 8) in det.features
    # one that only persists does not
    assert det.apply_batch(np.array([(8, 8, EMPTY, 19)], EVENT)) == set()
    # one that is removed is not reported
    assert det.apply_batch(np.array([(8, 8, 10, 20)], EVENT)) == set()
    assert (8, 8) not in det.features


# Displayed values: EMPTY shows 0, d = 127 shows 255, and d = 0 over a long
# interval rounds to 0; the rest spread over the range.
DECIMATIONS = (0, 0, 127, EMPTY, EMPTY, 3, 5, 7, 8, 9, 10, 12)


def oracle_stream(rng, width, height, n_batches, time_order):
    """Batches of events on a few pixels of the frame, each pixel's ticks
    increasing; a batch is in generation order, or sorted by tick."""
    pool = rng.integers(0, width * height, rng.integers(1, 24))
    clock = np.zeros(width * height, np.int64)
    batches = []
    for _ in range(n_batches):
        n = int(rng.choice((0, 1, 5, 40, CHUNK + 70)))
        pixel = rng.choice(pool, n)
        t = np.empty(n, np.int64)
        for i, p in enumerate(pixel):
            clock[p] += rng.choice((1, 2, 255, 256, 700, 5000))
            t[i] = clock[p]
        d = rng.choice(DECIMATIONS, n)
        batch = np.empty(n, EVENT)
        batch["x"], batch["y"] = pixel % width, pixel // width
        batch["d"], batch["t"] = d, t
        if time_order:
            batch = batch[np.argsort(t, kind="stable")]
        batches.append(batch)
    return batches


@settings(max_examples=150, deadline=None)
@given(width=st.integers(1, 14), height=st.integers(1, 14),
       exact=st.booleans(), time_order=st.booleans(),
       threshold=st.sampled_from((0, 10, 40)), seed=st.integers(0, 2**32 - 1))
def test_apply_batch_equals_the_per_event_oracle(width, height, exact,
                                                 time_order, threshold, seed):
    rng = np.random.default_rng(seed)
    hdr = header(width, height)
    det = Detector(hdr, threshold, retest_neighbors=exact)
    oracle = OracleDetector(hdr, threshold, retest_neighbors=exact)
    for batch in oracle_stream(rng, width, height, 4, time_order):
        fresh = set()
        for event in batch.tolist():
            fresh.update(oracle.on_event(*event)[0])
        assert det.apply_batch(batch) == fresh
        assert det.test_count == oracle.test_count
        assert det.features == oracle.features
        assert np.array_equal(det.recon.image, oracle.recon.frame_at())


def test_oracle_stream_reaches_the_cases_the_property_names():
    # batches past one chunk, repeated pixels, both display extremes and
    # fresh corners, in both modes
    rng = np.random.default_rng(7)
    seen = set()
    for exact in (False, True):
        det = OracleDetector(header(14, 14), 10, retest_neighbors=exact)
        for batch in oracle_stream(rng, 14, 14, 40, False):
            if len(batch) > CHUNK:
                seen.add("long")
            if len(set(zip(batch["x"].tolist(), batch["y"].tolist()))) \
                    < len(batch):
                seen.add("repeats")
            for event in batch.tolist():
                added, _ = det.on_event(*event)
                value = det.recon.image[event[1]][event[0]]
                seen.update({0: {"black"}, 255: {"white"}}.get(value, ()))
                if added:
                    seen.add(f"corner {exact}")
    assert seen == {"long", "repeats", "black", "white", "corner False",
                    "corner True"}


@settings(max_examples=200, deadline=None)
@given(width=st.integers(7, 12), height=st.integers(7, 12),
       threshold=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
def test_ring_corners_match_is_feature(width, height, threshold, seed):
    rng = np.random.default_rng(seed)
    palette = np.array((0, 255, 0, 255, 100, 120, 140))
    image = np.where(rng.random((height, width)) < 0.5,
                     rng.choice(palette, (height, width)),
                     rng.integers(0, 256, (height, width))).astype(np.uint8)
    ys, xs = np.mgrid[3:height - 3, 3:width - 3]
    xs, ys = xs.ravel(), ys.ravel()
    dx, dy = np.array(RING).T
    ring = image[ys[:, None] + dy, xs[:, None] + dx]
    found = ring_corners(image[ys, xs], ring, threshold)
    assert found.tolist() == [is_feature(image, x, y, threshold)
                              for x, y in zip(xs.tolist(), ys.tolist())]
