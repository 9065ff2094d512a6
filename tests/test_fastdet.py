import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evc import EMPTY, EVENT, StreamHeader, reconstruct_at_boundaries
from evc import fastdet
from evc.fastdet import (MODES, RING, Detector, detect_at_boundaries,
                         ring_corners)
from fastdet_oracle import candidates, detect_frame, is_feature


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


def both_scans(image, threshold):
    """The corners of ``image`` as (x, y) pairs by the numpy scan, then by
    the scalar one."""
    ys, xs = np.nonzero(fastdet.detect_frame(image, threshold))
    return set(zip(xs.tolist(), ys.tolist())), detect_frame(image, threshold)


def test_uniform_image_has_no_features():
    assert both_scans(flat(16, 16, 77), threshold=10) == (set(), set())


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
    assert both_scans(img, threshold=10) == ({(8, 8)}, {(8, 8)})
    assert both_scans(np.array(img, dtype=np.uint8), 10) == ({(8, 8)},
                                                             {(8, 8)})


def edge_image(rng, width, height, threshold):
    """A blocky uint8 image, whose block corners make FAST corners, in
    values at and one past a base value plus or minus ``threshold``, where
    the strict comparisons flip, and at 0 and 255, with a sprinkle of any
    value."""
    base = int(rng.integers(0, 256))
    steps = np.array((-threshold - 1, -threshold, 0, threshold, threshold + 1))
    palette = np.append(np.clip(base + steps, 0, 255), (0, 255))
    block = int(rng.integers(1, 7))
    coarse = rng.choice(palette, (height // block + 1, width // block + 1))
    image = coarse.repeat(block, 0).repeat(block, 1)[:height, :width]
    noise = rng.random((height, width)) < 0.1
    image[noise] = rng.integers(0, 256, noise.sum())
    return image.astype(np.uint8)


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 24), height=st.integers(1, 24),
       threshold=st.integers(0, 40), rows=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_detect_frame_equals_the_scalar_scan(width, height, threshold, rows,
                                             seed):
    # a uint8 array or rows of ints, frames under 7 pixels on a side too
    image = edge_image(np.random.default_rng(seed), width, height, threshold)
    if rows:
        image = image.tolist()
    mask = fastdet.detect_frame(image, threshold)
    assert mask.dtype == bool and mask.shape == (height, width)
    ys, xs = np.nonzero(mask)
    assert set(zip(xs.tolist(), ys.tolist())) == detect_frame(image, threshold)


def test_edge_images_reach_the_cases_the_scan_property_names():
    # corners, corners that one more level of threshold removes, and the
    # display extremes
    seen = set()
    rng = np.random.default_rng(11)
    for _ in range(40):
        threshold = int(rng.integers(0, 41))
        image = edge_image(rng, 24, 20, threshold)
        found = detect_frame(image, threshold)
        if found:
            seen.add("corners")
        if found - detect_frame(image, threshold + 1):
            seen.add("threshold edge")
        seen.update({0, 255} & set(image.reshape(-1).tolist()))
    assert seen == {"corners", "threshold edge", 0, 255}


@pytest.mark.parametrize("value, center", [(3, 5), (255, 250)])
def test_uint8_frames_do_not_wrap_the_thresholds(value, center):
    # center -/+ threshold leaves 0..255 here; on uint8 it used to wrap
    # and turn every testable pixel into a corner
    img = flat(16, 16, value)
    img[8][8] = center
    assert both_scans(img, threshold=10) == (set(), set())
    assert both_scans(np.array(img, dtype=np.uint8), 10) == (set(), set())


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
    # offline, on the boundary images of a random stream
    hdr = StreamHeader(24, 20, dt_ref=50, dt_max=1500, dt_s=1500)
    for seed in range(4):
        rng = random.Random(900 + seed)
        events = np.array(random_stream(24, 20, 2000, rng), EVENT)
        n_frames = int(events["t"].max()) // hdr.dt_ref
        images = reconstruct_at_boundaries(events, hdr, n_frames)
        det = Detector(hdr, threshold=10, mode="exact")
        steps = detect_at_boundaries(det, events, images, hdr.dt_ref)
        for k, _ in enumerate(steps):
            assert det.features == detect_frame(images[k], 10), (
                f"seed {seed}, frame {k}")
        assert k == n_frames - 1 > 10


@settings(max_examples=300, deadline=None)
@given(width=st.integers(7, 11), height=st.integers(7, 10),
       dt_ref=st.integers(1, 4), n_frames=st.integers(1, 5),
       exact=st.booleans(), data=st.data())
def test_detect_at_boundaries_retests_each_frames_event_pixels(
        width, height, dt_ref, n_frames, exact, data):
    # unsorted ticks at 0, on the boundaries k * dt_ref and past the last
    # one: step k retests the candidates of the pixels of frame k's events
    # (k * dt_ref < t <= (k + 1) * dt_ref, and tick 0 in frame 0)
    cells = data.draw(st.lists(st.tuples(
        st.integers(0, width - 1), st.integers(0, height - 1),
        st.integers(0, (n_frames + 2) * dt_ref)), max_size=40))
    events = np.array([(x, y, 5, t) for x, y, t in cells], EVENT)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    images = rng.choice(np.array((0, 0, 255, 255, 128), np.uint8),
                        (n_frames, height, width))
    det = Detector(header(width, height), 10, MODES[exact])
    corners, seen, steps = set(), 0, 0
    for k, fresh in enumerate(detect_at_boundaries(det, events, images,
                                                   dt_ref)):
        pixels = [y * width + x for x, y, t in cells
                  if k * dt_ref < t <= (k + 1) * dt_ref or k == t == 0]
        tested = candidates(pixels, width, height, exact)
        found = {q for q in tested if is_feature(images[k], *q, 10)}
        expected = (corners - tested) | found
        assert det.test_count - seen == len(tested)
        assert det.features == expected
        assert fresh.tolist() == sorted(y * width + x
                                        for x, y in expected - corners)
        corners, seen, steps = expected, det.test_count, steps + 1
    assert steps == n_frames


def pixels_of(stream, width):
    return np.array([y * width + x for x, y, _, _ in stream], np.int64)


def test_single_pixel_mode_tests_once_per_interior_event():
    # the per-event form tested each interior event's pixel; a frame step
    # tests each distinct interior pixel once, however many events it got
    rng = random.Random(31)
    for n in (20, 1500):
        det = Detector(header(24, 20), threshold=10)
        stream = random_stream(24, 20, n, rng)
        det.update(np.zeros((20, 24), np.uint8), pixels_of(stream, 24))
        interior = [(x, y) for x, y, _, _ in stream
                    if 3 <= x < 21 and 3 <= y < 17]
        assert det.test_count == len(set(interior))
    assert len(set(interior)) < len(interior)


def test_exact_mode_work_is_bounded_per_event():
    # at most 17 tests per event, and at most one per interior pixel
    rng = random.Random(32)
    for n in (1, 5, 40, 1500):
        det = Detector(header(24, 20), threshold=10, mode="exact")
        pixels = pixels_of(random_stream(24, 20, n, rng), 24)
        det.update(np.zeros((20, 24), np.uint8), pixels)
        assert det.test_count <= min(17 * n, 18 * 14)
    assert det.test_count == 18 * 14


@pytest.mark.parametrize("mode", ["Exact", "", "full"])
def test_unknown_mode_is_refused(mode):
    with pytest.raises(ValueError, match="unknown detector mode"):
        Detector(header(16, 16), 10, mode)


def test_border_event_in_single_pixel_mode_is_free():
    det = Detector(header(16, 16), threshold=10)
    assert det.update(np.zeros((16, 16), np.uint8), [0]).tolist() == []
    assert det.test_count == 0


def bright_ring():
    """A 16x16 image with a bright circle around a dark (8, 8), and the
    row-major indices of the circle."""
    image = np.zeros((16, 16), np.uint8)
    ring = [(8 + dy) * 16 + 8 + dx for dx, dy in RING]
    image.reshape(-1)[ring] = 255
    return image, ring


def test_on_event_reports_feature_insertion_and_removal():
    det = Detector(header(16, 16), threshold=10, mode="exact")
    image, ring = bright_ring()
    # the circle's pixels changed, and retesting the pixels whose ring
    # passes through them picked the dark center up
    assert 8 * 16 + 8 in det.update(image, ring)
    assert (8, 8) in det.features
    # brightening the center to match the ring dissolves the corner, which
    # leaves the set and is not reported
    image[8, 8] = 255
    assert 8 * 16 + 8 not in det.update(image, [8 * 16 + 8])
    assert (8, 8) not in det.features
    # going dark again re-inserts it
    image[8, 8] = 0
    assert 8 * 16 + 8 in det.update(image, [8 * 16 + 8])
    assert det.features == detect_frame(image, 10)


def test_apply_batch_reports_corners_freshly_inserted_within_it():
    # ``update`` returns the corners found while not in the set before it
    det = Detector(header(16, 16), threshold=10, mode="exact")
    image, ring = bright_ring()
    fresh = det.update(image, ring)
    assert fresh.tolist() == sorted(y * 16 + x for x, y in det.features)
    # retesting corners that stay in the set reports none of them
    assert det.update(image, ring).tolist() == []
    assert det.update(image, np.arange(256)).tolist() == []
    # one that is removed is not reported either
    image[8, 8] = 255
    assert det.update(image, [8 * 16 + 8]).tolist() == []


def boundary_steps(rng, width, height, n_steps):
    """Boundary images rich in 0 and 255, each with the changed pixels a
    step gets: none, some border pixels, the whole frame, or a random
    draw with repeats.  Only listed pixels change, though a listed pixel
    may keep its value.  Yields (kind, image, pixels), the image as uint8
    rows or, like the transcoder's run values, as a flat int64 array."""
    palette = np.array((0, 255, 0, 255, 100, 120, 140))
    n = width * height
    ys, xs = np.divmod(np.arange(n), width)
    border = np.flatnonzero((xs < 3) | (ys < 3) | (xs >= width - 3)
                            | (ys >= height - 3))
    image = np.zeros(n, np.uint8)
    for _ in range(n_steps):
        kind = rng.choice(("empty", "border", "whole", "some", "some"))
        if kind == "empty":
            pixels = np.empty(0, np.int64)
        elif kind == "border":
            pixels = rng.choice(border, rng.integers(1, len(border) + 1))
        elif kind == "whole":
            pixels = np.arange(n)
        else:
            pixels = rng.integers(0, n, rng.integers(1, 2 * n + 1))
        k = len(pixels)
        image = image.copy()
        image[pixels] = np.where(rng.random(k) < 0.6, rng.choice(palette, k),
                                 rng.integers(0, 256, k))
        if rng.random() < 0.5:
            yield kind, image.reshape(height, width), pixels
        else:
            yield kind, image.astype(np.int64), pixels


@settings(max_examples=150, deadline=None)
@given(width=st.integers(1, 14), height=st.integers(1, 14),
       exact=st.booleans(), threshold=st.sampled_from((0, 10, 40)),
       seed=st.integers(0, 2**32 - 1))
def test_apply_batch_equals_the_per_event_oracle(width, height, exact,
                                                 threshold, seed):
    # the frame step against the scalar test of its candidates: each
    # candidate's membership becomes ``is_feature`` of it, every other
    # pixel's stays, and the step returns exactly the fresh insertions
    rng = np.random.default_rng(seed)
    det = Detector(header(width, height), threshold, MODES[exact])
    corners = set()
    for _, image, pixels in boundary_steps(rng, width, height, 5):
        rows = image.reshape(height, width)
        tested = candidates(pixels, width, height, exact)
        found = {q for q in tested if is_feature(rows, *q, threshold)}
        expected = (corners - tested) | found
        seen = det.test_count
        fresh = det.update(image, pixels)
        assert det.features == expected
        assert det.test_count - seen == len(tested)
        assert fresh.tolist() == sorted(y * width + x
                                        for x, y in expected - corners)
        if exact:
            assert det.features == detect_frame(rows, threshold)
        corners = expected


def test_oracle_stream_reaches_the_cases_the_property_names():
    # empty, border-only, whole-frame and repeating candidate sets, both
    # image forms and display extremes, frames with and without an
    # interior, and fresh insertions and removals in both modes
    seen = set()
    for width, height in ((14, 14), (9, 5)):
        rng = np.random.default_rng(7)
        for exact in (False, True):
            det = Detector(header(width, height), 10, MODES[exact])
            for kind, image, pixels in boundary_steps(rng, width, height, 40):
                seen.add(kind)
                seen.add(image.ndim)
                if len(pixels) > len(set(pixels.tolist())):
                    seen.add("repeats")
                seen.update({"black", "white"} & {
                    {0: "black", 255: "white"}.get(v) for v in
                    image.reshape(-1)[pixels].tolist()})
                before = det.corners.copy()
                if len(det.update(image, pixels)):
                    seen.add(f"fresh {exact} {height}")
                if (before & ~det.corners).any():
                    seen.add(f"removal {exact}")
    assert seen == {"empty", "border", "whole", "some", 1, 2, "repeats",
                    "black", "white", "fresh False 14", "fresh True 14",
                    "removal False", "removal True"}


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
