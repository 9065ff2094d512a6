"""Asynchronous FAST corner detection over a running reconstructed image.

A corner here is a pixel whose radius-3 Bresenham circle contains at least
``DEFAULT_STREAK`` (9) circularly contiguous pixels that are all brighter
than the center plus a threshold, or all darker than the center minus it.
The synchronous ``detect_frame`` scans a whole image with the scalar
``is_feature``; the ``Detector`` instead maintains the corner set
incrementally over its reconstructor's running image, retesting only the
pixels an incoming event can have affected.  In the default single-pixel
mode only the event's own pixel is retested (cheap, possibly stale
elsewhere); in exact mode the 16 surrounding ring positions are retested
too, which keeps the incremental set identical to a full-frame scan after
every event.

Semantics are per event, work is per batch.  ``Detector.apply_batch``
takes all the events up to a frame boundary in one numpy step.  It pairs
each event with each pixel it retests, reads each pair's ring as the image
stood right after that event, runs the arc test on all pairs at once, and
chains the findings on each pixel in event order.  So the corner set and
the test count end exactly as a per-event replay leaves them, and the
corners returned are those some event freshly inserted.  With feature
adaptation on, ``harness.transcode_clip`` turns each of them into a
sensitivity boost in the transcoder, closing the loop between detection
and event generation.
"""

from __future__ import annotations

import numpy as np

from .events import StreamHeader
from .reconstruct import Reconstructor, group_by_pixel

# Radius-3 Bresenham circle, clockwise from straight up (y grows downward).
RING = (
    (0, -3), (1, -3), (2, -2), (3, -1),
    (3, 0), (3, 1), (2, 2), (1, 3),
    (0, 3), (-1, 3), (-2, 2), (-3, 1),
    (-3, 0), (-3, -1), (-2, -2), (-1, -3),
)

DEFAULT_THRESHOLD = 10
DEFAULT_STREAK = 9


def _longest_circular_run(flags: list[bool]) -> int:
    best = 0
    cur = 0
    for f in flags + flags:
        if f:
            cur += 1
            if cur > best:
                best = cur
        else:
            cur = 0
    return min(best, len(flags))


def is_feature(image, x: int, y: int, threshold: int) -> bool:
    """Test one pixel of a row-major image (rows of ints or a 2-D array);
    border pixels are never corners."""
    height = len(image)
    width = len(image[0])
    if x < 3 or y < 3 or x >= width - 3 or y >= height - 3:
        return False
    # Python ints, so a uint8 center cannot wrap around 0 or 255.
    center = int(image[y][x])
    hi = center + threshold
    lo = center - threshold
    # Any 9-long arc covers at least two of the four compass points, so
    # fewer than two bright and two dark compass points means no corner.
    bright = 0
    dark = 0
    for dx, dy in (RING[0], RING[4], RING[8], RING[12]):
        v = image[y + dy][x + dx]
        if v > hi:
            bright += 1
        elif v < lo:
            dark += 1
    if bright < 2 and dark < 2:
        return False
    ring = [image[y + dy][x + dx] for dx, dy in RING]
    if _longest_circular_run([v > hi for v in ring]) >= DEFAULT_STREAK:
        return True
    return _longest_circular_run([v < lo for v in ring]) >= DEFAULT_STREAK


def detect_frame(image, threshold: int) -> set[tuple[int, int]]:
    """Synchronous full-image scan; the oracle the async path is held to."""
    height = len(image)
    width = len(image[0])
    found: set[tuple[int, int]] = set()
    for y in range(3, height - 3):
        for x in range(3, width - 3):
            if is_feature(image, x, y, threshold):
                found.add((x, y))
    return found


# Events per detection step.  A step holds (pairs x 17) temporaries, and a
# batch such as the final flush can hold thousands of events; fewer steps
# cost fewer numpy calls.
CHUNK = 256


def ring_corners(center: np.ndarray, ring: np.ndarray,
                 threshold: int) -> np.ndarray:
    """``is_feature`` over gathered values: whether each row of ``ring``
    (16 values in ``RING`` order) holds ``DEFAULT_STREAK`` circularly
    contiguous values all above its ``center`` plus the threshold, or all
    below it minus the threshold."""
    center = np.asarray(center, np.int64)[:, None]
    return (_has_arc(ring > center + threshold)
            | _has_arc(ring < center - threshold))


def _has_arc(flags: np.ndarray) -> np.ndarray:
    # the 16 flags as bits, twice over, so that an arc may wrap past bit 15
    bits = np.packbits(flags, axis=1, bitorder="little").view("<u2")[:, 0]
    bits = bits.astype(np.uint32) * 0x10001
    run = bits
    for shift in range(1, DEFAULT_STREAK):
        run = run & (bits >> shift)
    return run != 0


class Detector:
    """Incremental FAST detector fed by batches of events.

    Applies each batch to its reconstructor and retests, on the
    reconstructor's running image, the pixels whose corner status the
    batch's events can change.  ``corners`` marks the current corner set
    on the pixel grid; ``test_count`` counts corner tests so callers can
    measure detection work against stream size.
    """

    __slots__ = ("recon", "width", "height", "threshold", "retest_neighbors",
                 "corners", "test_count", "_dx", "_dy", "_ring", "_slot")

    def __init__(self, header: StreamHeader, threshold: int = DEFAULT_THRESHOLD,
                 retest_neighbors: bool = False):
        self.recon = Reconstructor(header)
        self.width = header.width
        self.height = header.height
        self.threshold = threshold
        self.retest_neighbors = retest_neighbors
        self.corners = np.zeros((self.height, self.width), bool)
        self.test_count = 0
        # the pixels an event retests: its own, then in exact mode the 16
        # whose ring passes through it, which are its own ring offsets
        retested = ((0, 0),) + RING if retest_neighbors else ((0, 0),)
        self._dx, self._dy = np.array(retested, np.int64).T
        self._ring = np.array([dx + dy * self.width for dx, dy in RING],
                              np.int64)
        # each pixel's rank among the pixels a step touches, else -1
        self._slot = np.full(self.width * self.height, -1, np.int32)

    @property
    def features(self) -> set[tuple[int, int]]:
        """The current corner set, as (x, y) pairs."""
        ys, xs = np.nonzero(self.corners)
        return set(zip(xs.tolist(), ys.tolist()))

    def apply_batch(self, events: np.ndarray) -> set[tuple[int, int]]:
        """Apply an ``EVENT`` array and retest the pixels it can affect.

        The outcome is that of applying the events one at a time and,
        after each, testing its pixel (and in exact mode the 16 pixels
        whose ring passes through it) on the image as it then stands:
        ``corners`` and ``test_count`` end as that sequence leaves them.
        Returns the corners that some event of the batch freshly inserted,
        that is, found while not in the set just before.
        """
        if not len(events):
            return set()
        pixel, value = self.recon.advance(events)
        added = []
        for lo in range(0, len(pixel), CHUNK):
            added.append(self._step(pixel[lo:lo + CHUNK],
                                    value[lo:lo + CHUNK]))
            self.recon.paint(pixel[lo:lo + CHUNK], value[lo:lo + CHUNK])
        added = np.concatenate(added)
        return set(zip((added % self.width).tolist(),
                       (added // self.width).tolist()))

    def _step(self, pixel: np.ndarray, value: np.ndarray) -> np.ndarray:
        """Test every (event, candidate) pair of one chunk, whose events
        the image does not hold yet; returns the freshly inserted corners'
        pixel indices."""
        n = len(pixel)
        width = self.width
        image = self.recon.image.reshape(-1)
        # each pixel the chunk touches, with its first and last event
        order, sorted_pixel, first, last = group_by_pixel(pixel)
        touched = sorted_pixel[first]
        first_event, last_event = order[first], order[last]
        final = value[last_event]
        # (pixel's rank, event) keys of the events, in ascending order
        key = (np.cumsum(first) - 1) * n + order
        slot = self._slot
        slot[touched] = np.arange(len(touched))

        def at(where, j):
            # pixels ``where`` as the image stands right after event ``j``:
            # a touched pixel's final value once its last event is past,
            # its start value before its first, else the value of its
            # latest event, found by a search
            g = slot[where]
            j = np.broadcast_to(j, where.shape)
            moved = g >= 0
            out = np.where(moved & (last_event[g] <= j), final[g], image[where])
            open_ = moved & (first_event[g] <= j) & (last_event[g] > j)
            if open_.any():
                pos = np.searchsorted(key, g[open_] * n + j[open_],
                                      side="right") - 1
                out[open_] = value[order[pos]]
            return out

        # the (event, candidate) pairs, in application order
        x, y = pixel % width, pixel // width
        qx = x[:, None] + self._dx
        qy = y[:, None] + self._dy
        inside = ((qx >= 3) & (qx < width - 3)
                  & (qy >= 3) & (qy < self.height - 3))
        j, k = np.nonzero(inside)
        self.test_count += len(j)
        q = qy[j, k] * width + qx[j, k]

        # any 9-long arc covers two of the four compass points, so test the
        # full ring only where two compass points are bright or two dark
        center = at(q, j).astype(np.int64)[:, None]
        compass = at(q[:, None] + self._ring[::4], j[:, None])
        maybe = np.flatnonzero(
            ((compass > center + self.threshold).sum(1) >= 2)
            | ((compass < center - self.threshold).sum(1) >= 2))
        found = np.zeros(len(q), bool)
        found[maybe] = ring_corners(
            center[maybe, 0],
            at(q[maybe, None] + self._ring, j[maybe, None]), self.threshold)

        # each pair's membership before it: the previous pair's finding on
        # the same pixel, else the corner set before the chunk
        order, q, first, last = group_by_pixel(q)
        found = found[order]
        corners = self.corners.reshape(-1)
        before = np.empty(len(q), bool)
        before[1:] = found[:-1]
        before[first] = corners[q[first]]
        corners[q[last]] = found[last]
        slot[touched] = -1
        return q[found & ~before]
