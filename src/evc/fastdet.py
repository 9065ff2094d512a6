"""Asynchronous FAST corner detection over a running reconstructed image.

A corner here is a pixel whose radius-3 Bresenham circle contains at least
``DEFAULT_STREAK`` (9) circularly contiguous pixels that are all brighter
than the center plus a threshold, or all darker than the center minus it.
The synchronous ``detect_frame`` scans a whole image; the ``Detector``
instead maintains the feature set incrementally over its reconstructor's
running image, retesting only pixels an incoming event can have affected.
In the default single-pixel mode only the event's own pixel is retested
(cheap, possibly stale elsewhere); in exact mode the 16 surrounding ring
positions are retested too, which keeps the incremental set identical to a
full-frame scan at every step.

``Detector.on_event`` reports each event's feature delta; with feature
adaptation on, ``harness.transcode_clip`` turns each fresh corner into a
sensitivity boost in the transcoder, closing the loop between detection and
event generation.
"""

from __future__ import annotations

from .events import Event, StreamHeader
from .reconstruct import Reconstructor

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


class Detector:
    """Incremental FAST detector fed by an event stream.

    Applies each event to its reconstructor and retests, on the
    reconstructor's running image, the pixels whose corner status the
    event can change.  ``features`` holds the current corner set;
    ``test_count`` counts ``is_feature`` evaluations so callers can measure
    detection work against stream size.
    """

    __slots__ = ("recon", "width", "height", "threshold", "retest_neighbors",
                 "features", "test_count")

    def __init__(self, header: StreamHeader, threshold: int = DEFAULT_THRESHOLD,
                 retest_neighbors: bool = False):
        self.recon = Reconstructor(header)
        self.width = header.width
        self.height = header.height
        self.threshold = threshold
        self.retest_neighbors = retest_neighbors
        self.features: set[tuple[int, int]] = set()
        self.test_count = 0

    def on_event(self, event: Event) -> tuple[list[tuple[int, int]],
                                              list[tuple[int, int]]]:
        """Apply one event and retest affected pixels.

        Returns the feature delta as (added, removed) coordinate lists.  In
        single-pixel mode only the event's pixel is retested; in exact mode
        every pixel whose ring passes through it is retested as well, which
        is what makes the incremental set track the full-frame scan even
        when the changed pixel itself sits too close to the border to test.
        """
        self.recon.apply_event(event)
        x, y = event.x, event.y
        x_hi, y_hi = self.width - 3, self.height - 3
        candidates: list[tuple[int, int]] = []
        if 3 <= x < x_hi and 3 <= y < y_hi:
            candidates.append((x, y))
        if self.retest_neighbors:
            for dx, dy in RING:
                qx, qy = x + dx, y + dy
                if 3 <= qx < x_hi and 3 <= qy < y_hi:
                    candidates.append((qx, qy))
        image = self.recon.image
        added: list[tuple[int, int]] = []
        removed: list[tuple[int, int]] = []
        for q in candidates:
            self.test_count += 1
            if is_feature(image, q[0], q[1], self.threshold):
                if q not in self.features:
                    self.features.add(q)
                    added.append(q)
            elif q in self.features:
                self.features.discard(q)
                removed.append(q)
        return added, removed
