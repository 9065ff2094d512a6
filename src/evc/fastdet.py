"""Asynchronous FAST corner detection at frame boundaries.

A corner here is a pixel at least 3 pixels inside the border whose
radius-3 Bresenham circle contains at least ``DEFAULT_STREAK`` (9)
circularly contiguous pixels that are all brighter than the center plus a
threshold, or all darker than the center minus it.  The ``Detector``
keeps the corner set of a sequence of images, the image at each frame
boundary, and retests only the pixels that received new events since the
previous boundary: in the default single-pixel (paper) mode those pixels
themselves, in exact mode also every pixel whose ring passes through one
of them, which keeps the set equal to a full scan of the boundary image.
``detect_frame`` is that full scan, one update of every pixel.

``Detector.update`` tests each distinct candidate of a frame once, in one
numpy step: a 4-compass screen, then the full arc test (``ring_corners``)
where two compass points are bright or two dark.  It returns the corners
it freshly inserted, the detector's asynchronous output.
``detect_at_boundaries`` runs a detector over a stream's reconstructed
boundary images, each frame's candidates the pixels of its events, found
with one scatter over the stream.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .events import StreamHeader, window_of

# Radius-3 Bresenham circle, clockwise from straight up (y grows downward).
RING = (
    (0, -3), (1, -3), (2, -2), (3, -1),
    (3, 0), (3, 1), (2, 2), (1, 3),
    (0, 3), (-1, 3), (-2, 2), (-3, 1),
    (-3, 0), (-3, -1), (-2, -2), (-1, -3),
)

DEFAULT_THRESHOLD = 10
DEFAULT_STREAK = 9
# what a changed pixel retests: itself (paper), or also its ring (exact)
MODES = ("paper", "exact")


def ring_corners(center: np.ndarray, ring: np.ndarray,
                 threshold: int) -> np.ndarray:
    """The arc test over gathered values: whether each row of ``ring``
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
    """Incremental FAST detector over a sequence of boundary images.

    Each ``update`` takes the image at a frame boundary and the pixels
    changed since the previous one, and retests only the pixels whose
    corner status those changes can affect.  ``corners`` marks the
    current corner set on the pixel grid; ``test_count`` counts corner
    tests so callers can measure detection work against stream size.
    """

    __slots__ = ("width", "height", "threshold", "corners", "test_count",
                 "_retested", "_ring")

    def __init__(self, header: StreamHeader, threshold: int = DEFAULT_THRESHOLD,
                 mode: str = "paper"):
        if mode not in MODES:
            raise ValueError(f"unknown detector mode {mode!r}; expected one "
                             f"of {', '.join(MODES)}")
        self.width = header.width
        self.height = header.height
        self.threshold = threshold
        self.corners = np.zeros((self.height, self.width), bool)
        self.test_count = 0
        # a changed pixel's candidates: itself, then in exact mode the 16
        # whose ring passes through it, which are its own ring offsets
        self._retested = ((0, 0),) + RING if mode == "exact" else ((0, 0),)
        self._ring = np.array([dx + dy * self.width for dx, dy in RING],
                              np.int64)

    @property
    def features(self) -> set[tuple[int, int]]:
        """The current corner set, as (x, y) pairs."""
        ys, xs = np.nonzero(self.corners)
        return set(zip(xs.tolist(), ys.tolist()))

    def update(self, image, pixels) -> np.ndarray:
        """Retest the candidates of the changed ``pixels`` on ``image``.

        ``image`` holds the frame's values (height x width, or flat in
        row-major order) and ``pixels`` the row-major indices of the
        pixels that changed since the previous call, repeats allowed.  The
        candidates are those pixels, and in exact mode every pixel whose
        ring passes through one of them; each candidate inside the 3-pixel
        border is tested once and counted in ``test_count``.  So in exact
        mode, when ``pixels`` covers every change, ``corners`` ends equal
        to ``detect_frame(image)``.  Returns the row-major indices of the
        corners this call freshly inserted, in ascending order.
        """
        width, height = self.width, self.height
        if not len(pixels) or width < 7 or height < 7:
            return np.empty(0, np.int64)
        changed = np.zeros((height, width), bool)
        changed.reshape(-1)[pixels] = True
        # an interior pixel is a candidate when one of its retested
        # offsets is a changed pixel; those offsets stay inside the frame
        candidate = np.zeros((height - 6, width - 6), bool)
        for dx, dy in self._retested:
            candidate |= changed[3 + dy:height - 3 + dy, 3 + dx:width - 3 + dx]
        ys, xs = np.nonzero(candidate)
        q = (ys + 3) * width + xs + 3
        self.test_count += len(q)

        # any 9-long arc covers two of the four compass points, so test the
        # full ring only where two compass points are bright or two dark
        image = np.asarray(image).reshape(-1)
        center = image[q].astype(np.int64)
        compass = image[q[:, None] + self._ring[::4]]
        maybe = np.flatnonzero(
            ((compass > center[:, None] + self.threshold).sum(1) >= 2)
            | ((compass < center[:, None] - self.threshold).sum(1) >= 2))
        found = np.zeros(len(q), bool)
        found[maybe] = ring_corners(
            center[maybe], image[q[maybe, None] + self._ring], self.threshold)
        corners = self.corners.reshape(-1)
        fresh = q[found & ~corners[q]]
        corners[q] = found
        return fresh


def detect_frame(image, threshold: int) -> np.ndarray:
    """Full-frame scan of ``image`` (a 2-D array or rows of ints): one
    paper-mode ``Detector.update`` of every pixel.  Returns the
    (height, width) bool corner mask, all False for an image under 7
    pixels on a side."""
    image = np.asarray(image)
    height, width = image.shape
    detector = Detector(StreamHeader(width, height), threshold)
    detector.update(image, np.arange(width * height))
    return detector.corners


def detect_at_boundaries(detector: Detector, events: np.ndarray, images,
                         dt_ref: int) -> Iterator[np.ndarray]:
    """Run ``detector`` offline over a stream's boundary images.

    ``images[k]`` is the image reconstructed from ``events`` at boundary
    k, and the candidates of step k are the distinct pixels of the events
    of frame k (``window_of(t, dt_ref) == k``), in any stream order.
    Yields each step's freshly inserted corners.  The events after the
    last boundary are not detected: no image shows them.
    """
    frame = window_of(events["t"], dt_ref)
    kept = frame < len(images)
    pixel = events["y"].astype(np.int64) * detector.width + events["x"]
    changed = np.zeros((len(images), detector.width * detector.height), bool)
    changed[frame[kept], pixel[kept]] = True
    for image, pixels in zip(images, changed):
        yield detector.update(image, np.flatnonzero(pixels))
