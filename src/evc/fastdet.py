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

One kernel tests candidates given as flat indices into a stack of uint8
images, each distinct candidate of a frame once: a compass screen, which
passes a candidate where two compass points four apart are both bright or
both dark, as every 9-long arc covers such a pair, then the full arc test,
which packs the ring's 16 bright and 16 dark flags into two codes and
looks each up in a 65,536-entry table.  The thresholds are clamped to
0..255 in uint8, which keeps every comparison exact.  One stepper runs
the kernel: it checks the image stack once, before any boundary is
applied, tests consecutive boundaries in batches of a bounded number of
candidates, one kernel call each, then applies each boundary's results
in order and yields the corners it freshly inserted, the detector's
asynchronous output.  ``Detector.update`` is one step of it, on one
image.  ``detect_at_boundaries`` runs it over a stream's reconstructed
boundary images, each frame's candidates the pixels of its events, found
with one scatter over the stream.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache

import numpy as np

from .events import (StreamHeader, checked_order, frame_groups,
                     uint8_images, window_of)

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


# Candidates one kernel call tests at most: a batch of boundaries stops
# below it, though a boundary with more is a batch of its own.
_BATCH = 1 << 13


@cache
def _arc_table() -> np.ndarray:
    """Whether each 16-bit ring code holds ``DEFAULT_STREAK`` circularly
    contiguous set bits, for every code.  Built on first use."""
    table = np.empty(1 << 16, bool)
    # a chunk of codes at a time keeps the temporaries small; each code
    # twice over, so that an arc may wrap past bit 15
    for lo in range(0, 1 << 16, 1 << 12):
        bits = np.arange(lo, lo + (1 << 12), dtype=np.uint32) * 0x10001
        run = bits.copy()
        for shift in range(1, DEFAULT_STREAK):
            run &= bits >> shift
        table[lo:lo + (1 << 12)] = run != 0
    table.flags.writeable = False
    return table


def _bounds(center, threshold: int):
    """``center`` plus and minus ``threshold``, clamped to 0..255: a value
    in 0..255 cannot pass a bound outside that range, so comparisons with
    the clamped bounds are exact, and in uint8 nothing wraps."""
    t = min(threshold, 255)
    return np.minimum(center, 255 - t) + t, np.maximum(center, t) - t


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
        if threshold < 0:
            raise ValueError(f"FAST threshold {threshold} is negative")
        self.width = header.width
        self.height = header.height
        self.threshold = threshold
        self.corners = np.zeros((self.height, self.width), bool)
        self.test_count = 0
        # a changed pixel's candidates: itself, then in exact mode the 16
        # whose ring passes through it, which are its own ring offsets
        self._retested = ((0, 0),) + RING if mode == "exact" else ((0, 0),)
        self._ring = [dx + dy * self.width for dx, dy in RING]

    @property
    def features(self) -> set[tuple[int, int]]:
        """The current corner set, as (x, y) pairs."""
        ys, xs = np.nonzero(self.corners)
        return set(zip(xs.tolist(), ys.tolist()))

    def update(self, image, pixels) -> np.ndarray:
        """Retest the candidates of the changed ``pixels`` on ``image``.

        ``image`` holds the frame's 8-bit values (height x width) and
        ``pixels`` the row-major indices of the pixels that changed since
        the previous call, repeats allowed; anything else raises
        ValueError.  The candidates are those pixels, and in exact mode
        every pixel whose ring passes through one of them; each candidate
        inside the 3-pixel border is tested once and counted in
        ``test_count``.  So in exact mode, when ``pixels`` covers every
        change, ``corners`` ends equal to ``detect_frame(image)``.  Returns
        the row-major indices of the corners this call freshly inserted,
        in ascending order.
        """
        pixels = np.asarray(pixels, np.int64)
        if pixels.size and (pixels.min() < 0
                            or pixels.max() >= self.corners.size):
            raise ValueError(f"pixel indices must lie in "
                             f"0..{self.corners.size - 1}")
        changed = np.zeros((1,) + self.corners.shape, bool)
        changed.reshape(-1)[pixels] = True
        return next(self._steps(uint8_images(image, "image")[None],
                                self._candidates(changed)))

    def _steps(self, images, candidate: np.ndarray) -> Iterator[np.ndarray]:
        """Test the ``candidate`` masks, one per image of ``images``, and
        yield each boundary's fresh corners in order.  The images are
        checked once, before any boundary is applied.  Consecutive
        boundaries are tested in batches of up to ``_BATCH`` candidates,
        one ``_arc_test`` each; then each boundary's results are applied
        in turn."""
        images = uint8_images(images, "images")
        if images.shape != candidate.shape:
            raise ValueError(f"images of shape {images.shape} do not fit "
                             f"the detector's {candidate.shape}")
        area = self.corners.size
        counts = np.count_nonzero(candidate.reshape(len(candidate), area),
                                  axis=1)
        for lo, hi in frame_groups(counts, _BATCH):
            q = np.flatnonzero(candidate[lo:hi])
            found = self._arc_test(images[lo:hi].reshape(-1), q)
            q %= area
            ends = np.cumsum(counts[lo:hi]).tolist()
            for start, end in zip([0] + ends, ends):
                yield self._apply(q[start:end], found[start:end])

    def _candidates(self, changed: np.ndarray) -> np.ndarray:
        """The candidate mask of a stack of changed-pixel masks: an
        interior pixel is a candidate when one of its retested offsets
        changed, and those offsets stay inside the frame."""
        _, height, width = changed.shape
        candidate = np.zeros_like(changed)
        if width >= 7 and height >= 7:
            inner = candidate[:, 3:height - 3, 3:width - 3]
            for dx, dy in self._retested:
                inner |= changed[:, 3 + dy:height - 3 + dy,
                                 3 + dx:width - 3 + dx]
        return candidate

    def _arc_test(self, pixels: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Whether each candidate ``q``, a flat index into the uint8 image
        stack ``pixels``, is a corner of its image."""
        center = pixels[q]
        high, low = _bounds(center, self.threshold)
        # any 9-long arc covers two compass points four apart, one of
        # each pair (0, 8) and (4, 12)
        bright, dark = [], []
        for offset in self._ring[::4]:
            values = pixels[q + offset]
            bright.append(values > high)
            dark.append(values < low)
        maybe = np.flatnonzero(
            ((bright[0] | bright[2]) & (bright[1] | bright[3]))
            | ((dark[0] | dark[2]) & (dark[1] | dark[3])))
        q = q[maybe]
        ring = np.empty((len(q), len(self._ring)), np.uint8)
        for i, offset in enumerate(self._ring):
            ring[:, i] = pixels[q + offset]
        flags = np.empty((2,) + ring.shape, bool)
        np.greater(ring, high[maybe][:, None], out=flags[0])
        np.less(ring, low[maybe][:, None], out=flags[1])
        # each row's 16 flags as one code, bit i for ring point i: the rows
        # are whole byte pairs, so packing them flat keeps them apart
        arc = _arc_table()[np.packbits(flags, bitorder="little").view("<u2")]
        found = np.zeros(len(center), bool)
        found[maybe] = arc[:len(q)] | arc[len(q):]
        return found

    def _apply(self, q: np.ndarray, found: np.ndarray) -> np.ndarray:
        """Set the membership of the candidates ``q`` (ascending row-major
        indices) to ``found``, count their tests, and return the fresh
        corners."""
        if not len(q):
            return q
        corners = self.corners.reshape(-1)
        self.test_count += len(q)
        fresh = q[found & ~corners[q]]
        corners[q] = found
        return fresh


def detect_frame(image, threshold: int) -> np.ndarray:
    """Full-frame scan of ``image`` (a 2-D grid that ``uint8_images``
    takes): one paper-mode ``Detector.update`` of every pixel.  Returns
    the (height, width) bool corner mask, all False for an image under 7
    pixels on a side."""
    image = uint8_images(image, "image")
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
    Yields each step's freshly inserted corners, as ``update`` would.  The
    events after the last boundary are not detected: no image shows them.
    An event outside the frame raises StreamFormatError before any
    boundary is applied; replaying the events checks the rest of the rule.
    """
    n_images, (height, width) = len(images), detector.corners.shape
    x, y = events["x"], events["y"]
    # the rule refuses the events outside the frame, sorting only them
    checked_order(events[(x >= width) | (y >= height)], width, height)
    # the events after the last boundary mark a spare row
    frame = window_of(events["t"], dt_ref)
    np.minimum(frame, n_images, out=frame)
    pixel = y.astype(np.uint32) * width + x
    changed = np.zeros((n_images + 1, height, width), bool)
    changed.reshape(n_images + 1, height * width)[frame, pixel] = True
    candidate = detector._candidates(changed[:n_images])
    del changed
    yield from detector._steps(images, candidate)
