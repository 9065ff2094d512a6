"""References for ``evc.reconstruct`` and ``evc.fastdet``.

``display_value`` is the scalar displayed value of one event, which
``evc.events.display_values`` takes over arrays, and ``psnr`` the PSNR of
two images from ``evc.reconstruct.mse``.

``Reconstructor.apply_event`` applies one event at a time, checking it
as it goes.  ``reconstruct_at_boundaries`` replays a stream through it
in tick order, one event at a time, the semantics the one-pass
``evc.reconstruct_at_boundaries`` must equal, frames and error messages
alike.  ``is_feature`` is the scalar FAST test of one pixel and
``detect_frame`` the scalar scan of a whole image with it, the corners
the numpy ``evc.fastdet.detect_frame`` and ``Detector`` must find.
``candidates`` lists the pixels a detector step retests, which the tests
then test with ``is_feature``.
"""

from __future__ import annotations

import numpy as np

from evc.events import EMPTY, D_MAX, StreamHeader
from evc.fastdet import DEFAULT_STREAK, RING
from evc.reconstruct import mse, psnr_from_mse


def display_value(d: int, dt: int, dt_ref: int) -> int:
    """The displayed 8-bit value of an event: round(2**d * dt_ref / dt),
    halves rounding up, clamped at 255; EMPTY shows 0."""
    if d == EMPTY:
        return 0
    value = ((2 << d) * dt_ref + dt) // (2 * dt)
    return value if value < 255 else 255


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """PSNR of two 8-bit images, capped at ``evc.reconstruct.PSNR_CAP``."""
    return psnr_from_mse(mse(a, b))


class Reconstructor:
    """Holds the last expressed value per pixel and updates it per event.

    A pixel keeps its last displayed value until its next event arrives
    (hold-last-value semantics for the open interval).  Events of one pixel
    must arrive in strictly increasing timestamp order; events of different
    pixels may be interleaved arbitrarily.  ``image`` is the running image
    as row-major rows of ints, the form ``is_feature`` reads.
    """

    def __init__(self, header: StreamHeader):
        self.width = header.width
        self.height = header.height
        self.dt_ref = header.dt_ref
        self.image = [[0] * self.width for _ in range(self.height)]
        self.last_t = [[0] * self.width for _ in range(self.height)]

    def apply_event(self, x: int, y: int, d: int, t: int) -> int:
        """Apply one event; returns the new displayed value of its pixel."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"event outside image bounds: ({x}, {y})")
        last_t = self.last_t[y]
        dt = t - last_t[x]
        if dt <= 0:
            raise ValueError(
                f"out-of-order event for pixel ({x}, {y}): "
                f"t={t} after t={last_t[x]}"
            )
        if not (0 <= d <= D_MAX or d == EMPTY):
            raise ValueError(f"decimation out of range: {d}")
        value = display_value(d, dt, self.dt_ref)
        self.image[y][x] = value
        last_t[x] = t
        return value

    def frame_at(self) -> np.ndarray:
        """Snapshot of the running image."""
        return np.array(self.image, dtype=np.uint8).reshape(self.height,
                                                            self.width)


def reconstruct_at_boundaries(events: np.ndarray, header: StreamHeader,
                              n_frames: int) -> list[np.ndarray]:
    """Reconstructed image at the end of each of ``n_frames`` frame spans:
    the events applied one at a time in tick order, ties in stream order,
    each frame's image taken once its boundary's ticks are applied.  The
    events after the last boundary are never applied."""
    recon = Reconstructor(header)
    rows = sorted(events.tolist(), key=lambda row: row[3])
    out: list[np.ndarray] = []
    i = 0
    for k in range(n_frames):
        while i < len(rows) and rows[i][3] <= (k + 1) * header.dt_ref:
            recon.apply_event(*rows[i])
            i += 1
        out.append(recon.frame_at())
    return out


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


def candidates(pixels, width: int, height: int, exact: bool
               ) -> set[tuple[int, int]]:
    """The (x, y) pixels a detector step retests for the changed row-major
    ``pixels``: each of them, and in exact mode each pixel whose ring
    passes through one, kept where they lie inside the 3-pixel border."""
    offsets = ((0, 0),) + RING if exact else ((0, 0),)
    found = set()
    for p in set(np.asarray(pixels).tolist()):
        y, x = divmod(p, width)
        for dx, dy in offsets:
            qx, qy = x + dx, y + dy
            if 3 <= qx < width - 3 and 3 <= qy < height - 3:
                found.add((qx, qy))
    return found
