"""References for ``evc.reconstruct`` and for the candidates of
``evc.fastdet.Detector.update``.

``Reconstructor.apply_event`` applies one event at a time, checking it
as it goes.  ``reconstruct_at_boundaries`` replays a stream through it
in tick order, one event at a time, the semantics the one-pass
``evc.reconstruct_at_boundaries`` must equal, frames and error messages
alike.  ``candidates`` lists the pixels a detector step retests, which
the tests then test with the scalar ``evc.fastdet.is_feature``.
"""

from __future__ import annotations

import numpy as np

from evc.events import EMPTY, D_MAX, StreamHeader, display_value
from evc.fastdet import RING


class Reconstructor:
    """Holds the last expressed value per pixel and updates it per event.

    A pixel keeps its last displayed value until its next event arrives
    (hold-last-value semantics for the open interval).  Events of one pixel
    must arrive in strictly increasing timestamp order; events of different
    pixels may be interleaved arbitrarily.  ``image`` is the running image
    as row-major rows of ints, the form ``fastdet.is_feature`` reads.
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
