"""Scalar reference for ``evc.reconstruct.Reconstructor`` and
``evc.fastdet.Detector``.

``Reconstructor.apply_event`` and ``Detector.on_event`` apply one event at
a time, the semantics the batch steps replace; they are kept as the oracle
the batch steps must equal after every batch.  ``Detector`` tests corners
with the scalar ``evc.fastdet.is_feature``.
"""

from __future__ import annotations

import numpy as np

from evc.events import EMPTY, D_MAX, StreamHeader, display_value
from evc.fastdet import DEFAULT_THRESHOLD, RING, is_feature


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

    def on_event(self, x: int, y: int, d: int, t: int
                 ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Apply one event and retest affected pixels.

        Returns the feature delta as (added, removed) coordinate lists.  In
        single-pixel mode only the event's pixel is retested; in exact mode
        every pixel whose ring passes through it is retested as well, which
        is what makes the incremental set track the full-frame scan even
        when the changed pixel itself sits too close to the border to test.
        """
        self.recon.apply_event(x, y, d, t)
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
