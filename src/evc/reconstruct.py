"""Running-image reconstruction from event streams, plus MSE/PSNR metrics."""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import islice

import numpy as np

from .events import EMPTY, D_MAX, StreamHeader, display_value, event_rows

PSNR_CAP = 60.0


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


def mse(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a.astype(np.float64) - b.astype(np.float64)
    return float(np.mean(diff * diff))


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    err = mse(a, b)
    if err == 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * math.log10(255.0 * 255.0 / err))


def replay_batches(events: np.ndarray, dt_ref: int,
                   n_frames: int) -> Iterator[np.ndarray]:
    """An ``EVENT`` array in timestamp order, cut at the frame boundaries.

    Yields ``n_frames`` batches, batch k holding the events with
    ``k * dt_ref < t <= (k + 1) * dt_ref`` (batch 0 also those at or before
    tick 0), then one last batch with the events after the last boundary.
    The sort is stable, and a pixel's own events are already mutually
    ordered, so the order within a stream does not matter.
    """
    ordered = events[np.argsort(events["t"], kind="stable")]
    bounds = np.arange(1, n_frames + 1, dtype=np.int64) * dt_ref
    yield from np.split(ordered, np.searchsorted(ordered["t"], bounds,
                                                 side="right"))


def reconstruct_at_boundaries(events: np.ndarray, header: StreamHeader,
                              n_frames: int) -> list[np.ndarray]:
    """Reconstructed image at the end of each of ``n_frames`` frame spans."""
    recon = Reconstructor(header)
    out: list[np.ndarray] = []
    for batch in islice(replay_batches(events, header.dt_ref, n_frames),
                        n_frames):
        for event in event_rows(batch):
            recon.apply_event(*event)
        out.append(recon.frame_at())
    return out
