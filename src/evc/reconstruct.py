"""Running-image reconstruction from event streams, plus MSE/PSNR metrics."""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import islice

import numpy as np

from .events import EMPTY, D_MAX, StreamHeader, display_values

PSNR_CAP = 60.0


def group_by_pixel(pixel: np.ndarray):
    """A stable sort of a batch by pixel index: the order, the sorted
    indices, and masks of each pixel's first and last entry among them."""
    order = np.argsort(pixel, kind="stable")
    sorted_pixel = pixel[order]
    first = np.ones(len(order), bool)
    first[1:] = sorted_pixel[1:] != sorted_pixel[:-1]
    last = np.ones(len(order), bool)
    last[:-1] = first[1:]
    return order, sorted_pixel, first, last


class Reconstructor:
    """Holds the last expressed value per pixel and updates it per batch.

    A pixel keeps its last displayed value until its next event arrives
    (hold-last-value semantics for the open interval).  Events of one pixel
    must arrive in strictly increasing timestamp order; events of different
    pixels may be interleaved arbitrarily.  ``image`` is the running image
    as a (height, width) uint8 array, and ``last_t`` each pixel's last
    tick.
    """

    def __init__(self, header: StreamHeader):
        self.width = header.width
        self.height = header.height
        self.dt_ref = header.dt_ref
        self.image = np.zeros((self.height, self.width), np.uint8)
        self.last_t = np.zeros((self.height, self.width), np.uint32)

    def apply_batch(self, events: np.ndarray) -> None:
        """Apply an ``EVENT`` array in order, with the result of applying
        its events one at a time."""
        if len(events):
            self.paint(*self.advance(events))

    def advance(self, events: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Check a batch and move each pixel's clock to its last event.

        Returns each event's row-major pixel index and displayed value,
        leaving the image to ``paint``.  A batch that holds an event
        outside the image, out of order for its pixel, or with a
        decimation out of range raises ValueError naming the first such
        event, and changes nothing.
        """
        x, y, d, t = (events[name].astype(np.int64) for name in "xydt")
        inside = (x < self.width) & (y < self.height)
        pixel = np.where(inside, y * self.width + x, 0)
        # each event's interval runs from its pixel's previous event, in
        # the batch when there is one, else from the pixel's clock
        order, sorted_pixel, first, last = group_by_pixel(pixel)
        clock = self.last_t.reshape(-1)
        before = np.empty(len(order), np.int64)
        before[order[1:]] = t[order[:-1]]
        before[order[first]] = clock[sorted_pixel[first]]
        dt = t - before
        bad = ~inside | (dt <= 0) | ((d > D_MAX) & (d != EMPTY))
        if bad.any():
            j = int(np.argmax(bad))
            x, y, d, t, before = (int(c[j]) for c in (x, y, d, t, before))
            if not inside[j]:
                raise ValueError(f"event outside image bounds: ({x}, {y})")
            if t <= before:
                raise ValueError(f"out-of-order event for pixel ({x}, {y}): "
                                 f"t={t} after t={before}")
            raise ValueError(f"decimation out of range: {d}")
        clock[sorted_pixel[last]] = t[order[last]]
        return pixel, display_values(d, dt, self.dt_ref).astype(np.uint8)

    def paint(self, pixel: np.ndarray, value: np.ndarray) -> None:
        """Set pixels to values, the last value of a repeated pixel
        winning."""
        order, sorted_pixel, _, last = group_by_pixel(pixel)
        self.image.reshape(-1)[sorted_pixel[last]] = value[order[last]]

    def frame_at(self) -> np.ndarray:
        """Snapshot of the running image."""
        return self.image.copy()


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
        recon.apply_batch(batch)
        out.append(recon.frame_at())
    return out
