"""Reconstructed images from event streams, plus MSE/PSNR metrics.

A pixel shows its last event's displayed value until its next event.
``reconstruct_at_boundaries`` replays a whole stream in one pass, and
``Reconstructor`` a batch at a time; both check events and take their
intervals and displayed values through ``_last_events``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .events import EMPTY, D_MAX, StreamHeader, display_values

PSNR_CAP = 60.0


def _frames(t: np.ndarray, dt_ref: int) -> np.ndarray:
    """The frame of each tick: frame k ends at tick (k + 1) * dt_ref, and
    frame 0 also holds tick 0."""
    return (np.maximum(t, 1) - 1) // dt_ref


def _last_events(events: np.ndarray, width: int, height: int, dt_ref: int,
                 key: np.ndarray, clock: np.ndarray | None = None,
                 per_frame: bool = False):
    """Check ``events`` and find each pixel's last event, or with
    ``per_frame`` its last event in each frame of ``dt_ref`` ticks.

    Each pixel's events are taken stably by ``key`` (uint32), and an
    interval runs from the pixel's previous event, else from its ``clock``
    tick (0 without a clock).  The first bad event by ``key``, then stream
    order, raises ValueError.  Returns the last events' stream indices,
    pixels and displayed values (uint8), by pixel and then ``key``.
    """
    x, y, d, t = (events[name] for name in "xydt")
    inside = (x < width) & (y < height)
    pixel = np.where(inside, y.astype(np.uint32) * width + x, 0)
    order = np.argsort((pixel.astype(np.uint64) << 32) | key, kind="stable")
    pixel, t, d = pixel[order], t[order], d[order]
    first = np.ones(len(t), bool)
    first[1:] = pixel[1:] != pixel[:-1]
    before = np.empty_like(t)
    before[1:] = t[:-1]
    before[first] = 0 if clock is None else clock[pixel[first]]
    bad = ~inside[order] | (t <= before) | ((d > D_MAX) & (d != EMPTY))
    if bad.any():
        at = np.flatnonzero(bad)   # the first by key, then stream order
        at = at[np.lexsort((order[at], key[order[at]]))[0]]
        j = order[at]
        x, y, d, t, before = (int(c) for c in (x[j], y[j], d[at], t[at],
                                               before[at]))
        if not inside[j]:
            raise ValueError(f"event outside image bounds: ({x}, {y})")
        if t <= before:
            raise ValueError(f"out-of-order event for pixel ({x}, {y}): "
                             f"t={t} after t={before}")
        raise ValueError(f"decimation out of range: {d}")
    last = np.ones(len(t), bool)
    last[:-1] = first[1:]
    if per_frame:
        frame = _frames(t, dt_ref)
        last[:-1] |= frame[1:] != frame[:-1]
    # rebound, the full-length arrays are freed before the int64 work
    order, pixel, d, t = order[last], pixel[last], d[last], t[last]
    values = display_values(d, t - before[last], dt_ref)
    return order, pixel, values.astype(np.uint8)


class Reconstructor:
    """Holds the last expressed value per pixel and updates it per batch.

    Events of one pixel must arrive in strictly increasing timestamp
    order; events of different pixels may be interleaved arbitrarily.
    ``image`` is the running image as a (height, width) uint8 array, and
    ``last_t`` each pixel's last tick.
    """

    def __init__(self, header: StreamHeader):
        self.width = header.width
        self.height = header.height
        self.dt_ref = header.dt_ref
        self.image = np.zeros((self.height, self.width), np.uint8)
        self.last_t = np.zeros((self.height, self.width), np.uint32)

    def apply_batch(self, events: np.ndarray) -> None:
        """Apply an ``EVENT`` array in order, with the result of applying
        its events one at a time.

        A batch that holds an event outside the image, out of order for
        its pixel, or with a decimation out of range raises ValueError
        naming the first such event, and changes nothing.
        """
        if not len(events):
            return
        clock = self.last_t.reshape(-1)
        last, pixel, values = _last_events(
            events, self.width, self.height, self.dt_ref,
            np.arange(len(events), dtype=np.uint32), clock)
        clock[pixel] = events["t"][last]
        self.image.reshape(-1)[pixel] = values

    def frame_at(self) -> np.ndarray:
        """Snapshot of the running image."""
        return self.image.copy()


def mse(a: np.ndarray, b: np.ndarray):
    """Mean squared error of 8-bit images over their last two axes: a
    float for two images, a list of them for two equal stacks.

    The sums of squares are exact int64 sums, a·a - 2a·b + b·b, which
    ``einsum`` takes without a temporary the size of its inputs; so each
    value is the float ``np.mean`` of the float64 squares gives.
    """
    a, b = np.asarray(a, np.uint8), np.asarray(b, np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")

    def dot(p, q):
        return np.einsum("...ij,...ij->...", p, q, dtype=np.int64)

    sums = dot(a, a) - 2 * dot(a, b) + dot(b, b)
    return (sums / (a.shape[-1] * a.shape[-2])).tolist()


def psnr_from_mse(err: float) -> float:
    """PSNR of an 8-bit image with mean squared error ``err``, capped at
    ``PSNR_CAP``."""
    if err == 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * math.log10(255.0 * 255.0 / err))


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    return psnr_from_mse(mse(a, b))


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
                              n_frames: int) -> np.ndarray:
    """The image at the end of each of ``n_frames`` frame spans, as one
    (n_frames, height, width) uint8 array, in one pass over the stream.

    Frame k shows the events with ``t <= (k + 1) * dt_ref``, in any stream
    order; later ones are dropped unchecked.  A bad event raises what
    applying the events in tick order (ties in stream order) would.
    """
    width, height = header.width, header.height
    kept = _frames(events["t"], header.dt_ref) < n_frames
    if not kept.all():
        # take copies 9-byte records several times faster than a mask does
        events = events.take(np.flatnonzero(kept))
    last, pixel, values = _last_events(events, width, height, header.dt_ref,
                                       events["t"], per_frame=True)
    frame = _frames(events["t"][last], header.dt_ref)
    # each pixel's steps between its frames' last values, summed down the
    # frames mod 256, so the only frame-sized buffer is the uint8 output
    step = np.diff(values, prepend=np.uint8(0))
    first = np.ones(len(pixel), bool)
    first[1:] = pixel[1:] != pixel[:-1]
    step[first] = values[first]
    frames = np.zeros((n_frames, height * width), np.uint8)
    frames[frame, pixel] = step
    np.cumsum(frames, axis=0, dtype=np.uint8, out=frames)
    return frames.reshape(n_frames, height, width)
