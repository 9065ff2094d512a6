"""Reconstructed images from event streams, plus MSE/PSNR metrics.

A pixel shows its last event's displayed value until its next event.
``reconstruct_at_boundaries`` replays a whole stream to every frame
boundary in one pass; ``_last_events`` checks the events and takes their
intervals and displayed values.
"""

from __future__ import annotations

import math

import numpy as np

from .events import EMPTY, D_MAX, StreamHeader, display_values, window_of

PSNR_CAP = 60.0


def _last_events(events: np.ndarray, width: int, height: int, dt_ref: int):
    """Check ``events`` and find each pixel's last event in each frame of
    ``dt_ref`` ticks.

    Each pixel's events are taken stably by tick, and an interval runs
    from the pixel's previous event, else from tick 0.  The first bad
    event by tick, then stream order, raises ValueError.  Returns the last
    events' frames, pixels and displayed values (uint8), by pixel and then
    tick.
    """
    x, y, d, t = (events[name] for name in "xydt")
    inside = (x < width) & (y < height)
    pixel = np.where(inside, y.astype(np.uint32) * width + x, 0)
    order = np.argsort((pixel.astype(np.uint64) << 32) | t, kind="stable")
    pixel, t, d = pixel[order], t[order], d[order]
    first = np.ones(len(t), bool)
    first[1:] = pixel[1:] != pixel[:-1]
    before = np.empty_like(t)
    before[1:] = t[:-1]
    before[first] = 0
    bad = ~inside[order] | (t <= before) | ((d > D_MAX) & (d != EMPTY))
    if bad.any():
        at = np.flatnonzero(bad)   # the first by tick, then stream order
        at = at[np.lexsort((order[at], t[at]))[0]]
        j = order[at]
        x, y, d, t, before = (int(c) for c in (x[j], y[j], d[at], t[at],
                                               before[at]))
        if not inside[j]:
            raise ValueError(f"event outside image bounds: ({x}, {y})")
        if t <= before:
            raise ValueError(f"out-of-order event for pixel ({x}, {y}): "
                             f"t={t} after t={before}")
        raise ValueError(f"decimation out of range: {d}")
    # freed or rebound, the full-length arrays go before the int64 work
    del order, inside
    frame = window_of(t, dt_ref)
    last = np.ones(len(t), bool)
    last[:-1] = first[1:] | (frame[1:] != frame[:-1])
    frame, pixel, d, t = frame[last], pixel[last], d[last], t[last]
    values = display_values(d, t - before[last], dt_ref)
    return frame, pixel, values.astype(np.uint8)


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


def reconstruct_at_boundaries(events: np.ndarray, header: StreamHeader,
                              n_frames: int) -> np.ndarray:
    """The image at the end of each of ``n_frames`` frame spans, as one
    (n_frames, height, width) uint8 array, in one pass over the stream.

    Frame k shows the events with ``t <= (k + 1) * dt_ref``, in any stream
    order; later ones are dropped unchecked.  A bad event raises what
    applying the events in tick order (ties in stream order) would.
    """
    width, height = header.width, header.height
    kept = window_of(events["t"], header.dt_ref) < n_frames
    if not kept.all():
        # take copies 9-byte records several times faster than a mask does
        events = events.take(np.flatnonzero(kept))
    frame, pixel, values = _last_events(events, width, height, header.dt_ref)
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
