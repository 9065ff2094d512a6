"""Reconstructed images from event streams, plus MSE/PSNR metrics.

A pixel shows its last event's displayed value until its next event.
``reconstruct_at_boundaries`` replays a whole stream to every frame
boundary in one pass, in the order ``checked_order`` gives.
"""

from __future__ import annotations

import math

import numpy as np

from .events import (StreamHeader, checked_order, display_values,
                     uint8_images, window_of)

PSNR_CAP = 60.0


def mse(a: np.ndarray, b: np.ndarray):
    """Mean squared error of 8-bit images over their last two axes: a
    float for two images, a list of them for two equal stacks.

    The sums of squares are exact int64 sums, a·a - 2a·b + b·b, which
    ``einsum`` takes without a temporary the size of its inputs; so each
    value is the float ``np.mean`` of the float64 squares gives.  Images
    that ``uint8_images`` refuses raise StreamFormatError.
    """
    a, b = uint8_images(a, "mse input a"), uint8_images(b, "mse input b")
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
    order; later ones are dropped unchecked, and the kept ones must pass
    ``checked_order``, the rule for a valid stream.
    """
    width, height = header.width, header.height
    kept = window_of(events["t"], header.dt_ref) < n_frames
    if not kept.all():
        # take copies 9-byte records several times faster than a mask does
        events = events.take(np.flatnonzero(kept))
    order, before = checked_order(events, width, height)
    events = events.take(order)
    del order
    pixel = events["y"].astype(np.uint32) * width + events["x"]
    frame = window_of(events["t"], header.dt_ref)
    last = np.ones(len(events), bool)
    last[:-1] = (pixel[1:] != pixel[:-1]) | (frame[1:] != frame[:-1])
    dt = events["t"][last] - before[last]
    frame, pixel, d = frame[last], pixel[last], events["d"][last]
    del events, before, last
    values = display_values(d, dt, header.dt_ref).astype(np.uint8)
    # each pixel's steps between its frames' last values, summed down the
    # frames mod 256, so the only frame-sized buffer is the uint8 output
    step = np.diff(values, prepend=np.uint8(0))
    first = np.diff(pixel, prepend=-1) != 0
    step[first] = values[first]
    frames = np.zeros((n_frames, height * width), np.uint8)
    frames[frame, pixel] = step
    np.cumsum(frames, axis=0, dtype=np.uint8, out=frames)
    return frames.reshape(n_frames, height, width)
