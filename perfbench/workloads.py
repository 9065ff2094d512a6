"""Benchmark workloads: seeded clips plus the pipeline settings each runs at.

The clips are generated here and handed to the program as in-memory
frames, so the program sees only the generated inputs.  Each clip keeps
its layout fixed and lets the seed change pixel values, so the seed moves
the content without moving the per-workload statistics (events per pixel,
bits per pixel) by more than a few percent; that keeps runs with
different seeds comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from evc.harness import synth_clip

DT_REF = 255
DT_MAX = 30 * DT_REF

BOX_PITCH = 16
BOX_SIDE = 6


def walk_clip(width: int, height: int, n_frames: int, seed: int):
    """Every pixel random-walks: dense events, the coder's worst case."""
    return synth_clip("walk", width, height, n_frames, seed)


def boxes_clip(width: int, height: int, n_frames: int, seed: int):
    """A lattice of small bright boxes translating over black.

    A seeded variant of ``synth_clip("moving_box")``, whose seed only acts
    on boxes of 32 px and more, and there moves events per pixel by about
    20% between seeds through a random walk of the box value.  Here the
    motion is fixed (one pixel per frame to the right, wrapping), the box
    values are evenly spread over [140, 200] (one base decimation), and
    the seed deals them out to the boxes.
    """
    rng = np.random.default_rng(seed)
    cols, rows = max(1, width // BOX_PITCH), max(1, height // BOX_PITCH)
    values = np.linspace(140, 200, rows * cols).round().astype(np.uint8)
    values = rng.permutation(values).reshape(rows, cols)
    yy, xx = np.mgrid[0:height, 0:width]
    ly = (yy - 6) % height
    frames = []
    for k in range(n_frames):
        lx = (xx - 4 - k) % width
        inside = (lx % BOX_PITCH < BOX_SIDE) & (ly % BOX_PITCH < BOX_SIDE)
        cell = values[(ly // BOX_PITCH) % rows, (lx // BOX_PITCH) % cols]
        frames.append(np.where(inside, cell, 0).astype(np.uint8))
    return frames


def still_clip(width: int, height: int, n_frames: int, seed: int):
    """A dark still scene: ``synth_clip("static")``'s two rectangles (32 and
    128) over a dim seeded texture (0..15).  ``static`` ignores its seed;
    here the seed draws the texture, and the rectangles keep their places.
    """
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 16, (height, width)).astype(np.uint8)
    img[height // 6:height // 2, width // 6:width // 2] = 32
    img[height // 2:(5 * height) // 6, width // 2:(5 * width) // 6] = 128
    return [img.copy() for _ in range(n_frames)]


@dataclass(frozen=True)
class Workload:
    name: str
    clip: Callable
    size: tuple          # (width, height, frames) of a measured run
    tiny: tuple          # the same for the smoke test
    crf: int
    features: bool
    mode: str = "paper"

    def frames(self, seed: int, tiny: bool = False):
        return self.clip(*(self.tiny if tiny else self.size), seed)


# Sizes put one pipeline pass plus one play at about two seconds on a
# 2-CPU machine, so a run collects a dozen passes.  40 frames are two
# access units (dt_adu = dt_max = 30 frames); 240 frames are eight.
WORKLOADS = {
    w.name: w for w in (
        Workload("dense-lossless", walk_clip, (16, 16, 40), (8, 8, 12),
                 crf=0, features=False),
        Workload("sparse-features", boxes_clip, (48, 48, 40), (32, 32, 12),
                 crf=3, features=True, mode="exact"),
        Workload("still-long", still_clip, (48, 32, 240), (12, 12, 40),
                 crf=3, features=False),
    )
}
