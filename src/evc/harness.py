"""Experiment harness: clip ingestion and synthesis, pipeline runs, metrics.

The pipeline chains the stages transcode -> compress -> decompress ->
reconstruct -> detect over one input clip and writes every intermediate as
an artifact (raw event stream, compressed stream, reconstruction dumps, and
a per-frame metrics CSV).  Errors are re-raised with the failing stage's
name so a broken run points at the stage, not just the traceback.

Clips come in as YUV4MPEG2 (mono or 4:2:0, luma only) or as raw planar
8-bit grayscale with a ``<path>.dims`` sidecar holding ``width height``.
The synthetic generators cover the motion classes the metrics care about:
nothing moving, a global change, a translating box, per-pixel noise, and a
slowly drifting texture for quality-ladder calibration.  All of them are
deterministic given a seed.

Runs are sequential per clip; independent clips may run concurrently in
worker processes, and ``worker_count`` (the EVC_THREADS override) caps
that fan-out.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .compress import build_adus, encode_adu, read_compressed, write_payloads
from .events import (
    DEFAULT_DT_REF,
    StreamFormatError,
    StreamHeader,
    uint8_images,
    window_of,
    write_stream,
)
from .fastdet import DEFAULT_THRESHOLD, Detector, detect_at_boundaries
from .reconstruct import mse, psnr_from_mse, reconstruct_at_boundaries
from .transcode import Transcoder

CLIP_KINDS = ("static", "step", "moving_box", "noise", "walk")


def worker_count() -> int:
    """Worker-process cap: EVC_THREADS when set, else the CPU count."""
    value = os.environ.get("EVC_THREADS")
    if value:
        return max(1, int(value))
    return max(1, os.cpu_count() or 1)


class PipelineError(RuntimeError):
    """A pipeline stage failed; ``stage`` names which one."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


@dataclass(slots=True)
class ExperimentConfig:
    """One pipeline run: input clip, quality level, and knobs.

    ``feature_adaptation`` is accepted and has no effect.  Content
    adaptation is gone, since at equal bits it did no better than a lower
    CRF, but the benchmark still sets the field; the benchmark change of
    ROADMAP item 3 removes it.
    """

    input: str = ""
    crf: int = 3
    feature_adaptation: bool = False
    dt_ref: int = DEFAULT_DT_REF
    dt_max: int = 30 * DEFAULT_DT_REF
    dt_adu: int | None = None
    fast_threshold: int = DEFAULT_THRESHOLD
    detector_mode: str = "paper"
    out_dir: str = "."
    fps: float = 30.0


@dataclass(slots=True)
class MetricsRow:
    """Per-frame measurements taken at the frame's boundary.  ``events``
    counts the events whose tick falls in the frame (``window_of``), the
    ticks past the last boundary on the last frame, and ``raw_bits`` is
    their raw record size."""

    frame: int
    events: int
    raw_bits: int
    comp_bits: float
    mse_raw: float
    psnr_raw: float
    mse_comp: float
    psnr_comp: float
    tests: int
    features: int


CSV_FIELDS = ("frame", "events", "raw_bits", "comp_bits", "mse_raw",
              "psnr_raw", "mse_comp", "psnr_comp", "tests", "features")


@dataclass(slots=True)
class PipelineResult:
    rows: list
    paths: dict
    header: StreamHeader


def ingest_y4m(path) -> tuple[list[np.ndarray], float]:
    """Read a YUV4MPEG2 file; returns (grayscale frames, fps).

    Only the luma plane is kept; chroma (when present, 4:2:0 only) is
    skipped.  The stream clock follows from the parsed rate: one frame is
    dt_ref ticks, so a second is dt_ref * fps ticks.
    """
    with open(path, "rb") as fp:
        magic = fp.readline()
        if not magic.startswith(b"YUV4MPEG2"):
            raise StreamFormatError(f"not a YUV4MPEG2 file: {path}")
        width = height = 0
        num, den = 0, 1
        chroma = "420jpeg"
        for token in magic.split()[1:]:
            key, value = token[:1], token[1:]
            try:
                if key == b"W":
                    width = int(value)
                elif key == b"H":
                    height = int(value)
                elif key == b"F":
                    num, den = (int(part) for part in value.split(b":"))
                elif key == b"C":
                    chroma = value.decode("ascii")
            except ValueError:
                raise StreamFormatError(
                    f"bad YUV4MPEG2 header token {token.decode('latin-1')!r}"
                ) from None
        if width <= 0 or height <= 0 or num <= 0 or den <= 0:
            raise StreamFormatError("missing W/H/F in YUV4MPEG2 header")
        if chroma.startswith("mono"):
            chroma_size = 0
        elif chroma.startswith("420"):
            chroma_size = 2 * ((width + 1) // 2) * ((height + 1) // 2)
        else:
            raise StreamFormatError(f"unsupported chroma mode: C{chroma}")
        luma_size = width * height
        frames: list[np.ndarray] = []
        while True:
            marker = fp.readline()
            if not marker:
                break
            if not marker.startswith(b"FRAME"):
                raise StreamFormatError(
                    f"bad frame marker before frame {len(frames)}")
            data = fp.read(luma_size)
            if len(data) < luma_size:
                raise StreamFormatError(f"frame {len(frames)} truncated")
            if chroma_size and len(fp.read(chroma_size)) < chroma_size:
                raise StreamFormatError(f"frame {len(frames)} truncated")
            frames.append(np.frombuffer(data, np.uint8).reshape(height, width))
    return frames, num / den


def write_y4m(path, frames, fps: float = 30.0) -> None:
    """Write grayscale frames, a (count, height, width) stack or a list
    of equal images, as a mono YUV4MPEG2 file in one write.  A frame rate
    that the header's ``F`` ratio cannot carry, or frames that
    ``uint8_images`` refuses, raise StreamFormatError and write nothing."""
    if not math.isfinite(fps):
        raise StreamFormatError(f"frame rate {fps} is not finite")
    rate = Fraction(fps).limit_denominator(65535)
    if rate <= 0:
        raise StreamFormatError(f"frame rate {fps} does not round to a "
                                "positive F ratio over at most 65535")
    frames = uint8_images(frames, "frames")
    count, height, width = frames.shape
    # every frame is its marker, then its plane
    body = np.empty((count, 6 + height * width), np.uint8)
    body[:, :6] = np.frombuffer(b"FRAME\n", np.uint8)
    body[:, 6:] = frames.reshape(count, -1)
    with open(path, "wb") as fp:
        fp.write(f"YUV4MPEG2 W{width} H{height} "
                 f"F{rate.numerator}:{rate.denominator} Ip A1:1 Cmono\n"
                 .encode("ascii"))
        fp.write(body)


def load_raw(path) -> list[np.ndarray]:
    """Read raw planar 8-bit frames using the ``<path>.dims`` sidecar."""
    sidecar = Path(f"{path}.dims")
    if not sidecar.exists():
        raise StreamFormatError(f"missing dimensions sidecar: {sidecar}")
    try:
        width, height = (int(part) for part in sidecar.read_text().split())
    except ValueError:
        width = height = 0
    if width < 1 or height < 1:
        raise StreamFormatError(
            f"{sidecar} must hold two positive integers: width and height")
    data = Path(path).read_bytes()
    frame_size = width * height
    if len(data) % frame_size:
        raise StreamFormatError(
            f"raw size {len(data)} is not a multiple of {width}x{height}")
    count = len(data) // frame_size
    stack = np.frombuffer(data, np.uint8).reshape(count, height, width)
    return list(stack)


def write_raw(path, frames) -> None:
    """Write raw planar 8-bit frames, a (count, height, width) stack or a
    list of equal images, in one write, plus the ``<path>.dims`` sidecar.
    Frames that ``uint8_images`` refuses raise StreamFormatError and write
    nothing."""
    frames = np.ascontiguousarray(uint8_images(frames, "frames"))
    _, height, width = frames.shape
    with open(path, "wb") as fp:
        fp.write(frames)
    Path(f"{path}.dims").write_text(f"{width} {height}\n")


def load_frames(path) -> tuple[list[np.ndarray], float | None]:
    """Load a clip by extension: .y4m parses fps, raw leaves it to config."""
    if str(path).endswith(".y4m"):
        return ingest_y4m(path)
    return load_raw(path), None


def save_frames(path, frames, fps: float) -> None:
    """Write a clip by extension: .y4m carries ``fps``, anything else is
    raw frames plus the ``.dims`` sidecar."""
    if str(path).endswith(".y4m"):
        write_y4m(path, frames, fps)
    else:
        write_raw(path, frames)


def synth_clip(kind: str, width: int, height: int, n_frames: int,
               seed: int = 0) -> list[np.ndarray]:
    """Deterministic synthetic clips for the pipeline's motion classes.

    static      constant image (dark background, two brighter rectangles)
    step        constant image with one global intensity change mid-clip
    moving_box  bright box translating over a black background; small boxes
                keep a fixed power-of-two value, large ones drift in value
    noise       per-pixel i.i.d. values each frame
    walk        per-pixel values drifting by small steps each frame
    """
    if width <= 0 or height <= 0 or n_frames <= 0:
        raise ValueError("clip dimensions and frame count must be positive")
    rng = np.random.default_rng(seed)
    if kind == "static":
        img = np.zeros((height, width), np.uint8)
        img[height // 6:height // 2, width // 6:width // 2] = 32
        img[height // 2:(5 * height) // 6, width // 2:(5 * width) // 6] = 128
        return [img.copy() for _ in range(n_frames)]
    if kind == "step":
        cut = n_frames // 2
        lo = np.full((height, width), 32, np.uint8)
        hi = np.full((height, width), 128, np.uint8)
        return [lo.copy() for _ in range(cut)] + \
               [hi.copy() for _ in range(n_frames - cut)]
    if kind == "moving_box":
        side = max(16, (min(width, height) // 3) // 8 * 8)
        side = min(side, max(8, min(width, height) // 2))
        if side >= 32:
            steps = rng.choice((-3, 3), size=n_frames)
            values = np.clip(128 + np.cumsum(steps), 96, 160)
        else:
            values = np.full(n_frames, 32)
        frames = []
        for k in range(n_frames):
            img = np.zeros((height, width), np.uint8)
            x = (4 + 2 * k) % (width - side)
            y = (6 + k) % (height - side)
            img[y:y + side, x:x + side] = values[k]
            frames.append(img)
        return frames
    if kind == "noise":
        return [rng.integers(0, 256, (height, width), dtype=np.uint8)
                for _ in range(n_frames)]
    if kind == "walk":
        # Mixed step magnitudes (holds through large jumps) so each
        # quality preset's stability threshold bites at a different
        # fraction of the motion, spreading the presets apart.
        lo, hi = 48, 160
        magnitudes = np.array((0, 1, 2, 4, 7, 12), np.int16)
        weights = (0.30, 0.25, 0.20, 0.12, 0.08, 0.05)
        img = rng.integers(lo, hi + 1, (height, width), dtype=np.int16)
        frames = [img.astype(np.uint8)]
        for _ in range(n_frames - 1):
            mag = rng.choice(magnitudes, size=img.shape, p=weights)
            sign = rng.choice((-1, 1), size=img.shape)
            steps = (mag * sign).astype(np.int16)
            moved = img + steps
            off = (moved < lo) | (moved > hi)
            moved[off] = img[off] - steps[off]
            img = moved
            frames.append(img.astype(np.uint8))
        return frames
    raise ValueError(f"unknown clip kind: {kind}")


def _artifact_paths(config: ExperimentConfig) -> dict:
    stem = Path(config.input).stem if config.input else "clip"
    base = Path(config.out_dir) / stem
    return {
        "raw": f"{base}.adder",
        "compressed": f"{base}.adderc",
        "recon_raw": f"{base}.recon-raw.gray",
        "recon_comp": f"{base}.recon-comp.gray",
        "metrics": f"{base}.metrics.csv",
    }


def ingest(config: ExperimentConfig,
           frames=None) -> tuple[list[np.ndarray], StreamHeader]:
    """The clip's frames (``frames``, else loaded from ``config.input``)
    and the stream header they transcode under.  The frame rate, which sets
    ticks per second, is the file's when it has one, else ``config.fps``.
    In-memory frames must be one or more 2-D grids of one shape that
    ``uint8_images`` takes; anything else fails with
    ``StreamFormatError``."""
    fps = config.fps
    if frames is None:
        frames, file_fps = load_frames(config.input)
        fps = file_fps or fps
    if not math.isfinite(fps):
        raise StreamFormatError(f"frame rate {fps} is not finite")
    frames = [uint8_images(f, f"frame {k}") for k, f in enumerate(frames)]
    if not frames:
        raise StreamFormatError("clip has no frames")
    shape = frames[0].shape
    for k, frame in enumerate(frames):
        if frame.ndim != 2:
            raise StreamFormatError(
                f"frame {k} has {frame.ndim} dimensions, not 2")
        if frame.shape != shape:
            raise StreamFormatError(
                f"frame {k} is {frame.shape[1]}x{frame.shape[0]}, "
                f"not {shape[1]}x{shape[0]} like frame 0")
    height, width = shape
    header = StreamHeader(
        width=width, height=height, dt_ref=config.dt_ref,
        dt_max=config.dt_max, dt_s=round(config.dt_ref * fps),
        crf=config.crf)
    header.validate()
    return frames, header


def transcode_clip(header: StreamHeader, frames):
    """Transcode the frames under ``header``, whose CRF picks the
    transcoder's parameters, and return the events, the final flush's
    last."""
    transcoder = Transcoder(header)
    events = transcoder.integrate_frame(np.asarray(frames))
    return np.concatenate((events, transcoder.flush_all()))


def compress_stream(path, header: StreamHeader, events, dt_adu=None):
    """Cut the events into access units on the ``dt_adu`` tick grid
    (default the header's dt_max), encode each, and write them to
    ``path`` as a compressed stream.  Returns (units, their payloads)."""
    adus = build_adus(events, header, dt_adu)
    payloads = [encode_adu(adu, header) for adu in adus]
    with open(path, "wb") as fp:
        write_payloads(fp, header, payloads)
    return adus, payloads


def run_pipeline(config: ExperimentConfig, frames=None) -> PipelineResult:
    """Run the full pipeline over one clip and write its artifacts.

    Frames may be passed in-memory (synthetic runs); otherwise they load
    from ``config.input``.  The same config and input always produce
    byte-identical artifacts.  The detector runs over the raw stream's
    boundary reconstructions and fills the work metrics.
    """
    with _stage("ingest"):
        frames, header = ingest(config, frames)
        detector = Detector(header, config.fast_threshold,
                            config.detector_mode)
    n_frames = len(frames)

    with _stage("transcode"):
        events = transcode_clip(header, frames)

    paths = _artifact_paths(config)
    os.makedirs(config.out_dir, exist_ok=True)

    with _stage("write-raw"):
        write_stream(paths["raw"], header, events)

    with _stage("compress"):
        adus, payloads = compress_stream(paths["compressed"], header, events,
                                         config.dt_adu)

    with _stage("decompress"):
        with open(paths["compressed"], "rb") as fp:
            _, decoded = read_compressed(fp)

    with _stage("reconstruct"):
        recon_raw = reconstruct_at_boundaries(events, header, n_frames)
        recon_comp = reconstruct_at_boundaries(decoded, header, n_frames)
        write_raw(paths["recon_raw"], recon_raw)
        write_raw(paths["recon_comp"], recon_comp)
        mses_raw, mses_comp = mse(frames, recon_raw), mse(frames, recon_comp)
        psnrs_raw, psnrs_comp = ([psnr_from_mse(e) for e in mses]
                                 for mses in (mses_raw, mses_comp))

    with _stage("detect"):
        tests, features, seen = [], [], 0
        for _ in detect_at_boundaries(detector, events, recon_raw,
                                      header.dt_ref):
            tests.append(detector.test_count - seen)
            seen = detector.test_count
            features.append(int(detector.corners.sum()))

    with _stage("metrics"):
        comp_bits = [0.0] * n_frames
        for adu, payload in zip(adus, payloads):
            # the frames whose boundary tick falls inside this unit's
            # window, else the frame holding the window's last tick
            end = adu.start_t + adu.span
            covered = range(adu.start_t // header.dt_ref,
                            min(end // header.dt_ref, n_frames))
            if not covered:
                covered = [min(int(window_of(end, header.dt_ref)),
                               n_frames - 1)]
            for k in covered:
                comp_bits[k] += 8 * (len(payload) + 4) / len(covered)
        # each event on the frame its tick falls in, the ticks past the
        # last boundary on the last frame
        frame_events = np.bincount(
            np.minimum(window_of(events["t"], header.dt_ref), n_frames - 1),
            minlength=n_frames).tolist()
        event_bits = 8 * header.event_size
        rows = [
            MetricsRow(k, frame_events[k], frame_events[k] * event_bits,
                       comp_bits[k], mses_raw[k], psnrs_raw[k],
                       mses_comp[k], psnrs_comp[k], tests[k], features[k])
            for k in range(n_frames)
        ]
        with open(paths["metrics"], "w", newline="") as fp:
            writer = csv.writer(fp)
            writer.writerow(CSV_FIELDS)
            for row in rows:
                writer.writerow([
                    row.frame, row.events, row.raw_bits,
                    f"{row.comp_bits:.2f}", f"{row.mse_raw:.6f}",
                    f"{row.psnr_raw:.4f}", f"{row.mse_comp:.6f}",
                    f"{row.psnr_comp:.4f}", row.tests, row.features,
                ])
    return PipelineResult(rows=rows, paths=paths, header=header)


def report(rows, pixels: int) -> dict:
    """Aggregate a run's rows into the headline numbers.

    ``pixels`` is the frame area, needed to normalize the events-per-pixel
    and detector-work ratios.
    """
    if not rows:
        raise ValueError("no metrics rows to report")
    if pixels <= 0:
        raise ValueError("pixel count must be positive")
    n = len(rows)
    raw_bits = sum(r.raw_bits for r in rows)
    comp_bits = sum(r.comp_bits for r in rows)
    total_events = sum(r.events for r in rows)
    return {
        "frames": n,
        "events": total_events,
        "compression_ratio": raw_bits / comp_bits if comp_bits else math.inf,
        "mean_psnr_raw": sum(r.psnr_raw for r in rows) / n,
        "mean_psnr_comp": sum(r.psnr_comp for r in rows) / n,
        "events_per_pixel_frame": total_events / (pixels * n),
        "work_ratio": sum(r.tests for r in rows) / (pixels * n),
    }
