"""Command-line interface: transcode, compress, play, detect, bench, synth.

Each subcommand wraps one pipeline stage so streams can be inspected and
piped between tools; ``bench`` runs the full experiment grid (a CRF
sweep) and writes per-run metrics CSVs.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .compress import read_compressed
from .events import (
    CODEC_COMPRESSED,
    CODEC_RAW,
    DEFAULT_DT_REF,
    HEADER_SIZE,
    StreamFormatError,
    read_header,
    read_stream,
    window_of,
    write_stream,
)
from .fastdet import DEFAULT_THRESHOLD, MODES, Detector, detect_at_boundaries
from .harness import (
    CLIP_KINDS,
    ExperimentConfig,
    PipelineError,
    compress_stream,
    ingest,
    load_frames,
    report,
    run_pipeline,
    save_frames,
    synth_clip,
    transcode_clip,
    worker_count,
)
from .reconstruct import reconstruct_at_boundaries

BENCH_CRFS = (0, 3, 6, 9)


def _size(text: str) -> tuple[int, int]:
    """Parse a WxH geometry argument."""
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WxH, got {text!r}")


def _dt_adu(text: str) -> int:
    """Parse an access-unit length: ticks that fit the unit prefix's u32."""
    value = int(text)
    if not 0 < value < 1 << 32:
        raise argparse.ArgumentTypeError(f"{value} outside 1..{(1 << 32) - 1}")
    return value


def _read_to_play(path: str):
    """Read an event stream, raw or compressed by its header, to play or
    detect: returns (header, events, frame count).  The frames run up to
    the one the last tick falls in, so every event shows; a stream of no
    events raises StreamFormatError."""
    with open(path, "rb") as fp:
        header = read_header(fp.read(HEADER_SIZE))
        if header.source_codec == CODEC_COMPRESSED:
            fp.seek(0)
            header, events = read_compressed(fp)
        else:
            header, events = read_stream(path)
    if not len(events):
        raise StreamFormatError("stream holds no events")
    return header, events, int(window_of(events["t"].max(),
                                         header.dt_ref)) + 1


def cmd_transcode(args) -> int:
    config = ExperimentConfig(input=args.input, crf=args.crf,
                              dt_ref=args.dt_ref, dt_max=args.dt_max,
                              fps=args.fps)
    frames, header = ingest(config)
    events = transcode_clip(header, frames)
    out = args.out or f"{Path(args.input).stem}.adder"
    size = write_stream(out, header, events)
    print(f"{out}: {len(events)} events, {size} bytes "
          f"({len(frames)} frames at crf {args.crf})")
    return 0


def cmd_compress(args) -> int:
    header, events = read_stream(args.input)
    out = args.out or f"{Path(args.input).stem}.adderc"
    compress_stream(out, header, events, args.dt_adu)
    raw = Path(args.input).stat().st_size
    coded = Path(out).stat().st_size
    print(f"{out}: {raw} -> {coded} bytes ({raw / coded:.2f}:1)")
    return 0


def cmd_decompress(args) -> int:
    with open(args.input, "rb") as fp:
        header, events = read_compressed(fp)
    out = args.out or f"{Path(args.input).stem}.adder"
    size = write_stream(out, replace(header, source_codec=CODEC_RAW), events)
    print(f"{out}: {len(events)} events, {size} bytes")
    return 0


def cmd_play(args) -> int:
    header, events, n_frames = _read_to_play(args.input)
    frames = reconstruct_at_boundaries(events, header, n_frames)
    out = args.out or f"{Path(args.input).stem}.gray"
    save_frames(out, frames, header.dt_s / header.dt_ref)
    print(f"{out}: {n_frames} frames of {header.width}x{header.height}")
    return 0


def cmd_detect(args) -> int:
    header, events, n_frames = _read_to_play(args.input)
    detector = Detector(header, args.fast_threshold, args.mode)
    images = reconstruct_at_boundaries(events, header, n_frames)
    out = args.out or f"{Path(args.input).stem}.features.csv"
    with open(out, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(("frame", "x", "y"))
        for k, _ in enumerate(detect_at_boundaries(detector, events, images,
                                                   header.dt_ref)):
            # the transposed mask lists the corners in (x, y) order
            xs, ys = np.nonzero(detector.corners.T)
            writer.writerows(zip(repeat(k), xs.tolist(), ys.tolist()))
    pixels = header.width * header.height
    print(f"{out}: {int(detector.corners.sum())} features at the last "
          f"boundary, {detector.test_count} tests "
          f"(work ratio {detector.test_count / (pixels * n_frames):.4f})")
    return 0


def _bench_one(config: ExperimentConfig, frames):
    result = run_pipeline(config, frames=frames)
    pixels = result.header.width * result.header.height
    return config, report(result.rows, pixels)


def cmd_bench(args) -> int:
    # imported here so that only bench pays for the multiprocessing import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fps = args.fps
    if args.input:
        frames, file_fps = load_frames(args.input)
        fps, stem = file_fps or fps, Path(args.input).stem
    else:
        frames = synth_clip(args.kind, *args.size, args.frames, args.seed)
        stem = args.kind
    out_dir = Path(args.out)
    configs = [
        ExperimentConfig(
            input=f"{stem}.y4m", crf=crf, dt_ref=args.dt_ref,
            dt_max=args.dt_max, dt_adu=args.dt_adu,
            fast_threshold=args.fast_threshold, detector_mode=args.mode,
            out_dir=str(out_dir / f"crf{crf}"), fps=fps)
        for crf in BENCH_CRFS
    ]
    with ProcessPoolExecutor(
            max_workers=worker_count(),
            mp_context=multiprocessing.get_context("spawn")) as pool:
        results = list(pool.map(_bench_one, configs, repeat(frames)))
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = out_dir / "bench.csv"
    with open(summary, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(("crf", "events", "compression_ratio",
                         "mean_psnr_raw", "mean_psnr_comp",
                         "events_per_pixel_frame", "work_ratio"))
        for config, rep in results:
            writer.writerow((
                config.crf, rep["events"], f"{rep['compression_ratio']:.3f}",
                f"{rep['mean_psnr_raw']:.2f}", f"{rep['mean_psnr_comp']:.2f}",
                f"{rep['events_per_pixel_frame']:.4f}",
                f"{rep['work_ratio']:.4f}"))
    for config, rep in results:
        print(f"crf {config.crf}: "
              f"ratio {rep['compression_ratio']:5.2f}  "
              f"psnr {rep['mean_psnr_raw']:6.2f}/{rep['mean_psnr_comp']:6.2f}  "
              f"work {rep['work_ratio']:.4f}")
    print(f"summary written to {summary}")
    return 0


def cmd_synth(args) -> int:
    frames = synth_clip(args.kind, *args.size, args.frames, args.seed)
    out = args.out or f"{args.kind}.y4m"
    save_frames(out, frames, args.fps)
    print(f"{out}: {args.frames} frames of {args.size[0]}x{args.size[1]}")
    return 0


def _add_stream_flags(sub, crf=True):
    if crf:
        sub.add_argument("--crf", type=int, default=3,
                         help="quality preset, 0 (lossless) to 9 (coarsest)")
    sub.add_argument("--dt-ref", type=int, default=DEFAULT_DT_REF,
                     help="ticks per input frame interval")
    sub.add_argument("--dt-max", type=int, default=30 * DEFAULT_DT_REF,
                     help="maximum ticks an event may span")


def _add_detect_flags(sub):
    sub.add_argument("--fast-threshold", type=int, default=DEFAULT_THRESHOLD,
                     help="FAST circle contrast threshold")
    sub.add_argument("--mode", choices=MODES, default="paper",
                     help="retest only the event pixel, or its ring too")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evc",
        description="Asynchronous intensity-event video transcoder and codec")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("transcode",
                            help="frames (.y4m or raw+sidecar) to .adder")
    p.add_argument("input")
    _add_stream_flags(p)
    p.add_argument("--fps", type=float, default=30.0,
                   help="frame rate when the input cannot carry one")
    p.add_argument("--out")
    p.set_defaults(func=cmd_transcode)

    p = commands.add_parser("compress", help=".adder to .adderc")
    p.add_argument("input")
    p.add_argument("--dt-adu", type=_dt_adu, default=None,
                   help="ticks per access unit (default: the stream's dt_max)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compress)

    p = commands.add_parser("decompress", help=".adderc back to .adder")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompress)

    p = commands.add_parser("play",
                            help="reconstruct a stream to frames at each "
                                 "reference boundary")
    p.add_argument("input")
    p.add_argument("--out", help=".gray (raw + .dims sidecar) or .y4m")
    p.set_defaults(func=cmd_play)

    p = commands.add_parser("detect",
                            help="run the event-driven corner detector")
    p.add_argument("input")
    _add_detect_flags(p)
    p.add_argument("--out", help="features CSV path")
    p.set_defaults(func=cmd_detect)

    p = commands.add_parser("bench", help="full grid: a crf sweep")
    p.add_argument("input", nargs="?", default="",
                   help="clip path; omit to synthesize one")
    p.add_argument("--kind", choices=CLIP_KINDS, default="moving_box",
                   help="synthetic clip kind when no input is given")
    p.add_argument("--size", type=_size, default=(160, 120))
    p.add_argument("--frames", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fps", type=float, default=30.0)
    _add_stream_flags(p, crf=False)
    p.add_argument("--dt-adu", type=_dt_adu, default=None)
    _add_detect_flags(p)
    p.add_argument("--out", default="bench",
                   help="directory for per-run artifacts and bench.csv")
    p.set_defaults(func=cmd_bench)

    p = commands.add_parser("synth", help="write a synthetic test clip")
    p.add_argument("kind", choices=CLIP_KINDS)
    p.add_argument("--size", type=_size, default=(64, 64))
    p.add_argument("--frames", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StreamFormatError, PipelineError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
