#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the evc pipeline.

    python3 perfbench/run.py --workload dense-lossless --seed 1 \\
        --seconds 34 --trace 0

Run from the repository root; ``evc`` is imported from ``src/``.  The
load is a closed loop: one process, one pass at a time, no threads.  A
pass is one ``evc.harness.run_pipeline`` over the in-memory clip (all five
artifacts written) followed by ``evc play`` on its ``.adderc``, and every
pass is checked (see ``checks.py``).  An untimed warm-up pass comes first
and fixes the reference artifacts; passes then repeat until the next one
would overrun ``--seconds``.

``--trace 0`` times the passes untraced and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes, prints the per-layer
metrics from the traced ones, and writes their spans to ``perfbench/_out``.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).  Timings are medians over the passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

if not (SRC / "evc" / "__init__.py").is_file():
    sys.exit(f"error: no evc sources under {SRC}; run from a checkout")
sys.path[:0] = [str(SRC), str(HERE)]

import evc  # noqa: E402
import evc.cli  # noqa: E402
import evc.harness  # noqa: E402

import checks  # noqa: E402
from spans import Tracer, instrument  # noqa: E402
from workloads import DT_MAX, DT_REF, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
MIN_PASSES = 3

# Each setup sample is a fresh interpreter that imports evc (through the
# workload module) and generates the clip; it prints its own elapsed time,
# so interpreter start-up is left out.
SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]].frames(int(sys.argv[4]), sys.argv[5] == "1")
print(time.perf_counter() - start)
"""

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "play_s": "s",
    "bits_per_px": "bit/px/frame",
    "psnr_db": "dB",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "transcode.self_s": "s",
    "transcode.mpx_per_s": "Mpx/s",
    "transcode.events": "count",
    "transcode.events_per_px_frame": "events/px/frame",
    "transcode.psnr_raw_db": "dB",
    "transcode.max_span_ratio": "ratio",
    "events.write_s": "s",
    "events.raw_bytes": "B",
    "events.bytes_per_event_mem": "B/event",
    "compress.build_adus_s": "s",
    "compress.encode_s": "s",
    "compress.encode_events_per_s": "events/s",
    "compress.decode_s": "s",
    "compress.decode_events_per_s": "events/s",
    "compress.adus": "count",
    "compress.bits_per_event": "bit/event",
    "reconstruct.s": "s",
    "reconstruct.events_per_s": "events/s",
    "fastdet.s": "s",
    "fastdet.tests": "count",
    "fastdet.tests_per_event": "tests/event",
    "fastdet.features": "count",
    "harness.self_s": "s",
    "trace.overhead_s": "s",
    "fail_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of measured ones")
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int, tiny: bool) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE),
             workload, str(seed), "1" if tiny else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


class Bench:
    """One workload's passes, their checks, and the reference artifacts."""

    def __init__(self, workload, frames):
        self.workload = workload
        self.frames = frames
        self.out_dir = OUT / workload.name
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.config = evc.harness.ExperimentConfig(
            input=f"{workload.name}.y4m", crf=workload.crf,
            feature_adaptation=workload.features, dt_ref=DT_REF,
            dt_max=DT_MAX, detector_mode=workload.mode,
            out_dir=str(self.out_dir))
        self.attempted = 0
        self.failed = 0
        self.reference = None   # artifact digests of the first pass
        self.result = None      # that pass's PipelineResult
        self.raw = None         # its raw events, once they pass the checks
        self.event_error = None

    def run_pass(self, tracer=None):
        """One checked pass; returns (pipeline_s, play_s, index of the play
        span or None), or None if the pass raised or failed a check."""
        pipeline, play = evc.harness.run_pipeline, evc.cli.main
        if tracer is not None:
            pipeline = tracer.wrap("harness.run_pipeline", pipeline)
            play = tracer.wrap("cli.play", play)
        play_path = self.out_dir / f"{self.workload.name}.play.y4m"
        self.attempted += 1
        gc.collect()
        try:
            start = time.perf_counter()
            result = pipeline(self.config, frames=self.frames)
            middle = time.perf_counter()
            split = len(tracer) if tracer is not None else None
            with contextlib.redirect_stdout(io.StringIO()):
                status = play(["play", result.paths["compressed"],
                               "--out", str(play_path)])
            end = time.perf_counter()
            if status != 0:
                raise checks.CheckError(f"evc play exited with {status}")
            self.verify(result, play_path)
        except Exception:  # a failed pass is counted, not fatal
            self.failed += 1
            print(f"pass {self.attempted} failed:", file=sys.stderr)
            traceback.print_exc()
            return None
        return middle - start, end - middle, split

    def verify(self, result, play_path):
        """Hold a pass to the first one byte for byte, and to the event
        checks, which run once on the first pass: a pass with identical
        bytes shares their verdict."""
        found = checks.digests(result.paths)
        if self.reference is None:
            self.reference, self.result = found, result
            try:
                self.raw = checks.check_events(
                    result.paths["raw"], result.paths["compressed"],
                    self.out_dir / "decoded.adder", self.workload.crf)
            except Exception as exc:
                self.event_error = f"{type(exc).__name__}: {exc}"
        if found != self.reference:
            changed = sorted(k for k in found if found[k] != self.reference[k])
            raise checks.CheckError(f"artifacts differ from the first pass: "
                                    f"{', '.join(changed)}")
        if self.event_error is not None:
            raise checks.CheckError(self.event_error)
        checks.check_play(play_path, result.paths["recon_comp"])

    def quality(self) -> dict:
        """Size and quality figures of the reference pass."""
        result = self.result
        header = result.header
        pixels = header.width * header.height
        rep = evc.harness.report(result.rows, pixels)
        coded = Path(result.paths["compressed"]).stat().st_size
        return {
            "pixels": pixels,
            "frames": rep["frames"],
            "events": rep["events"],
            "bits_per_px": 8 * coded / (pixels * rep["frames"]),
            "bits_per_event": 8 * coded / max(1, rep["events"]),
            "psnr_comp": rep["mean_psnr_comp"],
            "psnr_raw": rep["mean_psnr_raw"],
            "events_per_px_frame": rep["events_per_pixel_frame"],
            "tests": sum(row.tests for row in result.rows),
            "features": result.rows[-1].features,
            "raw_bytes": Path(result.paths["raw"]).stat().st_size,
        }


def timed_loop(bench: Bench, seconds: float, step) -> None:
    """Warm up once, then call ``step`` until the next call would end past
    ``seconds``; at least MIN_PASSES calls are made."""
    bench.run_pass()
    deadline = time.perf_counter() + seconds
    calls = 0
    while True:
        begin = time.perf_counter()
        step()
        calls += 1
        end = time.perf_counter()
        if calls >= MIN_PASSES and end + (end - begin) > deadline:
            return


def median(values):
    if not values:
        raise RuntimeError("every measured pass failed")
    return statistics.median(values)


def describe(name, samples):
    if samples:
        print(f"  {name}: median {median(samples):.4f} s over "
              f"{len(samples)} samples (min {min(samples):.4f}, "
              f"max {max(samples):.4f})")


def end_to_end(bench: Bench, args, setup: list[float]) -> dict:
    pipeline_s, play_s = [], []

    def step():
        timing = bench.run_pass()
        if timing is not None:
            pipeline_s.append(timing[0])
            play_s.append(timing[1])

    timed_loop(bench, args.seconds, step)
    for name, samples in (("setup_s", setup), ("pipeline_s", pipeline_s),
                          ("play_s", play_s)):
        describe(name, samples)
    timings = {"setup_s": median(setup), "pipeline_s": median(pipeline_s),
               "play_s": median(play_s)}
    quality = bench.quality()
    return {
        **timings,
        "bits_per_px": quality["bits_per_px"],
        "psnr_db": quality["psnr_comp"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "ok_ratio": 1 - bench.failed / bench.attempted,
    }


def bytes_per_event_in_memory(path) -> float:
    """Bytes the event list read back from ``path`` holds, per event."""
    tracemalloc.start()
    try:
        _, events = evc.read_stream(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held / max(1, len(events))


def layer_sample(summary: dict) -> dict:
    """Per-layer seconds of one traced pipeline call, from its spans."""
    def total(name):
        return summary.get(name, (0, 0.0, 0.0))[1]

    def own(layer):
        return sum(self_s for name, (_, _, self_s) in summary.items()
                   if name.startswith(layer + "."))

    return {
        "wall": total("harness.run_pipeline"),
        "harness.self_s": own("harness"),
        "transcode.self_s": own("transcode"),
        "events.write_s": total("events.write_stream"),
        "compress.build_adus_s": total("compress.build_adus"),
        "compress.encode_s": total("compress.encode_adu"),
        "compress.decode_s": total("compress.read_compressed"),
        "compress.adus": summary.get("compress.encode_adu", (0,))[0],
        "reconstruct.s": own("reconstruct"),
        "reconstruct.replay_s": total("reconstruct.reconstruct_at_boundaries"),
        "fastdet.s": own("fastdet"),
    }


def per_layer(bench: Bench, args) -> dict:
    tracer = Tracer()
    untraced_s, samples = [], []

    def step():
        timing = bench.run_pass()
        if timing is not None:
            untraced_s.append(timing[0])
        lo = len(tracer)
        with instrument(tracer):
            timing = bench.run_pass(tracer)
        if timing is not None:
            # spans are stored in pre-order, so the pipeline's subtree is
            # everything before the play call's root span
            samples.append(layer_sample(tracer.summary(lo, timing[2])))

    timed_loop(bench, args.seconds, step)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{args.workload}-seed{args.seed}.spans.json")
    if any(sample["harness.self_s"] < 0 for sample in samples):
        raise RuntimeError("layer spans exceed the traced wall time")
    for name in ("wall", "harness.self_s", "transcode.self_s",
                 "compress.encode_s", "compress.decode_s", "fastdet.s"):
        describe(name, [sample[name] for sample in samples])
    if not samples:
        raise RuntimeError("every traced pass failed")
    m = {name: median([sample[name] for sample in samples])
         for name in samples[0]}

    quality = bench.quality()
    events = quality["events"]
    header, raw, first = bench.raw
    return {
        "transcode.self_s": m["transcode.self_s"],
        "transcode.mpx_per_s": quality["pixels"] * quality["frames"] / 1e6
        / m["transcode.self_s"],
        "transcode.events": events,
        "transcode.events_per_px_frame": quality["events_per_px_frame"],
        "transcode.psnr_raw_db": quality["psnr_raw"],
        "transcode.max_span_ratio": checks.max_span_ratio(raw, first,
                                                          header.dt_max),
        "events.write_s": m["events.write_s"],
        "events.raw_bytes": quality["raw_bytes"],
        "events.bytes_per_event_mem": bytes_per_event_in_memory(
            bench.result.paths["raw"]),
        "compress.build_adus_s": m["compress.build_adus_s"],
        "compress.encode_s": m["compress.encode_s"],
        "compress.encode_events_per_s": events / m["compress.encode_s"],
        "compress.decode_s": m["compress.decode_s"],
        "compress.decode_events_per_s": events / m["compress.decode_s"],
        "compress.adus": m["compress.adus"],
        "compress.bits_per_event": quality["bits_per_event"],
        "reconstruct.s": m["reconstruct.s"],
        # the pipeline replays twice: the raw events and the decoded ones
        "reconstruct.events_per_s": 2 * events / m["reconstruct.replay_s"],
        "fastdet.s": m["fastdet.s"],
        "fastdet.tests": quality["tests"],
        "fastdet.tests_per_event": quality["tests"] / max(1, events),
        "fastdet.features": quality["features"],
        "harness.self_s": m["harness.self_s"],
        "trace.overhead_s": m["wall"] - median(untraced_s),
        "fail_ratio": bench.failed / bench.attempted,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    setup = [] if args.trace else setup_seconds(args.workload, args.seed,
                                                args.tiny)
    bench = Bench(workload, workload.frames(args.seed, args.tiny))
    print(f"{args.workload} seed {args.seed}: "
          f"{'x'.join(map(str, workload.tiny if args.tiny else workload.size))}"
          f" crf {workload.crf} features "
          f"{workload.mode if workload.features else 'off'}")
    if args.trace:
        values, units = per_layer(bench, args), PER_LAYER
    else:
        values, units = end_to_end(bench, args, setup), END_TO_END
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
