"""End-to-end gates: each test prints one PASS/FAIL line naming its gate.

Run with ``-s`` (or ``-rA``) to see the lines.  The two gates that the
code does not meet yet are strict xfails citing ROADMAP item 4, so they
report the defect on every run and turn into failures once fixed.
"""

import io
import random
import struct
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from compress_oracle import encode_stream
from evc import (
    EMPTY,
    ExperimentConfig,
    StreamFormatError,
    StreamHeader,
    decode_adu,
    read_compressed,
    read_stream,
    reconstruct_at_boundaries,
    run_pipeline,
    synth_clip,
)
from evc.events import HEADER_SIZE
from evc.harness import transcode_clip
from fastdet_oracle import psnr

DT_REF = 255


@contextmanager
def gate(name):
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    print(f"PASS: {name}")


def pipeline(tmp_path, crf, frames, dt_adu=None, name="run", dt_ref=DT_REF):
    config = ExperimentConfig(input="clip.y4m", crf=crf, dt_adu=dt_adu,
                              dt_ref=dt_ref, dt_max=30 * dt_ref,
                              out_dir=str(tmp_path / name))
    return run_pipeline(config, frames=frames)


def by_pixel(events):
    """Each pixel's (d, t) pairs in timestamp order."""
    seqs = {}
    for x, y, d, t in sorted(events.tolist(), key=lambda e: e[3]):
        seqs.setdefault((x, y), []).append((d, t))
    return seqs


def adu_blocks(path):
    data = Path(path).read_bytes()
    blocks, pos = [], HEADER_SIZE
    while pos < len(data):
        (length,) = struct.unpack_from("<I", data, pos)
        blocks.append(data[pos + 4:pos + 4 + length])
        pos += 4 + length
    return blocks


def test_crf0_is_bit_lossless(tmp_path):
    with gate("CRF 0 is bit-lossless"):
        result = pipeline(tmp_path, 0, synth_clip("walk", 24, 16, 40, seed=2))
        _, raw = read_stream(result.paths["raw"])
        with open(result.paths["compressed"], "rb") as fp:
            _, decoded = read_compressed(fp)
        assert by_pixel(decoded) == by_pixel(raw)
        assert (Path(result.paths["recon_comp"]).read_bytes()
                == Path(result.paths["recon_raw"]).read_bytes())


def test_lossy_coding_keeps_every_displayed_value(tmp_path):
    # CRF is lossy in the transcoder; the coder after it keeps every event,
    # so the compressed stream displays exactly what the raw stream does.
    # At dt_ref 1 and 2 the clamps that keep ticks strictly increasing
    # bind most.
    with gate("compression is lossless at every CRF and dt_ref"):
        frames = synth_clip("walk", 24, 16, 40, seed=3)
        for dt_ref in (1, 2, DT_REF):
            for crf in (0, 3, 6, 9):
                result = pipeline(tmp_path, crf, frames, dt_ref=dt_ref,
                                  name=f"dt{dt_ref}-crf{crf}")
                _, raw = read_stream(result.paths["raw"])
                with open(result.paths["compressed"], "rb") as fp:
                    _, decoded = read_compressed(fp)
                assert by_pixel(decoded) == by_pixel(raw)
                assert (Path(result.paths["recon_comp"]).read_bytes()
                        == Path(result.paths["recon_raw"]).read_bytes())


def test_adus_decode_on_their_own(tmp_path):
    with gate("ADUs decode on their own"):
        result = pipeline(tmp_path, 3, synth_clip("walk", 24, 16, 40, seed=4),
                          dt_adu=10 * DT_REF)
        with open(result.paths["compressed"], "rb") as fp:
            header, decoded = read_compressed(fp)
        blocks = adu_blocks(result.paths["compressed"])
        assert len(blocks) >= 4
        alone = {k: decode_adu(blocks[k], header, k)
                 for k in reversed(range(len(blocks)))}
        assert np.array_equal(
            np.concatenate([alone[k] for k in range(len(blocks))]), decoded)
        for k, events in alone.items():
            lo, hi = k * 10 * DT_REF, (k + 1) * 10 * DT_REF
            assert all(lo < t <= hi or t == 0 == k
                       for t in events["t"].tolist())


def test_runs_are_deterministic(tmp_path):
    with gate("runs are deterministic"):
        frames = synth_clip("walk", 24, 16, 30, seed=5)
        runs = [pipeline(tmp_path, 3, frames, name=name)
                for name in ("one", "two")]
        for kind in runs[0].paths:
            assert (Path(runs[0].paths[kind]).read_bytes()
                    == Path(runs[1].paths[kind]).read_bytes())


def test_malformed_input_fails_with_stream_format_error(tmp_path):
    with gate("malformed input fails with StreamFormatError in bounded time"):
        result = pipeline(tmp_path, 3, synth_clip("walk", 16, 16, 40, seed=6))
        compressed = Path(result.paths["compressed"]).read_bytes()
        raw_path = tmp_path / "bad.adder"
        raw = Path(result.paths["raw"]).read_bytes()
        rng = random.Random(6)
        failures = 0
        for n in range(120):
            data = bytearray(compressed if n % 2 else raw)
            mode = n % 6 // 2
            if mode == 0:
                # body bytes only: a header may declare any legal geometry
                pos = rng.randrange(HEADER_SIZE, len(data))
                data[pos] ^= rng.randrange(1, 256)
            elif mode == 1:
                del data[rng.randrange(len(data)):]
            else:
                # magic, version, channels, crf or codec
                pos = rng.choice((0, 4, 10, 11, 12))
                data[pos] ^= 0x80
            start = time.perf_counter()
            try:
                if n % 2:
                    read_compressed(io.BytesIO(bytes(data)))
                else:
                    raw_path.write_bytes(bytes(data))
                    read_stream(str(raw_path))
            except StreamFormatError:
                failures += 1
            assert time.perf_counter() - start < 2.0
        # a raw body has no redundancy: a flipped byte there still parses
        assert failures >= 90


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: coalesced spans "
                   "have no dt_max cap")
def test_event_spans_stay_within_dt_max():
    with gate("no event spans more than dt_max"):
        header = StreamHeader(2, 2, dt_ref=DT_REF, dt_max=30 * DT_REF,
                              dt_s=30 * DT_REF, crf=0)
        frames = [np.full((2, 2), 100, np.uint8)] * 400
        for seq in by_pixel(transcode_clip(header, frames)).values():
            prev = 0
            for d, t in seq:
                if d != EMPTY:
                    assert t - prev <= header.dt_max
                prev = t


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: a player joining "
                   "mid-stream misreads each pixel's first interval")
def test_mid_stream_join_recovers_within_its_window():
    with gate("a mid-stream join recovers by the end of its ADU"):
        header = StreamHeader(24, 16, dt_ref=DT_REF, dt_max=30 * DT_REF,
                              dt_s=30 * DT_REF, crf=3)
        frames = synth_clip("walk", 24, 16, 90, seed=0)
        payloads = encode_stream(transcode_clip(header, frames), header)
        assert len(payloads) == 3
        decoded = [decode_adu(p, header, k) for k, p in enumerate(payloads)]
        full = reconstruct_at_boundaries(np.concatenate(decoded), header, 90)
        joined = reconstruct_at_boundaries(np.concatenate(decoded[1:]),
                                           header, 90)
        last = 59  # the final boundary of window 1
        ref = frames[last].astype(np.float64)
        assert psnr(ref, joined[last]) >= psnr(ref, full[last]) - 1.0
