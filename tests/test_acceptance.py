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

from evc import (
    EMPTY,
    ExperimentConfig,
    StreamFormatError,
    StreamHeader,
    compress_events,
    decode_adu,
    psnr,
    read_compressed,
    read_stream,
    reconstruct_at_boundaries,
    run_pipeline,
    synth_clip,
    transcode,
)
from evc.events import HEADER_SIZE

DT_REF = 255


@contextmanager
def gate(name):
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    print(f"PASS: {name}")


def pipeline(tmp_path, crf, frames, dt_adu=None, name="run"):
    config = ExperimentConfig(input="clip.y4m", crf=crf, dt_adu=dt_adu,
                              out_dir=str(tmp_path / name))
    return run_pipeline(config, frames=frames)


def by_pixel(events):
    seqs = {}
    for ev in sorted(events, key=lambda e: e.t):
        seqs.setdefault((ev.x, ev.y), []).append(ev)
    return seqs


def displayed(seq, dt_ref):
    out, prev = [], 0
    for ev in seq:
        dt = ev.t - prev
        prev = ev.t
        out.append(0 if ev.d == EMPTY else
                   min(255, ((2 << ev.d) * dt_ref + dt) // (2 * dt)))
    return out


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
        key = lambda e: (e.y, e.x, e.t)  # noqa: E731
        assert sorted(decoded, key=key) == sorted(raw, key=key)
        assert (Path(result.paths["recon_comp"]).read_bytes()
                == Path(result.paths["recon_raw"]).read_bytes())


def test_lossy_coding_keeps_every_displayed_value(tmp_path):
    with gate("lossy coding keeps every event's displayed value"):
        result = pipeline(tmp_path, 6, synth_clip("walk", 24, 16, 40, seed=3))
        header, raw = read_stream(result.paths["raw"])
        with open(result.paths["compressed"], "rb") as fp:
            _, decoded = read_compressed(fp)
        truth, got = by_pixel(raw), by_pixel(decoded)
        assert truth.keys() == got.keys()
        moved = 0
        for pixel, seq in truth.items():
            assert [e.d for e in got[pixel]] == [e.d for e in seq]
            assert (displayed(got[pixel], header.dt_ref)
                    == displayed(seq, header.dt_ref))
            moved += sum(a.t != b.t for a, b in zip(seq, got[pixel]))
        # the gate means something only if the coder moved timestamps
        assert moved > 0


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
        assert [e for k in range(len(blocks)) for e in alone[k]] == decoded
        for k, events in alone.items():
            lo, hi = k * 10 * DT_REF, (k + 1) * 10 * DT_REF
            assert all(lo < e.t <= hi or e.t == 0 == k for e in events)


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
        for seq in by_pixel(transcode(frames, header)).values():
            prev = 0
            for ev in seq:
                if ev.d != EMPTY:
                    assert ev.t - prev <= header.dt_max
                prev = ev.t


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: a player joining "
                   "mid-stream misreads each pixel's first interval")
def test_mid_stream_join_recovers_within_its_window():
    with gate("a mid-stream join recovers by the end of its ADU"):
        header = StreamHeader(24, 16, dt_ref=DT_REF, dt_max=30 * DT_REF,
                              dt_s=30 * DT_REF, crf=3)
        frames = synth_clip("walk", 24, 16, 90, seed=0)
        payloads = compress_events(transcode(frames, header), header)
        assert len(payloads) == 3
        decoded = [decode_adu(p, header, k) for k, p in enumerate(payloads)]
        full = reconstruct_at_boundaries(
            [e for adu in decoded for e in adu], header, 90)
        joined = reconstruct_at_boundaries(
            [e for adu in decoded[1:] for e in adu], header, 90)
        last = 59  # the final boundary of window 1
        ref = frames[last].astype(np.float64)
        assert psnr(ref, joined[last]) >= psnr(ref, full[last]) - 1.0
