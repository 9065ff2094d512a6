"""Codec 6 byte identity: the bodies of fixed streams are pinned by hash.

The streams are seeded, so their events never change; a source-model or
ADU change that alters a single value fails here.  What is pinned is each
unit's LEB128 body, which the format defines, and not the LZMA bytes
around it, which depend on liblzma's encoder.  The hashes were taken from
the per-event sequence of ``tests/compress_oracle.py`` written by its
scalar ``leb128``.  Every payload is also held to the size the same unit
took under codec 2, whose lossy timestamp shifts and shift symbols codec 3
dropped, under codec 3, whose adaptive range coder codec 4 replaced, and
under codec 4, whose cube model codec 5's raster-order columns replaced.

Codec 5's sizes of these streams are not a ceiling: ``pinned_stream``
puts its gap markers at random ticks off the frame grid, where codec 6's
frame step and phase cost 1.3 to 2.6% more per unit than codec 5's
interval.  The transcoder puts every marker on the grid, so codec 5's
sizes of a transcoded clip are the ceiling instead, and each codec-6 unit
of it must take at most 0.85 of its codec-5 size.
"""

import hashlib
import lzma
import random
import struct

import numpy as np
import pytest

from compress_oracle import encode_stream
from evc import (
    EMPTY,
    EVENT,
    StreamHeader,
    build_adus,
    decode_adu,
    synth_clip,
)
from evc import compress
from evc.harness import transcode_clip

DT_REF = 255
DT_MAX = 2550


def pinned_stream(seed, width, height, windows):
    """Steady-rate pixels with jittered intervals, d steps and gap markers,
    running across ``windows`` ADUs of the default dt_adu."""
    rng = random.Random(seed)
    rows = []
    for y in range(height):
        for x in range(width):
            if rng.random() < 0.25:
                continue
            d = rng.randrange(2, 10)
            dt = rng.randrange(40, 900)
            t = rng.randrange(1, dt + 1)
            while t <= windows * DT_MAX:
                if rng.random() < 0.1:
                    rows.append((x, y, EMPTY, t))
                else:
                    rows.append((x, y, d + rng.choice((-1, 0, 0, 0, 1)), t))
                t += max(1, dt + rng.randrange(-(dt // 8), dt // 8 + 1))
    rng.shuffle(rows)
    return np.array(rows, EVENT)


def header(width, height, crf):
    return StreamHeader(width, height, dt_ref=DT_REF, dt_max=DT_MAX,
                        dt_s=DT_REF * 30, crf=crf)


# (seed, width, height, windows, dt_adu, crf) -> sha256 of the units'
# LEB128 bodies, each prefixed by its length; CRF does not enter the
# coding, so the first three agree
PINS = {
    (1, 20, 20, 4, None, 0):
        "2e58cecf9954b05d54a70038f50478df8569d1769a985826984e8693a990c62e",
    (1, 20, 20, 4, None, 3):
        "2e58cecf9954b05d54a70038f50478df8569d1769a985826984e8693a990c62e",
    (1, 20, 20, 4, None, 9):
        "2e58cecf9954b05d54a70038f50478df8569d1769a985826984e8693a990c62e",
    (2, 37, 18, 3, 1000, 3):
        "e66799f1be57d0c2e0f3cb8d6b8f331169baa84d500e24079cf58038eafdc4b8",
}

# the same units' payload sizes in bytes under codec 2
CODEC2_SIZES = {
    (1, 20, 20, 4, None, 0): [5298, 5223, 5258, 5263],
    (1, 20, 20, 4, None, 3): [5725, 5650, 5687, 5694],
    (1, 20, 20, 4, None, 9): [5738, 5666, 5709, 5724],
    (2, 37, 18, 3, 1000, 3): [3817, 3891, 3805, 3843, 3830, 3867, 3799,
                              2560],
}

# and under codec 3, where CRF no longer entered the coding
CODEC3_SIZES = {
    (1, 20, 20, 4, None, 0): [5295, 5220, 5255, 5259],
    (1, 20, 20, 4, None, 3): [5295, 5220, 5255, 5259],
    (1, 20, 20, 4, None, 9): [5295, 5220, 5255, 5259],
    (2, 37, 18, 3, 1000, 3): [3583, 3647, 3565, 3616, 3596, 3639, 3566,
                              2424],
}

# and under codec 4, the same coder over codec 3's source model
CODEC4_SIZES = {
    (1, 20, 20, 4, None, 0): [4993, 4907, 4939, 4948],
    (1, 20, 20, 4, None, 3): [4993, 4907, 4939, 4948],
    (1, 20, 20, 4, None, 9): [4993, 4907, 4939, 4948],
    (2, 37, 18, 3, 1000, 3): [3434, 3484, 3422, 3479, 3444, 3478, 3442,
                              2376],
}

# the units of a transcoded walk clip at CRF 0, whose markers all sit on
# the frame grid, under codec 5: (kind, width, height, frames, seed) ->
# payload sizes in bytes on the header's dt_max grid
CODEC5_SIZES = {
    ("walk", 24, 16, 60, 1): [6297, 6320, 6320, 6361, 6335, 6445],
}
# the share of each codec-5 size that a codec-6 unit may take
CODEC5_SHARE = 0.85


def body_digest(payloads):
    digest = hashlib.sha256()
    for payload in payloads:
        body = lzma.decompress(payload[compress._ADU_PREFIX.size:],
                               lzma.FORMAT_RAW, filters=compress._FILTERS)
        digest.update(struct.pack("<I", len(body)))
        digest.update(body)
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(PINS, key=str))
def test_unit_bodies_are_pinned(case):
    seed, width, height, windows, dt_adu, crf = case
    events = pinned_stream(seed, width, height, windows)
    hdr = header(width, height, crf)
    payloads = encode_stream(events, hdr, dt_adu)
    assert body_digest(payloads) == PINS[case]

    # what the pin covers: several ADUs, pixels with events in more than
    # one of them, markers and pixels without events, all decoded exactly
    assert len(payloads) >= 3
    assert (events["d"] == EMPTY).any()
    assert len(np.unique(events[["x", "y"]])) < width * height
    adus = build_adus(events, hdr, dt_adu)
    first, second = ({(x, y) for x, y, _, _ in adu.events.tolist()}
                     for adu in adus[:2])
    assert first & second
    for k, (adu, payload) in enumerate(zip(adus, payloads)):
        assert np.array_equal(decode_adu(payload, hdr, k), adu.events)


@pytest.mark.parametrize("case", sorted(CODEC2_SIZES, key=str))
def test_codec2_payloads_are_pinned(case):
    # the codec-2 sizes stay pinned as a ceiling: no unit of these streams
    # may take more bytes now than it took under codec 2
    seed, width, height, windows, dt_adu, crf = case
    events = pinned_stream(seed, width, height, windows)
    payloads = encode_stream(events, header(width, height, crf), dt_adu)
    assert len(payloads) == len(CODEC2_SIZES[case])
    for payload, size in zip(payloads, CODEC2_SIZES[case]):
        assert len(payload) <= size


@pytest.mark.parametrize("case", sorted(CODEC3_SIZES, key=str))
def test_codec3_payloads_are_pinned(case):
    # likewise the codec-3 sizes: no unit may grow under codecs 4 to 6
    seed, width, height, windows, dt_adu, crf = case
    events = pinned_stream(seed, width, height, windows)
    payloads = encode_stream(events, header(width, height, crf), dt_adu)
    assert len(payloads) == len(CODEC3_SIZES[case])
    for payload, size in zip(payloads, CODEC3_SIZES[case]):
        assert len(payload) <= size


@pytest.mark.parametrize("case", sorted(CODEC4_SIZES, key=str))
def test_codec4_payloads_are_pinned(case):
    # and the codec-4 sizes: no unit may grow under codec 5 or 6
    seed, width, height, windows, dt_adu, crf = case
    events = pinned_stream(seed, width, height, windows)
    payloads = encode_stream(events, header(width, height, crf), dt_adu)
    assert len(payloads) == len(CODEC4_SIZES[case])
    for payload, size in zip(payloads, CODEC4_SIZES[case]):
        assert len(payload) <= size


@pytest.mark.parametrize("case", sorted(CODEC5_SIZES))
def test_codec5_payloads_of_a_transcoded_clip_are_pinned(case):
    # on a transcoded clip, where every marker is on the frame grid, each
    # unit takes at most CODEC5_SHARE of its codec-5 bytes
    kind, width, height, frames, seed = case
    hdr = header(width, height, 0)
    events = transcode_clip(hdr, synth_clip(kind, width, height, frames,
                                            seed))
    markers = events["t"][events["d"] == EMPTY]
    assert len(markers) > len(events) // 4
    assert (markers % DT_REF == 1).all()
    payloads = encode_stream(events, hdr)
    assert len(payloads) == len(CODEC5_SIZES[case])
    for payload, size in zip(payloads, CODEC5_SIZES[case]):
        assert len(payload) <= CODEC5_SHARE * size
    assert np.array_equal(
        np.concatenate([decode_adu(p, hdr, k)
                        for k, p in enumerate(payloads)]),
        np.concatenate([adu.events for adu in build_adus(events, hdr)]))
