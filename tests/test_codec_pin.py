"""Codec 5 byte identity: the bodies of fixed streams are pinned by hash.

The streams are seeded, so their events never change; a source-model or
ADU change that alters a single value fails here.  What is pinned is each
unit's LEB128 body, which the format defines, and not the LZMA bytes
around it, which depend on liblzma's encoder.  The hashes were taken from
the per-event sequence of ``tests/compress_oracle.py`` written by its
scalar ``leb128``.  Every payload is also held to the size the same unit
took under codec 2, whose lossy timestamp shifts and shift symbols codec 3
dropped, under codec 3, whose adaptive range coder codec 4 replaced, and
under codec 4, whose cube model codec 5's raster-order columns replaced.
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
)
from evc import compress

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
        "e66c721bca05aca686c38e3fa9275ac3c5b644ab61f0ce002bf3942b63af80d5",
    (1, 20, 20, 4, None, 3):
        "e66c721bca05aca686c38e3fa9275ac3c5b644ab61f0ce002bf3942b63af80d5",
    (1, 20, 20, 4, None, 9):
        "e66c721bca05aca686c38e3fa9275ac3c5b644ab61f0ce002bf3942b63af80d5",
    (2, 37, 18, 3, 1000, 3):
        "22cc15b83578d7db518d29fe1406bb1c05dff250fb4b5b628c4ad9ae4e6fc45b",
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


def body_digest(payloads):
    digest = hashlib.sha256()
    for payload in payloads:
        body = lzma.decompress(payload[compress._ADU_PREFIX.size:],
                               lzma.FORMAT_RAW, filters=compress._FILTERS)
        digest.update(struct.pack("<I", len(body)))
        digest.update(body)
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(PINS, key=str))
def test_codec5_bodies_are_pinned(case):
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
    # likewise the codec-3 sizes: no unit may grow under codec 4 or 5
    seed, width, height, windows, dt_adu, crf = case
    events = pinned_stream(seed, width, height, windows)
    payloads = encode_stream(events, header(width, height, crf), dt_adu)
    assert len(payloads) == len(CODEC3_SIZES[case])
    for payload, size in zip(payloads, CODEC3_SIZES[case]):
        assert len(payload) <= size


@pytest.mark.parametrize("case", sorted(CODEC4_SIZES, key=str))
def test_codec4_payloads_are_pinned(case):
    # and the codec-4 sizes: no unit may grow under codec 5
    seed, width, height, windows, dt_adu, crf = case
    events = pinned_stream(seed, width, height, windows)
    payloads = encode_stream(events, header(width, height, crf), dt_adu)
    assert len(payloads) == len(CODEC4_SIZES[case])
    for payload, size in zip(payloads, CODEC4_SIZES[case]):
        assert len(payload) <= size
