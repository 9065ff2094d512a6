"""Codec 2 byte identity: the payloads of fixed streams are pinned by hash.

The streams are seeded, so their events never change; a coder or ADU
change that alters a single payload byte fails here.  The hashes were
taken from the per-symbol range coder that ``tests/cabac_oracle.py``
keeps as the reference.
"""

import hashlib
import random
import struct

import numpy as np
import pytest

from evc import (
    EMPTY,
    EVENT,
    StreamHeader,
    build_adus,
    compress_events,
    decode_adu,
)

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


# (seed, width, height, windows, dt_adu, crf) -> sha256 of the payloads,
# each prefixed by its length as in a compressed file
PINS = {
    (1, 20, 20, 4, None, 0):
        "3eb94a8a126cd5d05056ff623f91a4c0adb130797aa989e34063d4eda58cf6ab",
    (1, 20, 20, 4, None, 3):
        "be554cd02b677bfd38b75f4365dcb72d28fa2ee4c24cb26cd9c9ebe26db79c5f",
    (1, 20, 20, 4, None, 9):
        "cc96d46ad81267763139ac009043e6749e35f74a67f3f0b8663c6fefce930d02",
    (2, 37, 18, 3, 1000, 3):
        "cb42e4ee6b193a0180f0cfed9b1c955ddd37aceae955fee5b9d8af39ff7749a9",
}


def payload_digest(payloads):
    digest = hashlib.sha256()
    for payload in payloads:
        digest.update(struct.pack("<I", len(payload)))
        digest.update(payload)
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(PINS, key=str))
def test_codec2_payloads_are_pinned(case):
    seed, width, height, windows, dt_adu, crf = case
    events = pinned_stream(seed, width, height, windows)
    hdr = header(width, height, crf)
    payloads = compress_events(events, hdr, dt_adu)
    assert payload_digest(payloads) == PINS[case]

    # what the pin covers: several ADUs with lookahead events across
    # them, markers, edge cubes, and at CRF above 0 shifted timestamps
    assert len(payloads) >= 3
    adus = build_adus(events, hdr, dt_adu)
    assert all(len(adu.following) for adu in adus[:-1])
    assert (events["d"] == EMPTY).any()
    assert width % 16 and height % 16
    decoded = np.concatenate([decode_adu(p, hdr, k)
                              for k, p in enumerate(payloads)])
    order = np.lexsort((decoded["t"], decoded["x"], decoded["y"]))
    truth = np.sort(events, order=["y", "x", "t"])
    moved = (decoded[order]["t"] != truth["t"]).sum()
    assert (moved == 0) == (crf == 0)
