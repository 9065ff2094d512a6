"""Output checks for one benchmark pass, and measures read off its streams.

Raw streams are parsed here with numpy from the documented layout (the
header through ``evc.events.read_header``, then 9-byte mono records), so
the checks do not lean on the reader they are checking.  The compressed
stream is decoded through the public ``evc decompress`` verb.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np

import evc.cli
from evc.events import EMPTY, HEADER_SIZE, read_header
from evc.harness import ingest_y4m, load_raw

EVENT = np.dtype([("x", "<u2"), ("y", "<u2"), ("d", "u1"), ("t", "<u4")])


class CheckError(Exception):
    """A pass produced output that breaks one of the benchmark's checks."""


def digests(paths: dict) -> dict:
    return {kind: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for kind, path in paths.items()}


def read_events(path):
    """(header, events sorted by pixel then t, mask of each pixel's first)."""
    data = Path(path).read_bytes()
    header = read_header(data[:HEADER_SIZE])
    if header.channels != 1 or header.event_size != EVENT.itemsize:
        raise CheckError(f"{path}: not a mono stream of 9-byte records")
    if (len(data) - HEADER_SIZE) % EVENT.itemsize:
        raise CheckError(f"{path}: truncated event record")
    events = np.frombuffer(data, EVENT, offset=HEADER_SIZE)
    pixel = events["y"].astype(np.int64) * header.width + events["x"]
    order = np.lexsort((events["t"], pixel))
    events, pixel = events[order], pixel[order]
    first = np.ones(len(events), bool)
    first[1:] = pixel[1:] != pixel[:-1]
    return header, events, first


def intervals(events, first):
    """Ticks since each event's predecessor at its pixel (since 0 for the
    pixel's first event)."""
    t = events["t"].astype(np.int64)
    prev = np.zeros_like(t)
    prev[1:] = t[:-1]
    prev[first] = 0
    return t - prev


def displayed(events, first, dt_ref):
    """Each event's displayed value, round(2^d * dt_ref / dt) capped at 255,
    in exact integer arithmetic."""
    spans = intervals(events, first)
    if len(spans) and spans.min() <= 0:
        raise CheckError("a pixel's events are not strictly increasing in t")
    return [0 if d == EMPTY else min(255, ((2 << d) * dt_ref + dt) // (2 * dt))
            for d, dt in zip(events["d"].tolist(), spans.tolist())]


def max_span_ratio(events, first, dt_max):
    """Longest interval an intensity event spans, over dt_max.  Zero-span
    markers (d = EMPTY) carry no intensity and are left out."""
    lit = events["d"] != EMPTY
    if not lit.any():
        return 0.0
    return float(intervals(events, first)[lit].max()) / dt_max


def check_events(raw_path, compressed_path, decoded_path, crf: int):
    """Decode the compressed stream and hold it to the raw one: exact at
    CRF 0; under lossy coding, every pixel keeps its event count and each
    event keeps its d and its displayed value.  Returns the raw events."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = evc.cli.main(["decompress", str(compressed_path),
                               "--out", str(decoded_path)])
    if status != 0:
        raise CheckError(f"evc decompress exited with {status}")
    header, raw, raw_first = read_events(raw_path)
    _, decoded, decoded_first = read_events(decoded_path)
    if crf == 0:
        if not np.array_equal(raw, decoded):
            raise CheckError("CRF 0 decode differs from the raw events")
    else:
        if len(raw) != len(decoded) or not np.array_equal(raw_first,
                                                          decoded_first):
            raise CheckError("lossy decode changed a pixel's event count")
        if not np.array_equal(raw[["x", "y", "d"]], decoded[["x", "y", "d"]]):
            raise CheckError("lossy decode changed an event's decimation")
        if displayed(raw, raw_first, header.dt_ref) != \
                displayed(decoded, decoded_first, header.dt_ref):
            raise CheckError("lossy decode changed a displayed value")
    return header, raw, raw_first


def check_play(play_path, recon_comp_path):
    """``evc play`` must show exactly the pipeline's compressed
    reconstruction, frame for frame."""
    played, _ = ingest_y4m(play_path)
    recon = load_raw(recon_comp_path)
    if len(played) != len(recon):
        raise CheckError(f"play wrote {len(played)} frames, the pipeline "
                         f"reconstructed {len(recon)}")
    for k, (a, b) in enumerate(zip(played, recon)):
        if not np.array_equal(a, b):
            raise CheckError(f"play frame {k} differs from recon-comp")
