"""Event-stream compression: raster-order columns coded with LZMA.

The stream is cut into access units (ADUs) on a fixed tick grid, each
coded on its own, its events sorted by pixel in raster order, then by t.
Every value is coded exactly, so a unit decodes to its own events at
every CRF: the loss CRF buys happens in the transcoder alone.

A unit is a prefix (start tick, pixel count, event count) and six
columns: each pixel's raster-index gap from the previous pixel with
events, and its event count, both minus 1; the zigzag steps of coded d,
at each pixel's first event from the previous pixel's first and at each
later event from the pixel's previous one; each pixel's first tick from
the unit's start, and each later event's interval minus 1.  A coded d is
``(d + 1) & 0xFF``, which puts ``EMPTY`` at 0, next to the decimations.
The values go out as unsigned LEB128 varints under raw LZMA1 (the
stdlib's ``lzma``: an adaptive binary range coder with context-modelled
literals and LZ matches).  ``decode_adu`` inflates no more than the
prefix's counts allow and rebuilds the columns by cumulative sums.
"""

from __future__ import annotations

import lzma
import struct
from dataclasses import dataclass, replace

import numpy as np

from .events import (
    CODEC_COMPRESSED,
    D_MAX,
    EVENT,
    HEADER_SIZE,
    StreamFormatError,
    read_header,
    window_of,
    write_header,
)

_T_LIMIT = 1 << 32
# one more than the largest step between two coded decimations
_D_STEP = D_MAX + 2

_ADU_PREFIX = struct.Struct("<III")    # start_t, pixels, events
_SHORT = "read past the end of the payload"
_LONG = "more values than the prefix declares"

# The entropy stage is part of the format: raw LZMA1 with a 4 KiB
# dictionary, one literal context bit and no position bits.  The small
# dictionary keeps the encoder's fixed workspace near 1.3 MiB.
_FILTERS = ({"id": lzma.FILTER_LZMA1, "dict_size": 4096, "lc": 1, "lp": 0,
             "pb": 0},)
# a varint carries 7 bits a byte, so 9 bytes hold any value below 2**63
_VARINT_BYTES = 9
_CHUNK = 2048


class DecodeError(StreamFormatError):
    """Raised when a compressed payload cannot be parsed."""

    def __init__(self, message, adu_index=None):
        if adu_index is not None:
            message = f"ADU {adu_index}: {message}"
        super().__init__(message)
        self.adu_index = adu_index


@dataclass(slots=True)
class Adu:
    """Independently decodable unit spanning a window of the tick grid.

    ``events`` is the window's ``EVENT`` slice in coding order: by pixel
    in raster order, then by t.
    """

    start_t: int
    span: int
    events: np.ndarray


def build_adus(events, header, dt_adu=None):
    """Partition an ``EVENT`` array into ADUs on the dt_adu tick grid."""
    span = header.dt_max if dt_adu is None else int(dt_adu)
    if not 0 < span < _T_LIMIT:
        raise ValueError(f"dt_adu {span} outside 1..{_T_LIMIT - 1}")
    x, y, t = (events[f].astype(np.int64) for f in "xyt")
    outside = np.flatnonzero((x >= header.width) | (y >= header.height))
    if len(outside):
        k = outside[0]
        raise ValueError(f"event out of bounds at ({x[k]}, {y[k]})")
    # the window is left-open: an event at exactly start_t + span still
    # belongs to the unit, the first event beyond it opens the next
    window = window_of(t, span)
    order = np.lexsort((t, y * header.width + x, window))
    # take gathers 9-byte records about ten times faster than indexing
    ordered, window = events.take(order), window[order]
    at = np.searchsorted(window, np.arange(int(window.max(initial=0)) + 2))
    return [Adu(k * span, span, ordered[at[k]:at[k + 1]])
            for k in range(len(at) - 1)]


def zigzag(v):
    """Signed to unsigned, in place on an integer array: 0, -1, 1, -2, 2 ...
    -> 0, 1, 2, 3, 4 ..."""
    negative = v < 0
    v <<= 1
    return np.invert(v, out=v, where=negative)


def unzigzag(v):
    """Inverse of ``zigzag``, in place on an int64 array."""
    odd = np.empty(len(v), bool)
    np.bitwise_and(v, 1, out=odd, casting="unsafe")
    v >>= 1
    return np.invert(v, out=v, where=odd)


def _varints(values):
    """Unsigned LEB128 bytes of a uint64 array of values below 2**63: seven
    bits a byte, low bits first, the top bit set on every byte but a
    value's last."""
    size = np.ones(len(values), np.uint8)
    for k in range(1, _VARINT_BYTES):
        size += values >= 1 << 7 * k
    rank = np.arange(size.max(initial=1))
    planes = values[:, None] >> (7 * rank).astype(np.uint64)
    planes = planes.astype(np.uint8) & 0x7F
    planes[rank < size[:, None] - 1] |= 0x80
    return planes[rank < size[:, None]]


def _compress(values):
    """The values' varints, compressed with raw LZMA.  The varints go to the
    coder _CHUNK values at a time, which bounds their workspace whatever
    the unit's size; the coder's output does not depend on the chunking."""
    coder = lzma.LZMACompressor(lzma.FORMAT_RAW, filters=_FILTERS)
    parts = [coder.compress(_varints(values[at:at + _CHUNK]))
             for at in range(0, len(values), _CHUNK)]
    return b"".join(parts) + coder.flush()


def _values(body):
    """The uint64 values of LEB128 bytes, one numpy step per byte rank; the
    steps work on byte masks, which keeps the workspace a few bytes a
    value."""
    data = np.frombuffer(body, np.uint8)
    if len(data) and data[-1] >= 0x80:
        raise ValueError("truncated varint")
    end = data < 0x80
    more = ~end
    values = data[end].astype(np.uint64)
    # reach[p]: byte p ends a varint that has a byte k places before it
    reach = end.copy()
    low = np.empty(len(values), np.uint8)
    for k in range(1, _VARINT_BYTES + 1):
        reach[:k] = False
        reach[k:] &= more[:-k]
        if not reach.any():
            return values
        if k == _VARINT_BYTES:
            raise ValueError("varint wider than 63 bits")
        rank = reach[end]
        low[rank] = data[:-k][reach[k:]] & 0x7F
        np.left_shift(values, 7, out=values, where=rank)
        np.bitwise_or(values, low, out=values, where=rank)


def _restart_cumsum(x, at, heads):
    """Cumulative sum of x in place, restarted at each index of ``at``
    (ascending, from 0) from the matching entry of ``heads`` in place of
    x's own value there."""
    if not len(at):
        return
    x[at] = 0
    ends = np.add.reduceat(x, at)
    ends += heads
    x[at] = heads
    x[at[1:]] -= ends[:-1]
    np.cumsum(x, out=x)


def encode_adu(adu, header):
    """Serialize one ADU to a self-contained byte payload."""
    events = adu.events
    n = len(events)
    x, y, d, t = (events[f] for f in "xydt")
    first = np.ones(n, bool)    # each pixel's first event
    np.not_equal(x[1:], x[:-1], out=first[1:])
    first[1:] |= y[1:] != y[:-1]
    later = ~first
    starts = np.flatnonzero(first)
    pixels = len(starts)
    seq = np.empty(2 * (pixels + n), np.int64)
    index = y[starts].astype(np.int64) * header.width + x[starts]
    seq[:pixels] = np.diff(index, prepend=-1) - 1
    seq[pixels:2 * pixels] = np.diff(starts, append=n) - 1

    # the d steps, each pixel's first event's first, in the next n values
    coded = (d + 1) & 0xFF
    step = np.empty(n, np.int16)
    np.subtract(coded[1:], coded[:-1], out=step[1:], dtype=np.int16)
    step[first] = np.diff(coded[starts].astype(np.int16), prepend=0)
    zigzag(step)
    seq[2 * pixels:3 * pixels] = step[first]
    seq[3 * pixels:2 * pixels + n] = step[later]

    # the first ticks and the later intervals, worked out in the last n
    dt = seq[2 * pixels + n:]
    np.subtract(t[1:], t[:-1], out=dt[1:], dtype=np.int64)
    bad = np.flatnonzero(later & (dt <= 0))
    if len(bad):
        k = bad[0]
        raise ValueError(f"pixel ({x[k]}, {y[k]}): tick {t[k]} does not "
                         f"follow its previous event's {t[k - 1]}")
    dt[pixels:] = dt[later] - 1
    dt[:pixels] = t[starts] - np.int64(adu.start_t)
    # a pixel gap or first tick below 0: events not in build_adus's order
    if seq.min(initial=0) < 0:
        raise ValueError("ADU events out of coding order")
    return _ADU_PREFIX.pack(adu.start_t, pixels, n) + _compress(
        seq.view(np.uint64))


def decode_adu(payload, header, adu_index=0):
    """Decode one ADU payload back to an ``EVENT`` array, pixel by pixel in
    raster order."""
    if len(payload) < _ADU_PREFIX.size:
        raise DecodeError("payload shorter than the unit prefix", adu_index)
    start_t, pixels, n = _ADU_PREFIX.unpack_from(payload)
    area = header.width * header.height
    if pixels > min(n, area) or (n and not pixels):
        raise DecodeError(f"prefix declares {pixels} pixels for {n} events "
                          f"in a {header.width}x{header.height} frame",
                          adu_index)
    count = 2 * (pixels + n)
    inflate = lzma.LZMADecompressor(lzma.FORMAT_RAW, filters=_FILTERS)
    try:
        # no varint is wider than _VARINT_BYTES, so a body that goes on
        # past _VARINT_BYTES * count bytes holds more than count values
        body = inflate.decompress(payload[_ADU_PREFIX.size:],
                                  max_length=_VARINT_BYTES * count)
        # every value is below 2**63, so the int64 view reads them all
        values = _values(body).view(np.int64) if inflate.eof else None
    except (ValueError, lzma.LZMAError) as exc:
        raise DecodeError(str(exc), adu_index) from exc
    del body
    if not inflate.eof:
        raise DecodeError(_SHORT if inflate.needs_input else _LONG, adu_index)
    if inflate.unused_data:
        raise DecodeError("bytes left over after the end of the body",
                          adu_index)
    if len(values) != count:
        raise DecodeError(_SHORT if len(values) < count else _LONG, adu_index)
    gaps, counts = values[:pixels], values[pixels:2 * pixels]
    d_steps = values[2 * pixels:2 * pixels + n]
    t_steps = values[2 * pixels + n:]

    # Steps are clipped before they are summed, so that no sum wraps: a
    # step past the range of the value it moves leaves that range clipped
    # or not.
    np.minimum(gaps, area, out=gaps)
    index = np.cumsum(gaps + 1) - 1
    if pixels and index[-1] >= area:
        raise DecodeError(f"pixel {index[-1]} outside the "
                          f"{header.width}x{header.height} frame", adu_index)
    np.minimum(counts, n, out=counts)
    counts += 1
    if counts.sum() != n:
        raise DecodeError(f"pixel event counts sum to {counts.sum()}, not {n}",
                          adu_index)
    starts = np.cumsum(counts) - counts
    later = np.ones(n, bool)
    later[starts] = False
    out = np.empty(n, EVENT)
    out["x"] = np.repeat((index % header.width).astype(np.uint16), counts)
    out["y"] = np.repeat((index // header.width).astype(np.uint16), counts)

    # coded d restarts at each pixel from the chain of first steps
    np.clip(unzigzag(d_steps), -_D_STEP, _D_STEP, out=d_steps)
    coded = np.empty(n, np.int64)
    coded[later] = d_steps[pixels:]
    _restart_cumsum(coded, starts, np.cumsum(d_steps[:pixels]))
    bad = np.flatnonzero((coded < 0) | (coded > D_MAX + 1))
    if len(bad):
        raise DecodeError(f"coded decimation {coded[bad[0]]} outside "
                          f"0..{D_MAX + 1}", adu_index)
    coded -= 1
    coded &= 0xFF
    out["d"] = coded

    # A pixel's first tick is below 2**33 and it has fewer than 2**32 - 1
    # intervals, each clipped to 2**32, so its ticks sum in uint64 without
    # wrapping; they take over coded d's memory.
    heads = np.minimum(t_steps[:pixels], _T_LIMIT) + start_t
    intervals = t_steps[pixels:]
    np.minimum(intervals, _T_LIMIT - 1, out=intervals)
    intervals += 1
    ticks = coded.view(np.uint64)
    ticks[later] = intervals
    _restart_cumsum(ticks, starts, heads.view(np.uint64))
    bad = np.flatnonzero(ticks >= _T_LIMIT)
    if len(bad):
        raise DecodeError(f"timestamp {ticks[bad[0]]} outside the tick range",
                          adu_index)
    out["t"] = ticks
    return out


def write_payloads(fp, header, payloads):
    """Write header plus length-prefixed ADU blocks from encoded payloads."""
    coded = replace(header, source_codec=CODEC_COMPRESSED)
    fp.write(write_header(coded))
    for payload in payloads:
        fp.write(struct.pack("<I", len(payload)))
        fp.write(payload)


def read_compressed(fp):
    """Read a compressed stream; returns (header, ``EVENT`` array)."""
    header = read_header(fp.read(HEADER_SIZE))
    if header.source_codec != CODEC_COMPRESSED:
        raise StreamFormatError("not a compressed stream")
    chunks = [np.empty(0, EVENT)]
    index = 0
    while True:
        raw = fp.read(4)
        if not raw:
            break
        if len(raw) < 4:
            raise StreamFormatError("truncated block length")
        (length,) = struct.unpack("<I", raw)
        payload = fp.read(length)
        if len(payload) < length:
            raise StreamFormatError(f"truncated block {index}")
        chunks.append(decode_adu(payload, header, index))
        index += 1
    return header, np.concatenate(chunks)
