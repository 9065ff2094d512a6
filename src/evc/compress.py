"""Event-stream compression: a source model coded with LZMA.

The stream is cut into application data units (ADUs) on a fixed tick
grid, each coded independently so a reader can drop into any unit.
Within an ADU, events group into 16x16 pixel cubes.  An intra pass codes
the first event of every pixel as a residual chain threaded across
cubes; an inter pass codes each later event against the pixel's previous
one, its timestamp as the residual from a prediction that continues the
previous interval scaled by the decimation step.  Every value is coded
exactly, so a unit decodes to its own events at every CRF: the loss CRF
buys happens in the transcoder alone.

A unit's values go out group-major: every cube-presence flag, then every
decimation value (the intra slots, each pixel's inter residuals closed by
SKIP, then end-of-sequence), then every timestamp residual.  An ADU in
memory is its window's slice of the stream, sorted into coding order by
one ``np.lexsort``.  ``encode_adu`` builds the unit's value sequence with
numpy, writes it as unsigned LEB128 varints and compresses those with
raw LZMA1 (the stdlib's ``lzma``: an adaptive binary range coder with
context-modelled literals and LZ matches).  ``decode_adu`` inflates the
varints, splits the sequence into its groups, then rebuilds d by a
segmented cumulative sum and t by segmented cumulative sums that restart
only where the prediction is not the previous interval itself.
"""

from __future__ import annotations

import lzma
import struct
from dataclasses import dataclass, replace

import numpy as np

from .events import (
    CODEC_COMPRESSED,
    D_MAX,
    EMPTY,
    EVENT,
    HEADER_SIZE,
    StreamFormatError,
    read_header,
    write_header,
)

CUBE = 16

# alphabet layout shared by intra and inter passes in the d group
SKIP_U = 0
EOS_U = 1
D_OFFSET = 2

SHIFT_CAP = 31
_PREDICT_CAP = 1 << 31
_T_LIMIT = 1 << 32
# one more than the largest step between two valid decimations
_D_STEP = EMPTY + 1

_ADU_PREFIX = struct.Struct("<II")

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

    ``events`` is the window's ``EVENT`` slice in coding order: by 16x16
    cube (row-major in the cube grid), by row and column within the cube,
    then by t.
    """

    start_t: int
    span: int
    events: np.ndarray


def _cube_grid(header):
    """(columns, rows) of 16x16 cubes covering the frame."""
    return ((header.width + CUBE - 1) // CUBE,
            (header.height + CUBE - 1) // CUBE)


def _cube_slots(used, header):
    """Origins, widths and first intra slots of the occupied cubes ``used``
    (ascending indices in the cube grid), the slot count appended: a
    cube's slots are its in-frame pixels in row order."""
    cols, _ = _cube_grid(header)
    x0, y0 = used % cols * CUBE, used // cols * CUBE
    width = np.minimum(CUBE, header.width - x0)
    height = np.minimum(CUBE, header.height - y0)
    return x0, y0, width, np.concatenate(([0], np.cumsum(width * height)))


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
    cols, _ = _cube_grid(header)
    # the window is left-open: an event at exactly start_t + span still
    # belongs to the unit, the first event beyond it opens the next
    window = np.maximum(t - 1, 0) // span
    # a pixel's rank in coding order: cube, then row and column within it
    rank = ((y // CUBE * cols + x // CUBE) * CUBE + y % CUBE) * CUBE + x % CUBE
    order = np.lexsort((t, rank, window))
    ordered, window = events[order], window[order]
    at = np.searchsorted(window, np.arange(int(window.max(initial=0)) + 2))
    return [Adu(k * span, span, ordered[at[k]:at[k + 1]])
            for k in range(len(at) - 1)]


def _shifts(d, first):
    """Each event's prediction shift: its decimation step from the pixel's
    previous event, capped at SHIFT_CAP either way, and 0 at a pixel's
    first event and next to a gap marker."""
    shift = np.zeros(len(d), np.int16)
    np.subtract(d[1:], d[:-1], out=shift[1:], dtype=np.int16)
    zero = d == EMPTY
    zero[1:] |= zero[:-1]
    shift[zero | first] = 0
    return np.clip(shift, -SHIFT_CAP, SHIFT_CAP, out=shift)


def _increments(prev_dt, shift):
    """Predicted intervals: prev_dt scaled by 2**shift, held to
    1.._PREDICT_CAP.  A left shift starts from prev_dt capped at
    _PREDICT_CAP, which leaves the capped result alone and keeps the
    shift far from wrapping int64."""
    mag = np.abs(shift)
    delta = np.minimum(prev_dt, _PREDICT_CAP)
    np.left_shift(delta, mag, out=delta, where=shift > 0)
    np.right_shift(prev_dt, mag, out=delta, where=shift < 0)
    return np.clip(delta, 1, _PREDICT_CAP, out=delta)


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


def _timestamps(inter, t_first, first, shift, dt_ref):
    """Each event's tick, from each pixel's first tick and the residuals of
    the later events in coding order (``inter``).

    Where a step's prediction is the previous interval itself (shift 0,
    interval up to _PREDICT_CAP), intervals are a running sum of the
    residuals.  So intervals are cumulative sums restarted only at the
    other steps, the breaks, each from ``_increments`` of the interval
    before it: one numpy step per rank of a pixel's breaks.  A capped
    interval shows only once the intervals before it are known, so the
    pass repeats with each pixel's first capped step made a break; a
    valid unit needs at most two more passes, as at most one interval of
    a pixel passes 2**31, beside dt_ref.
    """
    n = len(first)
    later = ~first
    starts = np.flatnonzero(first)
    breaks = later & (shift != 0)
    dt = np.empty(n, np.int64)
    while True:
        dt[first] = dt_ref
        dt[later] = inter
        at = np.flatnonzero(first | breaks)
        heads = dt[at]
        dt[at] = 0
        runs = np.add.reduceat(dt, at)
        # the r-th break of every pixel that has r breaks, longest first
        lead = np.flatnonzero(first[at])
        counts = np.diff(lead, append=len(at))
        order = np.argsort(-counts, kind="stable")
        lead = lead[order]
        live = np.searchsorted(-counts[order], -np.arange(1, counts.max()))
        for r, m in enumerate(live.tolist(), 1):
            s = lead[:m] + r
            heads[s] += _increments(heads[s - 1] + runs[s - 1], shift[at[s]])
        _restart_cumsum(dt, at, heads)

        # the first issue of each pixel: a capped step taken as plain, or
        # a tick that does not follow its previous one within range
        capped = np.zeros(n, bool)
        np.greater(dt[:-1], _PREDICT_CAP, out=capped[1:])
        capped &= later & ~breaks
        wrong = later & (dt <= 0)
        _restart_cumsum(dt, starts, t_first)
        wrong |= dt >= _T_LIMIT
        issue = np.flatnonzero(capped | wrong)
        if not len(issue):
            return dt
        pixel = np.searchsorted(starts, issue, side="right")
        issue = issue[np.diff(pixel, prepend=0) > 0]
        bad = issue[~capped[issue]]
        if len(bad):
            raise ValueError(f"timestamp {dt[bad[0]]} breaks pixel "
                             "monotonicity")
        breaks[issue] = True


def encode_adu(adu, header):
    """Serialize one ADU to a self-contained byte payload."""
    events = adu.events
    n = len(events)
    x, y, d, t = (events[f] for f in "xydt")
    first = np.ones(n, bool)    # each pixel's first event
    np.not_equal(x[1:], x[:-1], out=first[1:])
    first[1:] |= y[1:] != y[:-1]
    starts = np.flatnonzero(first)
    pixels = len(starts)
    px, py = x[starts].astype(np.int64), y[starts].astype(np.int64)
    cols, rows = _cube_grid(header)
    cube = py // CUBE * cols + px // CUBE    # ascending in coding order
    used = cube[np.flatnonzero(np.diff(cube, prepend=-1))]
    x0, y0, width, slot_at = _cube_slots(used, header)
    at = np.searchsorted(used, cube)
    slot = slot_at[at] + (py - y0[at]) * width[at] + px - x0[at]

    # The values, group by group: cube flags; the intra d slots (SKIP
    # where a pixel has no event), each pixel's inter d residuals closed
    # by SKIP, and EOS; then the intra t chain and the inter t residuals.
    flags, slots = cols * rows, int(slot_at[-1])
    seq = np.zeros(flags + slots + 2 * n + 1, np.uint64)
    seq[used] = 1
    d_group = seq[flags:flags + slots + n + 1]
    t_group = seq[flags + slots + n + 1:]
    d_group[slot] = zigzag(np.diff(d[starts].astype(np.int64),
                                   prepend=0)) + D_OFFSET
    queues = d_group[slots:slots + n]
    queues[:-1] = zigzag(np.subtract(d[1:], d[:-1], dtype=np.int16))
    queues[:-1] += D_OFFSET
    queues[:-1][first[1:]] = SKIP_U
    queues[-1:] = SKIP_U
    d_group[-1] = EOS_U

    # Each event's interval since the pixel's previous event, or dt_ref at
    # a pixel's first event, where it only serves as the next one's
    # prev_dt; the t group is its workspace until the residuals replace it.
    dt = t_group.view(np.int64)
    np.subtract(t[1:], t[:-1], out=dt[1:], dtype=np.int64)
    dt[first] = header.dt_ref
    bad = np.flatnonzero(dt <= 0)
    if len(bad):
        k = bad[0]
        raise ValueError(f"pixel ({x[k]}, {y[k]}): tick {t[k]} does not "
                         f"follow its previous event's {t[k - 1]}")
    dt[1:] -= _increments(dt[:-1], _shifts(d, first)[1:])
    dt[pixels:] = zigzag(dt)[~first]
    dt[:pixels] = zigzag(np.diff(t[starts].astype(np.int64),
                                 prepend=adu.start_t))

    return _ADU_PREFIX.pack(adu.start_t, adu.span) + _compress(seq)


def decode_adu(payload, header, adu_index=0):
    """Decode one ADU payload back to an ``EVENT`` array, pixel by pixel in
    cube scan order."""
    if len(payload) < _ADU_PREFIX.size:
        raise DecodeError("payload shorter than the unit prefix", adu_index)
    start_t, _span = _ADU_PREFIX.unpack_from(payload)
    cols, rows = _cube_grid(header)
    inflate = lzma.LZMADecompressor(lzma.FORMAT_RAW, filters=_FILTERS)
    try:
        body = inflate.decompress(payload[_ADU_PREFIX.size:])
        if not inflate.eof:
            raise DecodeError("read past the end of the payload", adu_index)
        if inflate.unused_data:
            raise DecodeError("bytes left over after the end of sequence",
                              adu_index)
        values = _values(body)
        del body
        pos = 0

        def take(count):
            nonlocal pos
            if len(values) - pos < count:
                raise DecodeError("read past the end of the payload",
                                  adu_index)
            pos += count
            return values[pos - count:pos]

        flags = take(cols * rows)
        if flags.max(initial=0) > 1:
            raise DecodeError(f"cube flag {flags.max()} above 1", adu_index)
        used = np.flatnonzero(flags)
        x0, y0, width, slot_at = _cube_slots(used, header)
        slots = take(int(slot_at[-1]))
        if (slots == EOS_U).any():
            raise DecodeError("end of sequence inside the intra pass",
                              adu_index)
        slot = np.flatnonzero(slots)
        pixels = len(slot)
        # Steps are clipped before they are summed, so that no sum wraps:
        # a step past the range of the value it moves leaves that range
        # clipped or not.
        d_intra = unzigzag(slots[slot].astype(np.int64) - D_OFFSET)
        np.clip(d_intra, -_D_STEP, _D_STEP, out=d_intra)
        at = np.searchsorted(slot_at, slot, side="right") - 1
        local = slot - slot_at[at]
        xs, ys = x0[at] + local % width[at], y0[at] + local // width[at]

        # Each pixel's queue of d residuals closed by SKIP: event i of the
        # unit, unless it opens its pixel, has its residual at i - 1.  The
        # queues end at the pixels-th SKIP: then come EOS and one t
        # residual per event.
        skips = np.flatnonzero(values[pos:] == SKIP_U)
        if len(skips) < pixels:
            raise DecodeError("read past the end of the payload", adu_index)
        queues = take(int(skips[pixels - 1]) + 1 if pixels else 0)
        if (queues == EOS_U).any():
            raise DecodeError("end of sequence inside a pixel queue",
                              adu_index)
        if take(1)[0] != EOS_U:
            raise DecodeError("missing end of sequence", adu_index)
        n = len(queues)
        ends = np.flatnonzero(queues == SKIP_U)
        counts = np.diff(ends, prepend=-1)
        starts = ends - counts + 1
        first = np.zeros(n, bool)
        first[starts] = True

        # A segmented cumulative sum from each pixel's intra d.
        d = np.zeros(n, np.int64)
        d[1:] = queues[:-1]
        d -= D_OFFSET
        np.clip(unzigzag(d), -_D_STEP, _D_STEP, out=d)
        _restart_cumsum(d, starts, np.cumsum(d_intra, out=d_intra))
        bad = np.flatnonzero((d < 0) | ((d > D_MAX) & (d != EMPTY)))
        if len(bad):
            raise DecodeError(f"decimation {d[bad[0]]} outside the value "
                              "range", adu_index)
        out = np.empty(n, EVENT)
        out["x"] = np.repeat(xs.astype(np.uint16), counts)
        out["y"] = np.repeat(ys.astype(np.uint16), counts)
        out["d"] = d
        del d

        residuals = take(n).astype(np.int64)
        if pos != len(values):
            raise DecodeError("bytes left over after the end of sequence",
                              adu_index)
        # the t residuals are all the t stage needs of the sequence
        del values, flags, slots, queues
        unzigzag(residuals)
        t_first = residuals[:pixels]
        np.clip(t_first, -_T_LIMIT, _T_LIMIT, out=t_first)
        t_first[:1] += start_t
        np.cumsum(t_first, out=t_first)
        bad = np.flatnonzero((t_first < 0) | (t_first >= _T_LIMIT))
        if len(bad):
            raise DecodeError(f"timestamp {t_first[bad[0]]} outside the "
                              "tick range", adu_index)
        if n:
            out["t"] = _timestamps(residuals[pixels:], t_first, first,
                                   _shifts(out["d"], first), header.dt_ref)
    except (ValueError, lzma.LZMAError) as exc:
        if isinstance(exc, DecodeError):
            raise
        raise DecodeError(str(exc), adu_index) from exc
    return out


def compress_events(events, header, dt_adu=None):
    """Encode a whole stream; returns the list of ADU payloads."""
    return [encode_adu(adu, header)
            for adu in build_adus(events, header, dt_adu)]


def write_payloads(fp, header, payloads):
    """Write header plus length-prefixed ADU blocks from encoded payloads."""
    coded = replace(header, source_codec=CODEC_COMPRESSED)
    fp.write(write_header(coded))
    for payload in payloads:
        fp.write(struct.pack("<I", len(payload)))
        fp.write(payload)


def write_compressed(fp, header, events, dt_adu=None):
    """Encode a whole stream and write it as header plus ADU blocks."""
    write_payloads(fp, header, compress_events(events, header, dt_adu))


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
