"""Event-stream compression with adaptive range coding.

The stream is cut into application data units (ADUs) on a fixed tick
grid, each coded independently from fresh models so a reader can drop
into any unit.  Within an ADU, events group into 16x16 pixel cubes.  An
intra pass codes the first event of every pixel as a residual chain
threaded across cubes; an inter pass codes each later event against the
pixel's previous one, its timestamp as the residual from a prediction
that continues the previous interval scaled by the decimation step.
Every value is coded exactly, so a unit decodes to its own events at
every CRF: the loss CRF buys happens in the transcoder alone.

A unit's symbols go out group-major, each group with its own adaptive
model: every cube-presence flag, then every decimation symbol (the intra
slots, each pixel's inter residuals closed by SKIP, then
end-of-sequence), then every timestamp residual.  An ADU in memory is
its window's slice of the stream, sorted into coding order by one
``np.lexsort``.  ``encode_adu`` builds the unit's packed ``(group,
value)`` sequence with numpy and ``cabac.encode`` codes it in one loop;
``decode_adu`` reads the groups back in runs through ``cabac.decoder``,
then rebuilds d by a segmented cumulative sum and t by one numpy step
per event rank across the unit's pixels.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .cabac import FLAG, GROUP_BITS, decoder, encode, unzigzag, zigzag
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

# alphabet layout shared by intra and inter passes in the d context group
SKIP_U = 0
EOS_U = 1
D_OFFSET = 2

SHIFT_CAP = 31
_PREDICT_CAP = 1 << 31
_T_LIMIT = 1 << 32
# one more than the largest step between two valid decimations
_D_STEP = EMPTY + 1

_ADU_PREFIX = struct.Struct("<II")

# symbol groups besides the cube-presence flag: one Elias-gamma model each
# for decimation residuals (sharing SKIP and end-of-sequence) and
# timestamp residuals
_D, _T = 1, 2


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

    seq <<= GROUP_BITS
    d_group |= _D
    t_group |= _T
    return _ADU_PREFIX.pack(adu.start_t, adu.span) + encode(memoryview(seq))


def decode_adu(payload, header, adu_index=0):
    """Decode one ADU payload back to an ``EVENT`` array, pixel by pixel in
    cube scan order."""
    if len(payload) < _ADU_PREFIX.size:
        raise DecodeError("payload shorter than the unit prefix", adu_index)
    start_t, _span = _ADU_PREFIX.unpack_from(payload)
    coded = payload[_ADU_PREFIX.size:]
    cols, rows = _cube_grid(header)
    try:
        read, consumed = decoder(coded)
        used = np.flatnonzero(np.frombuffer(read(FLAG, cols * rows),
                                            np.uint64))
        x0, y0, width, slot_at = _cube_slots(used, header)
        slots = np.frombuffer(read(_D, int(slot_at[-1])), np.uint64)
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
        del slots
        at = np.searchsorted(slot_at, slot, side="right") - 1
        local = slot - slot_at[at]
        xs, ys = x0[at] + local % width[at], y0[at] + local // width[at]

        # Each pixel's queue of d residuals closed by SKIP: event i of the
        # unit, unless it opens its pixel, has its residual at i - 1.
        queues = np.frombuffer(read(_D, pixels, SKIP_U), np.uint64)
        if (queues == EOS_U).any():
            raise DecodeError("end of sequence inside a pixel queue",
                              adu_index)
        if read(_D, 1)[0] != EOS_U:
            raise DecodeError("missing end of sequence", adu_index)
        n = len(queues)
        ends = np.flatnonzero(queues == SKIP_U)
        counts = np.diff(ends, prepend=-1)
        starts = ends - counts + 1
        first = np.zeros(n, bool)
        first[starts] = True

        # A segmented cumulative sum: each pixel's first entry holds its
        # intra d less everything summed before it.
        d = np.zeros(n, np.int64)
        d[1:] = queues[:-1]
        del queues
        d -= D_OFFSET
        np.clip(unzigzag(d), -_D_STEP, _D_STEP, out=d)
        d[first] = 0
        if pixels:
            carried = np.add.reduceat(d, starts)
            d_intra[1:] -= carried[:-1]
            d[starts] = d_intra
        np.cumsum(d, out=d)
        bad = np.flatnonzero((d < 0) | ((d > D_MAX) & (d != EMPTY)))
        if len(bad):
            raise DecodeError(f"decimation {d[bad[0]]} outside the value "
                              "range", adu_index)
        out = np.empty(n, EVENT)
        out["x"] = np.repeat(xs.astype(np.uint16), counts)
        out["y"] = np.repeat(ys.astype(np.uint16), counts)
        out["d"] = d
        del d

        residuals = np.frombuffer(read(_T, n), np.uint64)
        if consumed() != len(coded):
            raise DecodeError("bytes left over after the end of sequence",
                              adu_index)
        t_first = unzigzag(residuals[:pixels].astype(np.int64))
        np.clip(t_first, -_T_LIMIT, _T_LIMIT, out=t_first)
        t_first[:1] += start_t
        np.cumsum(t_first, out=t_first)
        bad = np.flatnonzero((t_first < 0) | (t_first >= _T_LIMIT))
        if len(bad):
            raise DecodeError(f"timestamp {t_first[bad[0]]} outside the "
                              "tick range", adu_index)
        t = out["t"]
        t[starts] = t_first

        # One step per event rank r across the pixels that have an r-th
        # event, the longest queues first: pixel j's r-th event sits at
        # starts[j] + r and its t residual at pixels + starts[j] - j + r - 1.
        shift = _shifts(out["d"], first)
        order = np.argsort(-counts, kind="stable")
        ranked = counts[order]
        at_event = starts[order]
        at_residual = pixels - 1 + at_event - order
        prev_t = t_first[order]
        prev_dt = np.full(pixels, header.dt_ref, np.int64)
        live = np.searchsorted(-ranked, -np.arange(1, ranked.max(initial=1)))
        for r, m in enumerate(live.tolist(), 1):
            event = at_event[:m] + r
            now = prev_t[:m] + _increments(prev_dt[:m], shift[event])
            now += unzigzag(residuals[at_residual[:m] + r].astype(np.int64))
            bad = np.flatnonzero((now <= prev_t[:m]) | (now >= _T_LIMIT))
            if len(bad):
                raise DecodeError(f"timestamp {now[bad[0]]} breaks pixel "
                                  "monotonicity", adu_index)
            t[event] = now
            np.subtract(now, prev_t[:m], out=prev_dt[:m])
            prev_t[:m] = now
    except ValueError as exc:
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
