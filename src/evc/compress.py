"""Lossy event-stream compression with adaptive range coding.

The stream is cut into application data units (ADUs) on a fixed tick
grid, each coded independently from fresh models so a reader can drop
into any unit.  Within an ADU, events group into 16x16 pixel cubes.  An
intra pass codes the first event of every pixel losslessly as a residual
chain threaded across cubes; an inter pass codes each remaining event
against the pixel's reconstructed state, where the timestamp residual
may be right-shifted as long as the reconstructed intensity stays inside
the contrast tolerance.  Besides the cube-presence flag, three symbol
groups carry the values, each with its own adaptive model: decimation
residuals (sharing reserved SKIP and end-of-sequence codes), timestamp
residuals, and shift amounts.  An ADU in memory is its window's slice
of the stream, sorted into coding order by one ``np.lexsort``;
``encode_adu`` turns it into the unit's ``(group, value)`` sequence,
which ``cabac.encode`` codes in one loop, and ``decode_adu`` reads the
values back one call each through ``cabac.decoder``.

Two structural rules keep the loss bound airtight: a shifted timestamp
never overshoots the true one, and the encoder looks one event ahead so
that the exact (unshifted) residual always remains admissible for the
successor.  By induction every inter-coded event's intensity deviates by
strictly less than the tolerance.
"""

from __future__ import annotations

import struct
from array import array
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
    crf_params,
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

_ADU_PREFIX = struct.Struct("<II")

# symbol groups of the coded sequence: the cube-presence flag, then one
# Elias-gamma model each for decimation residuals (sharing SKIP and
# end-of-sequence), timestamp residuals and shift amounts
_D, _T, _S = 1, 2, 3
_CUBE_EMPTY = 0 << GROUP_BITS | FLAG
_CUBE_USED = 1 << GROUP_BITS | FLAG
_SKIP = SKIP_U << GROUP_BITS | _D
_EOS = EOS_U << GROUP_BITS | _D


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
    then by t.  ``following`` holds, in the same pixel order, the next
    event beyond the window of each of those pixels that has one: the
    encoder's lookahead for the pixel's last event.
    """

    start_t: int
    span: int
    events: np.ndarray
    following: np.ndarray


def _cube_grid(header):
    """(columns, rows) of 16x16 cubes covering the frame."""
    return ((header.width + CUBE - 1) // CUBE,
            (header.height + CUBE - 1) // CUBE)


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
    ordered, window, rank = events[order], window[order], rank[order]

    # Each pixel's events in time order; where consecutive ones fall in
    # different windows, the later is the earlier's lookahead.
    by_pixel = np.argsort(rank, kind="stable")
    last, nxt = by_pixel[:-1], by_pixel[1:]
    crossing = (rank[last] == rank[nxt]) & (window[last] != window[nxt])
    last, nxt = last[crossing], nxt[crossing]
    lead = np.argsort(last)
    following = ordered[nxt[lead]]

    count = int(window.max(initial=0)) + 1
    cuts = np.arange(count + 1)
    at = np.searchsorted(window, cuts)
    follow_at = np.searchsorted(window[last[lead]], cuts)
    return [Adu(k * span, span, ordered[at[k]:at[k + 1]],
                following[follow_at[k]:follow_at[k + 1]])
            for k in range(count)]


def t_prediction(prev_t_recon, prev_dt_recon, d_r):
    """Timestamp prediction: continue the previous interval scaled by d_r."""
    if d_r >= 0:
        delta = prev_dt_recon << min(d_r, SHIFT_CAP)
    else:
        delta = prev_dt_recon >> min(-d_r, SHIFT_CAP)
    if delta < 1:
        delta = 1
    elif delta > _PREDICT_CAP:
        delta = _PREDICT_CAP
    return prev_t_recon + delta


def _dt_window(d, dt_true, m_max, dt_ref):
    """Inclusive interval of dt values admissible around dt_true.

    dt is admissible when ``events.display_value`` shows the same value
    for it as for dt_true, and the raw intensity 2**d * dt_ref / dt stays
    strictly within m_max of dt_true's (which also bounds the clamped
    regime, where two displays agree at 255 while the raw intensities
    drift apart).  Returns (lo, hi) with hi None when unbounded; dt_true
    itself always falls inside.  m_max must be positive.
    """
    num = (1 << d) * dt_ref
    num2 = 2 * num
    v = (num2 + dt_true) // (2 * dt_true)
    if v >= 255:
        lo, hi = 1, num2 // 509
    elif v == 0:
        lo, hi = num2 + 1, None
    else:
        lo = num2 // (2 * v + 1) + 1
        hi = num2 // (2 * v - 1)
    floor_lo = (num * dt_true) // (m_max * dt_true + num) + 1
    if floor_lo > lo:
        lo = floor_lo
    slack = num - m_max * dt_true
    if slack > 0:
        band_hi = (num * dt_true - 1) // slack
        if hi is None or band_hi < hi:
            hi = band_hi
    return lo, hi


def choose_shift(t_true, p_b, d, prev_t_recon, m_max, dt_ref=1,
                 dt_true=None, following=None):
    """Pick the largest admissible right-shift for the t residual.

    Returns (s, shifted signed residual) such that the reconstruction
    t' = p_b + (residual << s) lands in (prev_t_recon, t_true], keeps
    the displayed value identical to the uncompressed event's, and keeps
    the expressed intensity strictly within m_max of it, while never
    stranding the next event (`following`, a (d, t) pair) outside its
    own tolerance at shift zero.  Requiring the display to survive is
    stricter than the ±m_max band alone; the band by itself lets every
    event drift by nearly m_max display units, which costs far more
    reconstruction quality than the shifts save in bits.

    Interval markers carry no intensity, so no tolerance can license
    moving one; their ticks delimit what neighbouring events express
    and a marker nudged across a playback boundary blanks the pixel
    for that whole frame.  They are always coded exactly.
    """
    r = t_true - p_b
    if m_max == 0 or r == 0 or d == EMPTY:
        return 0, r
    if dt_true is None:
        dt_true = t_true - prev_t_recon
    lo, hi = _dt_window(d, dt_true, m_max, dt_ref)
    t_lo = prev_t_recon + lo
    t_hi = t_true if hi is None else min(t_true, prev_t_recon + hi)
    if following is not None:
        next_d, next_t = following
        if next_d != EMPTY:
            flo, fhi = _dt_window(next_d, next_t - t_true, m_max, dt_ref)
            if fhi is not None and next_t - fhi > t_lo:
                t_lo = next_t - fhi
            if next_t - flo < t_hi:
                t_hi = next_t - flo
    # The truncated reconstruction p_b +- ((|r| >> s) << s) moves
    # monotonically from p_b towards t_true as s falls, so the admissible
    # shifts form one interval of s: its top is the largest s whose
    # truncated magnitude still reaches lo, provided that stays <= hi.
    mag = -r if r < 0 else r
    lo, hi = (t_lo - p_b, t_hi - p_b) if r > 0 else (p_b - t_hi, p_b - t_lo)
    if lo <= 0:
        s = SHIFT_CAP
    elif mag >= lo:
        # (mag >> s) << s >= lo while s is at most the top bit in which
        # mag and lo - 1 differ
        s = min((mag ^ (lo - 1)).bit_length() - 1, SHIFT_CAP)
    else:
        s = 0
    if s and (mag >> s) << s <= hi:
        return s, (mag >> s if r > 0 else -(mag >> s))
    return 0, r


def encode_adu(adu, header):
    """Serialize one ADU to a self-contained byte payload."""
    m_max = crf_params(header.crf).m_max
    dt_ref = header.dt_ref
    events = adu.events
    x, y = events["x"], events["y"]
    moved = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    starts = np.flatnonzero(np.r_[len(x) > 0, moved]).tolist()
    xs, ys = x[starts].tolist(), y[starts].tolist()
    # items of a memoryview are Python ints, at 1 and 4 bytes per event
    ds = memoryview(events["d"].astype(np.uint8))
    ts = memoryview(events["t"].astype(np.uint32))
    seq = array("Q")
    put = seq.append

    # Intra pass: a presence flag per cube and, over each occupied cube's
    # in-frame pixels, SKIP or the pixel's first event as a residual
    # chained from the previous first event.
    cols, rows = _cube_grid(header)
    cubes = [py // CUBE * cols + px // CUBE for px, py in zip(xs, ys)]
    j, done = 0, 0
    d_prev, t_prev = 0, adu.start_t
    for cube in dict.fromkeys(cubes):
        seq.extend([_CUBE_EMPTY] * (cube - done))
        put(_CUBE_USED)
        done = cube + 1
        x0, y0 = cube % cols * CUBE, cube // cols * CUBE
        for py in range(y0, min(y0 + CUBE, header.height)):
            for px in range(x0, min(x0 + CUBE, header.width)):
                if j == len(xs) or xs[j] != px or ys[j] != py:
                    put(_SKIP)
                    continue
                d, t = ds[starts[j]], ts[starts[j]]
                put((zigzag(d - d_prev) + D_OFFSET) << GROUP_BITS | _D)
                put(zigzag(t - t_prev) << GROUP_BITS | _T)
                d_prev, t_prev = d, t
                j += 1
    seq.extend([_CUBE_EMPTY] * (cols * rows - done))

    # Inter pass: every pixel's later events against its reconstruction.
    fx, fy, fd, ft = (adu.following[name].tolist() for name in "xydt")
    k = 0
    starts.append(len(ts))
    for j in range(len(xs)):
        lookahead = None
        if k < len(fx) and fx[k] == xs[j] and fy[k] == ys[j]:
            lookahead = (fd[k], ft[k])
            k += 1
        first, end = starts[j], starts[j + 1]
        prev_d, prev_t = ds[first], ts[first]
        prev_t_true = prev_t
        prev_dt = dt_ref
        for i in range(first + 1, end):
            d, t = ds[i], ts[i]
            d_r = d - prev_d
            put((zigzag(d_r) + D_OFFSET) << GROUP_BITS | _D)
            shift_by = 0 if (d == EMPTY or prev_d == EMPTY) else d_r
            p_b = t_prediction(prev_t, prev_dt, shift_by)
            nxt = (ds[i + 1], ts[i + 1]) if i + 1 < end else lookahead
            s, res = choose_shift(t, p_b, d, prev_t, m_max, dt_ref,
                                  dt_true=t - prev_t_true, following=nxt)
            t_recon = p_b + (res << s)
            if not prev_t < t_recon <= t:
                raise ValueError(
                    f"event ({xs[j]}, {ys[j]}) at t={t} reconstructs at "
                    f"t={t_recon}, outside ({prev_t}, {t}]")
            put(s << GROUP_BITS | _S)
            put(zigzag(res) << GROUP_BITS | _T)
            prev_dt = t_recon - prev_t
            prev_d, prev_t, prev_t_true = d, t_recon, t
        put(_SKIP)

    put(_EOS)
    return _ADU_PREFIX.pack(adu.start_t, adu.span) + encode(seq)


def decode_adu(payload, header, adu_index=0):
    """Decode one ADU payload back to an ``EVENT`` array, pixel by pixel in
    cube scan order."""
    if len(payload) < _ADU_PREFIX.size:
        raise DecodeError("payload shorter than the unit prefix", adu_index)
    start_t, _span = _ADU_PREFIX.unpack_from(payload)
    coded = payload[_ADU_PREFIX.size:]
    cols, rows = _cube_grid(header)
    dt_ref = header.dt_ref

    try:
        read, consumed = decoder(coded)
        pixels = []
        d_prev = 0
        t_prev = start_t
        for cy in range(rows):
            for cx in range(cols):
                if not read(FLAG):
                    continue
                x0, y0 = cx * CUBE, cy * CUBE
                for y in range(y0, min(y0 + CUBE, header.height)):
                    for x in range(x0, min(x0 + CUBE, header.width)):
                        u = read(_D)
                        if u == SKIP_U:
                            continue
                        if u == EOS_U:
                            raise DecodeError(
                                "end of sequence inside the intra pass",
                                adu_index)
                        d = d_prev + unzigzag(u - D_OFFSET)
                        if d < 0 or (d > D_MAX and d != EMPTY):
                            raise DecodeError(
                                f"decimation {d} outside the value range",
                                adu_index)
                        t = t_prev + unzigzag(read(_T))
                        if not 0 <= t < _T_LIMIT:
                            raise DecodeError(
                                f"timestamp {t} outside the tick range",
                                adu_index)
                        d_prev, t_prev = d, t
                        pixels.append((x, y, d, t))

        # Columns of the output: each pixel's first event, then its queue,
        # with t_prediction and unzigzag written out in line.
        ds, ts, counts = array("B"), array("I"), []
        for _, _, prev_d, prev_t in pixels:
            start = len(ts)
            ds.append(prev_d)
            ts.append(prev_t)
            prev_dt = dt_ref
            while True:
                u = read(_D)
                if u == SKIP_U:
                    break
                if u == EOS_U:
                    raise DecodeError(
                        "end of sequence inside a pixel queue", adu_index)
                u -= D_OFFSET
                d_r = -((u + 1) >> 1) if u & 1 else u >> 1
                d = prev_d + d_r
                if d < 0 or (d > D_MAX and d != EMPTY):
                    raise DecodeError(
                        f"decimation {d} outside the value range", adu_index)
                s = read(_S)
                if s > SHIFT_CAP:
                    raise DecodeError(f"shift {s} beyond the cap", adu_index)
                u = read(_T)
                res = -((u + 1) >> 1) if u & 1 else u >> 1
                if d == EMPTY or prev_d == EMPTY or not d_r:
                    delta = prev_dt
                elif d_r > 0:
                    delta = prev_dt << (d_r if d_r < SHIFT_CAP else SHIFT_CAP)
                else:
                    delta = prev_dt >> (-d_r if d_r > -SHIFT_CAP
                                        else SHIFT_CAP)
                if delta < 1:
                    delta = 1
                elif delta > _PREDICT_CAP:
                    delta = _PREDICT_CAP
                t = prev_t + delta + (res << s)
                if not prev_t < t < _T_LIMIT:
                    raise DecodeError(
                        f"timestamp {t} breaks pixel monotonicity", adu_index)
                ds.append(d)
                ts.append(t)
                prev_dt = t - prev_t
                prev_d, prev_t = d, t
            counts.append(len(ts) - start)

        if read(_D) != EOS_U:
            raise DecodeError("missing end of sequence", adu_index)
        if consumed() != len(coded):
            raise DecodeError("bytes left over after the end of sequence",
                              adu_index)
    except ValueError as exc:
        if isinstance(exc, DecodeError):
            raise
        raise DecodeError(str(exc), adu_index) from exc

    # every value was range-checked as it was decoded
    out = np.empty(len(ts), EVENT)
    out["x"] = np.repeat([p[0] for p in pixels], counts)
    out["y"] = np.repeat([p[1] for p in pixels], counts)
    out["d"], out["t"] = ds, ts
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
