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
residuals, and shift amounts.

Two structural rules keep the loss bound airtight: a shifted timestamp
never overshoots the true one, and the encoder looks one event ahead so
that the exact (unshifted) residual always remains admissible for the
successor.  By induction every inter-coded event's intensity deviates by
strictly less than the tolerance.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .cabac import (
    AdaptiveModel,
    RangeDecoder,
    RangeEncoder,
    uint_model,
    unzigzag,
    zigzag,
)
from .events import (
    CODEC_COMPRESSED,
    D_MAX,
    EMPTY,
    EVENT,
    HEADER_SIZE,
    StreamFormatError,
    crf_params,
    event_array,
    event_rows,
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


class DecodeError(StreamFormatError):
    """Raised when a compressed payload cannot be parsed."""

    def __init__(self, message, adu_index=None):
        if adu_index is not None:
            message = f"ADU {adu_index}: {message}"
        super().__init__(message)
        self.adu_index = adu_index


@dataclass(slots=True)
class CoderContexts:
    """Adaptive models, reset at every ADU boundary.

    A two-symbol model codes cube presence.  Each symbol group
    (decimation residuals including SKIP and end-of-sequence, timestamp
    residuals, shift amounts) has one model over the Elias-gamma classes
    of its values, so every class, and with it every position of a
    unary binarization, adapts on its own; the offset bits within a
    class are coded at even odds.
    """

    cube: AdaptiveModel
    d: AdaptiveModel
    t: AdaptiveModel
    s: AdaptiveModel

    @classmethod
    def fresh(cls):
        return cls(cube=AdaptiveModel(2), d=uint_model(), t=uint_model(),
                   s=uint_model())


@dataclass(slots=True)
class EventCube:
    """16x16 spatial region: per-pixel ordered queues of ``(d, t)`` pairs,
    keyed by the pixel's (row, column) within the cube."""

    origin: tuple
    queues: dict = field(default_factory=dict)
    # encoder-side lookahead: the pixel's next event beyond this ADU
    following: dict = field(default_factory=dict)


@dataclass(slots=True)
class Adu:
    """Independently decodable unit spanning a window of the tick grid.

    ``cubes`` holds only the occupied cubes, keyed by their row-major
    index in the cube grid.
    """

    start_t: int
    span: int
    cubes: dict = field(default_factory=dict)


def _cube_grid(header):
    """(columns, rows) of 16x16 cubes covering the frame."""
    return ((header.width + CUBE - 1) // CUBE,
            (header.height + CUBE - 1) // CUBE)


def _window_index(t, span):
    # the window is left-open: an event at exactly start_t + span still
    # belongs to the unit, the first event beyond it opens the next
    return (t - 1) // span if t > 0 else 0


def build_adus(events, header, dt_adu=None):
    """Partition an ``EVENT`` array into ADUs on the dt_adu tick grid."""
    span = int(dt_adu) if dt_adu else header.dt_max
    if span <= 0:
        raise ValueError("dt_adu must be positive")
    cols, _ = _cube_grid(header)

    ordered = events[np.argsort(events["t"], kind="stable")]
    count = _window_index(int(events["t"].max(initial=0)), span) + 1
    adus = [Adu(k * span, span) for k in range(count)]

    trail = {}
    for x, y, d, t in event_rows(ordered):
        if x >= header.width or y >= header.height:
            raise ValueError(f"event out of bounds at ({x}, {y})")
        cubes = adus[_window_index(t, span)].cubes
        cy, ly = divmod(y, CUBE)
        cx, lx = divmod(x, CUBE)
        cube = cubes.get(cy * cols + cx)
        if cube is None:
            cube = cubes[cy * cols + cx] = EventCube((cx * CUBE, cy * CUBE))
        key = (ly, lx)
        cube.queues.setdefault(key, []).append((d, t))
        # a pixel's key is the same in every ADU, so trail keeps its cube
        prev = trail.get((x, y))
        if prev is not None and prev is not cube:
            prev.following[key] = (d, t)
        trail[(x, y)] = cube
    return adus


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
    if t_lo <= t_hi:
        mag = -r if r < 0 else r
        for s in range(SHIFT_CAP, 0, -1):
            q = mag >> s
            t_prime = p_b + (q << s) if r > 0 else p_b - (q << s)
            if t_lo <= t_prime <= t_hi:
                return s, (q if r > 0 else -q)
    return 0, r


def _scan_keys(origin, width, height):
    """(row, column) of each in-frame pixel of the cube at ``origin``."""
    x0, y0 = origin
    for ly in range(min(CUBE, height - y0)):
        for lx in range(min(CUBE, width - x0)):
            yield (ly, lx)


def encode_adu(adu, header):
    """Serialize one ADU to a self-contained byte payload."""
    m_max = crf_params(header.crf).m_max
    dt_ref = header.dt_ref
    enc = RangeEncoder()
    ctx = CoderContexts.fresh()
    occupied = []

    cols, rows = _cube_grid(header)
    d_prev = 0
    t_prev = adu.start_t
    for index in range(cols * rows):
        cube = adu.cubes.get(index)
        if cube is None:
            enc.symbol(ctx.cube, 0)
            continue
        enc.symbol(ctx.cube, 1)
        for key in _scan_keys(cube.origin, header.width, header.height):
            queue = cube.queues.get(key)
            if not queue:
                enc.uint(ctx.d, SKIP_U)
                continue
            first_d, first_t = queue[0]
            enc.uint(ctx.d, zigzag(first_d - d_prev) + D_OFFSET)
            enc.uint(ctx.t, zigzag(first_t - t_prev))
            d_prev, t_prev = first_d, first_t
            occupied.append((cube, key, queue))

    for cube, key, queue in occupied:
        prev_d, prev_t = queue[0]
        prev_t_true = prev_t
        prev_dt = dt_ref
        last = len(queue) - 1
        for i in range(1, len(queue)):
            d, t = queue[i]
            d_r = d - prev_d
            enc.uint(ctx.d, zigzag(d_r) + D_OFFSET)
            shift_by = 0 if (d == EMPTY or prev_d == EMPTY) else d_r
            p_b = t_prediction(prev_t, prev_dt, shift_by)
            nxt = queue[i + 1] if i != last else cube.following.get(key)
            s, res = choose_shift(t, p_b, d, prev_t, m_max, dt_ref,
                                  dt_true=t - prev_t_true, following=nxt)
            t_recon = p_b + (res << s)
            if not prev_t < t_recon <= t:
                x, y = cube.origin[0] + key[1], cube.origin[1] + key[0]
                raise ValueError(
                    f"event ({x}, {y}) at t={t} reconstructs at "
                    f"t={t_recon}, outside ({prev_t}, {t}]")
            enc.uint(ctx.s, s)
            enc.uint(ctx.t, zigzag(res))
            prev_dt = t_recon - prev_t
            prev_d, prev_t, prev_t_true = d, t_recon, t
        enc.uint(ctx.d, SKIP_U)

    enc.uint(ctx.d, EOS_U)
    return _ADU_PREFIX.pack(adu.start_t, adu.span) + enc.finish()


def decode_adu(payload, header, adu_index=0):
    """Decode one ADU payload back to an ``EVENT`` array, pixel by pixel in
    cube scan order."""
    if len(payload) < _ADU_PREFIX.size:
        raise DecodeError("payload shorter than the unit prefix", adu_index)
    start_t, _span = _ADU_PREFIX.unpack_from(payload)
    coded = payload[_ADU_PREFIX.size:]
    ctx = CoderContexts.fresh()
    cols, rows = _cube_grid(header)
    dt_ref = header.dt_ref

    try:
        dec = RangeDecoder(coded)
        pixels = []
        d_prev = 0
        t_prev = start_t
        for cy in range(rows):
            for cx in range(cols):
                if not dec.symbol(ctx.cube):
                    continue
                x0, y0 = cx * CUBE, cy * CUBE
                for ly, lx in _scan_keys((x0, y0), header.width,
                                         header.height):
                    u = dec.uint(ctx.d)
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
                    t = t_prev + unzigzag(dec.uint(ctx.t))
                    if not 0 <= t < _T_LIMIT:
                        raise DecodeError(
                            f"timestamp {t} outside the tick range",
                            adu_index)
                    d_prev, t_prev = d, t
                    pixels.append((x0 + lx, y0 + ly, d, t))

        # Columns of the output: each pixel's first event, then its queue.
        xs, ys, ds, ts = [], [], [], []
        for x, y, prev_d, prev_t in pixels:
            start = len(ts)
            ds.append(prev_d)
            ts.append(prev_t)
            prev_dt = dt_ref
            while True:
                u = dec.uint(ctx.d)
                if u == SKIP_U:
                    break
                if u == EOS_U:
                    raise DecodeError(
                        "end of sequence inside a pixel queue", adu_index)
                d_r = unzigzag(u - D_OFFSET)
                d = prev_d + d_r
                if d < 0 or (d > D_MAX and d != EMPTY):
                    raise DecodeError(
                        f"decimation {d} outside the value range", adu_index)
                s = dec.uint(ctx.s)
                if s > SHIFT_CAP:
                    raise DecodeError(f"shift {s} beyond the cap", adu_index)
                res = unzigzag(dec.uint(ctx.t))
                shift_by = 0 if (d == EMPTY or prev_d == EMPTY) else d_r
                t = t_prediction(prev_t, prev_dt, shift_by) + (res << s)
                if not prev_t < t < _T_LIMIT:
                    raise DecodeError(
                        f"timestamp {t} breaks pixel monotonicity", adu_index)
                ds.append(d)
                ts.append(t)
                prev_dt = t - prev_t
                prev_d, prev_t = d, t
            xs += [x] * (len(ts) - start)
            ys += [y] * (len(ts) - start)

        if dec.uint(ctx.d) != EOS_U:
            raise DecodeError("missing end of sequence", adu_index)
        if dec.pos != len(coded):
            raise DecodeError("bytes left over after the end of sequence",
                              adu_index)
    except ValueError as exc:
        if isinstance(exc, DecodeError):
            raise
        raise DecodeError(str(exc), adu_index) from exc

    return event_array(xs, ys, ds, ts)


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
