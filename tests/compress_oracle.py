"""Per-event reference for ``evc.compress.encode_adu``'s value sequence.

``reference_sequence`` walks an ADU's events one at a time, as the codec
did before its sequence was built with numpy: an intra pass over the
cube grid, then each pixel's queue against its previous event with the
scalar ``t_prediction``.  It sorts the values it makes into the codec's
group-major order, and ``leb128`` writes them one at a time: the body
``encode_adu`` hands to LZMA must equal that byte for byte.
"""

from __future__ import annotations

from evc.compress import (
    CUBE,
    D_OFFSET,
    EOS_U,
    SHIFT_CAP,
    SKIP_U,
    _PREDICT_CAP,
)
from evc.events import EMPTY


def zigzag(v):
    """Signed to unsigned: 0, -1, 1, -2, 2 ... -> 0, 1, 2, 3, 4 ..."""
    return (v << 1) if v >= 0 else ((-v << 1) - 1)


def t_prediction(prev_t, prev_dt, d_r):
    """Timestamp prediction: continue the previous interval scaled by d_r."""
    if d_r >= 0:
        delta = prev_dt << min(d_r, SHIFT_CAP)
    else:
        delta = prev_dt >> min(-d_r, SHIFT_CAP)
    if delta < 1:
        delta = 1
    elif delta > _PREDICT_CAP:
        delta = _PREDICT_CAP
    return prev_t + delta


def leb128(values):
    """Unsigned LEB128: seven bits a byte, low bits first, the top bit set
    on every byte but a value's last."""
    out = bytearray()
    for value in values:
        while value >= 0x80:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        out.append(value)
    return bytes(out)


def reference_sequence(adu, header):
    """The unit's values: every cube flag, every d symbol, then every t
    residual."""
    queues = {}
    for x, y, d, t in adu.events.tolist():
        queues.setdefault((x, y), []).append((d, t))
    flags, ds, ts = [], [], []

    # intra pass: each pixel's first event, chained across the cube grid
    cols = (header.width + CUBE - 1) // CUBE
    rows = (header.height + CUBE - 1) // CUBE
    d_prev, t_prev = 0, adu.start_t
    for cy in range(rows):
        for cx in range(cols):
            pixels = [(x, y)
                      for y in range(cy * CUBE, min((cy + 1) * CUBE,
                                                    header.height))
                      for x in range(cx * CUBE, min((cx + 1) * CUBE,
                                                    header.width))]
            used = any(pixel in queues for pixel in pixels)
            flags.append(int(used))
            if not used:
                continue
            for pixel in pixels:
                if pixel not in queues:
                    ds.append(SKIP_U)
                    continue
                d, t = queues[pixel][0]
                ds.append(zigzag(d - d_prev) + D_OFFSET)
                ts.append(zigzag(t - t_prev))
                d_prev, t_prev = d, t

    # inter pass: each pixel's later events against its previous one
    for (x, y), queue in queues.items():
        prev_d, prev_t = queue[0]
        prev_dt = header.dt_ref
        for d, t in queue[1:]:
            if t <= prev_t:
                raise ValueError(f"pixel ({x}, {y}): tick {t} does not "
                                 f"follow its previous event's {prev_t}")
            d_r = d - prev_d
            ds.append(zigzag(d_r) + D_OFFSET)
            shift = 0 if EMPTY in (d, prev_d) else d_r
            ts.append(zigzag(t - t_prediction(prev_t, prev_dt, shift)))
            prev_dt = t - prev_t
            prev_d, prev_t = d, t
        ds.append(SKIP_U)
    ds.append(EOS_U)
    return flags + ds + ts


def read_leb128(body):
    """The values of unsigned LEB128 bytes, one byte at a time: "truncated
    varint" if the last byte leaves a value open, else "varint wider than
    63 bits" at the first value past nine bytes."""
    if body and body[-1] >= 0x80:
        raise ValueError("truncated varint")
    values, value, width = [], 0, 0
    for byte in body:
        value |= (byte & 0x7F) << 7 * width
        width += 1
        if width > 9:
            raise ValueError("varint wider than 63 bits")
        if byte < 0x80:
            values.append(value)
            value, width = 0, 0
    return values
