"""Per-event reference for ``evc.compress.encode_adu``'s value sequence.

``reference_sequence`` walks an ADU's events one at a time, pixel by
pixel in raster order, and appends each value to its column, as the
format lays the columns out; ``leb128`` writes the values one at a time:
the body ``encode_adu`` hands to LZMA must equal that byte for byte.
``encode_stream`` gives the payloads of a whole stream's units.
"""

from __future__ import annotations

from evc.compress import build_adus, encode_adu


def encode_stream(events, header, dt_adu=None):
    """The payloads of the stream's units on the ``dt_adu`` grid."""
    return [encode_adu(adu, header)
            for adu in build_adus(events, header, dt_adu)]


def zigzag(v):
    """Signed to unsigned: 0, -1, 1, -2, 2 ... -> 0, 1, 2, 3, 4 ..."""
    return (v << 1) if v >= 0 else ((-v << 1) - 1)


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
    """The unit's eight columns, one after the other: pixel gaps, event
    counts, first d steps, later d steps, first ticks, the intervals of
    later events that are not gap markers, and each later marker's frame
    step from its previous event, then its phase in the frame."""
    queues = {}
    for x, y, d, t in adu.events.tolist():
        # the coded d puts EMPTY at 0, next to the decimations
        queues.setdefault((y * header.width + x, x, y), []).append(
            ((d + 1) & 0xFF, t))
    columns = (gaps, counts, d_first, d_later, t_first, t_later, frames,
               phases) = ([], [], [], [], [], [], [], [])
    prev_index, prev_d = -1, 0
    for (index, x, y), queue in sorted(queues.items()):
        gaps.append(index - prev_index - 1)
        counts.append(len(queue) - 1)
        d, t = queue[0]
        d_first.append(zigzag(d - prev_d))
        t_first.append(t - adu.start_t)
        prev_index, prev_d = index, d
        for (prev_d_px, prev_t), (d, t) in zip(queue, queue[1:]):
            if t <= prev_t:
                raise ValueError(f"pixel ({x}, {y}): tick {t} does not "
                                 f"follow its previous event's {prev_t}")
            d_later.append(zigzag(d - prev_d_px))
            if d:
                t_later.append(t - prev_t - 1)
            else:
                frames.append(t // header.dt_ref - prev_t // header.dt_ref)
                phases.append(t % header.dt_ref)
    return [value for column in columns for value in column]


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
