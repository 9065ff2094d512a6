"""Core event types, intensity math, quality presets, and stream serialization.

An intensity event is the tuple ``(x, y, d, t)``: pixel coordinates, a
decimation factor ``d``, and an absolute timestamp ``t`` in ticks.  The
event expresses that ``2**d`` intensity units accumulated at its pixel over
the interval since the pixel's previous event, so the expressed rate is
``2**d / dt``.  A reserved decimation value marks spans in which no
intensity arrived at all.  Streams are mono: one grayscale intensity per
pixel.

A stream of events is a numpy array of ``EVENT``, whose 9-byte records
are exactly the records of a raw stream file.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Decimation sentinel for a zero-intensity span.  Real decimations are 0..127.
EMPTY = 255
D_MAX = 127

MAGIC = b"AEVS"
VERSION = 1

# Source codec ids carried in the stream header.  Ids 1 (a binary
# arithmetic coder), 2 (the range coder with lossy timestamp shifts), 3
# (that range coder on exact residuals) and 4 (raw LZMA over codec 3's
# cube model) belong to earlier codecs, whose streams no longer decode;
# bumping the codec id rather than VERSION leaves raw streams
# byte-identical.
CODEC_RAW = 0
CODEC_COMPRESSED = 5

DEFAULT_DT_REF = 255

# Largest frame area a header may declare (4K UHD fits): the reconstructor
# sizes its work by the declared geometry, so an untrusted header must not
# be able to demand more.
MAX_PIXELS = 4096 * 4096


class StreamFormatError(ValueError):
    """Raised for malformed headers, truncated records, or undecodable data."""


# One event, in memory as on disk: 9 little-endian bytes, unpadded.
EVENT = np.dtype([("x", "<u2"), ("y", "<u2"), ("d", "u1"), ("t", "<u4")])


def event_array(x, y, d, t) -> np.ndarray:
    """An ``EVENT`` array from integer columns, refusing with ValueError
    any value that would wrap in its field and any invalid decimation."""
    x, y, d, t = (np.asarray(c, np.int64) for c in (x, y, d, t))
    if ((x < 0) | (x > 0xFFFF) | (y < 0) | (y > 0xFFFF)).any():
        raise ValueError("coordinates exceed 16-bit range")
    if (((d < 0) | (d > D_MAX)) & (d != EMPTY)).any():
        raise ValueError("decimation out of range")
    if ((t < 0) | (t > 0xFFFFFFFF)).any():
        raise ValueError("timestamp exceeds 32-bit range")
    out = np.empty(len(t), EVENT)
    out["x"], out["y"], out["d"], out["t"] = x, y, d, t
    return out


# 2**(d + 1) * dt_ref is capped at 2**42 in int64 arithmetic.  Any dt in
# a u32 field is below 2**32, so a value past the cap is past 509 * dt,
# where the rounded value reaches 255 and clamps; below it nothing wraps.
_SCALED_BITS = 42


def display_values(d: np.ndarray, dt: np.ndarray, dt_ref: int) -> np.ndarray:
    """The displayed 8-bit value of each event: round(2**d * dt_ref / dt),
    halves rounding up, clamped at 255; EMPTY shows 0.  Exact for dt of 1
    to 2**32 - 1 and dt_ref below 2**32.  Taken naively in int64,
    (2 << d) * dt_ref wraps silently, with no RuntimeWarning, from d = 30
    on for the largest dt_ref, so the scaled units are capped instead.
    Neither d nor dt is checked here; callers validate them."""
    shift = np.add(d, 1, dtype=np.int64)
    dt = np.asarray(dt, np.int64)
    room = _SCALED_BITS - int(dt_ref).bit_length()
    value = np.int64(dt_ref) << np.minimum(shift, room)
    value[shift > room] = 1 << _SCALED_BITS
    value += dt
    value //= 2 * dt
    np.minimum(value, 255, out=value)
    value[shift == EMPTY + 1] = 0
    return value


def window_of(t, span: int):
    """The window of each tick on a grid of ``span`` ticks: window k holds
    the ticks ``k * span < t <= (k + 1) * span``, and window 0 also tick
    0.  Frames (span ``dt_ref``) and ADUs (span ``dt_adu``) both cut
    streams so.  ``max(t, 1) - 1`` cannot wrap on unsigned ticks."""
    return (np.maximum(t, 1) - 1) // span


@dataclass(frozen=True, slots=True)
class ParamSet:
    """Transcoder contrast-threshold parameters selected by a quality preset.

    m_base is the contrast threshold a pixel starts a run with, m_max the
    ceiling it may grow to, and m_v the number of stable reference intervals
    per +1 growth step.
    """

    m_base: int
    m_max: int
    m_v: int


# Quality presets 0..9.  0 is lossless (threshold pinned at zero); higher
# presets trade reconstruction quality for fewer events.  m_base/m_max grow
# monotonically while m_v shrinks, so coarse presets both allow and reach
# larger thresholds.
CRF_PARAMS: tuple[ParamSet, ...] = (
    ParamSet(0, 0, 1),
    ParamSet(1, 3, 4),
    ParamSet(2, 4, 4),
    ParamSet(3, 6, 3),
    ParamSet(4, 8, 3),
    ParamSet(5, 11, 3),
    ParamSet(6, 14, 2),
    ParamSet(8, 18, 2),
    ParamSet(11, 23, 2),
    ParamSet(14, 29, 1),
)


def crf_params(crf: int) -> ParamSet:
    if not 0 <= crf <= 9:
        raise ValueError(f"quality preset out of range: {crf}")
    return CRF_PARAMS[crf]


_HEADER = struct.Struct("<4sHHHBBBIII")

HEADER_SIZE = _HEADER.size


@dataclass(slots=True)
class StreamHeader:
    width: int
    height: int
    channels: int = 1  # streams are mono; the byte stays in the layout
    dt_ref: int = DEFAULT_DT_REF
    dt_max: int = DEFAULT_DT_REF
    dt_s: int = DEFAULT_DT_REF
    crf: int = 0
    source_codec: int = CODEC_RAW

    def validate(self) -> None:
        if self.channels != 1:
            raise StreamFormatError(
                f"only mono streams are supported, got {self.channels} "
                "channels")
        if not (0 <= self.width <= 0xFFFF and 0 <= self.height <= 0xFFFF):
            raise StreamFormatError(
                f"frame of {self.width}x{self.height} does not fit 16 bits")
        if self.width * self.height > MAX_PIXELS:
            raise StreamFormatError(
                f"frame of {self.width}x{self.height} exceeds the "
                f"{MAX_PIXELS}-pixel limit")
        if self.dt_ref < 1:
            raise StreamFormatError("dt_ref must be at least one tick")
        if self.dt_max < self.dt_ref:
            raise StreamFormatError("dt_max must be >= dt_ref")
        for name in ("dt_ref", "dt_max", "dt_s"):
            if not 0 <= getattr(self, name) <= 0xFFFFFFFF:
                raise StreamFormatError(f"{name} does not fit 32 bits: "
                                        f"{getattr(self, name)}")
        if self.dt_s < 1:
            raise StreamFormatError("dt_s must be at least one tick")
        if not 0 <= self.crf <= 9:
            raise StreamFormatError(f"quality preset out of range: {self.crf}")
        if self.source_codec not in (CODEC_RAW, CODEC_COMPRESSED):
            raise StreamFormatError(
                f"unsupported source codec {self.source_codec}")

    @property
    def event_size(self) -> int:
        return EVENT.itemsize


def write_header(header: StreamHeader) -> bytes:
    header.validate()
    return _HEADER.pack(
        MAGIC,
        VERSION,
        header.width,
        header.height,
        header.channels,
        header.crf,
        header.source_codec,
        header.dt_ref,
        header.dt_max,
        header.dt_s,
    )


def read_header(data: bytes) -> StreamHeader:
    if len(data) < _HEADER.size:
        raise StreamFormatError("truncated stream header")
    magic, version, width, height, channels, crf, codec, dt_ref, dt_max, dt_s = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise StreamFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise StreamFormatError(f"unsupported stream version {version}")
    header = StreamHeader(width, height, channels, dt_ref, dt_max, dt_s, crf, codec)
    header.validate()
    return header


def write_stream(path: str, header: StreamHeader, events) -> int:
    """Write a raw stream of ``EVENT``s; returns the byte count written."""
    blob = write_header(header) + np.asarray(events, EVENT).tobytes()
    Path(path).write_bytes(blob)
    return len(blob)


def read_stream(path: str) -> tuple[StreamHeader, np.ndarray]:
    """Read a raw event stream; the events are a read-only ``EVENT`` view
    of the file's bytes."""
    data = Path(path).read_bytes()
    header = read_header(data)
    if (len(data) - HEADER_SIZE) % header.event_size:
        raise StreamFormatError("incomplete event record at end of stream")
    return header, np.frombuffer(data, EVENT, offset=HEADER_SIZE)
