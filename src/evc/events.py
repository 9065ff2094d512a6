"""Core event types, intensity math, quality presets, and stream serialization.

An intensity event is the tuple ``(x, y, d, t)``: pixel coordinates, a
decimation factor ``d``, and an absolute timestamp ``t`` in ticks.  The
event expresses that ``2**d`` intensity units accumulated at its pixel over
the interval since the pixel's previous event, so the expressed rate is
``2**d / dt``.  A reserved decimation value marks spans in which no
intensity arrived at all.  Streams are mono: one grayscale intensity per
pixel.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

# Decimation sentinel for a zero-intensity span.  Real decimations are 0..127.
EMPTY = 255
D_MAX = 127

MAGIC = b"AEVS"
VERSION = 1

# Source codec ids carried in the stream header.  Id 1 was the earlier
# binary arithmetic coder, whose streams no longer decode; bumping the
# codec id rather than VERSION leaves raw streams byte-identical.
CODEC_RAW = 0
CODEC_COMPRESSED = 2

DEFAULT_DT_REF = 255


class StreamFormatError(ValueError):
    """Raised for malformed headers, truncated records, or undecodable data."""


@dataclass(slots=True)
class Event:
    x: int
    y: int
    d: int
    t: int


def event_intensity(d: int, dt: int) -> float:
    """Expressed intensity in units per tick: 2**d / dt (0.0 for EMPTY).

    dt must be positive; a zero or negative interval has no meaning.
    """
    if dt <= 0:
        raise ValueError(f"event interval must be positive, got {dt}")
    if d == EMPTY:
        return 0.0
    if not 0 <= d <= D_MAX:
        raise ValueError(f"decimation out of range: {d}")
    return float(1 << d) / dt


def display_value(d: int, dt: int, dt_ref: int) -> int:
    """The displayed 8-bit value of an event: round(2**d * dt_ref / dt),
    halves rounding up, clamped at 255; EMPTY shows 0.  Neither d nor dt
    is checked here; callers validate them."""
    if d == EMPTY:
        return 0
    value = ((2 << d) * dt_ref + dt) // (2 * dt)
    return value if value < 255 else 255


@dataclass(frozen=True, slots=True)
class ParamSet:
    """Transcoder sensitivity parameters selected by a quality preset.

    m_base is the contrast threshold a pixel starts a run with, m_max the
    ceiling it may grow to, and m_v the number of stable reference intervals
    per +1 growth step.  feature_radius is the Chebyshev radius used when a
    detected feature locks nearby pixels back to m_base.
    """

    m_base: int
    m_max: int
    m_v: int
    feature_radius: int


# Quality presets 0..9.  0 is lossless (threshold pinned at zero); higher
# presets trade reconstruction quality for fewer events.  m_base/m_max grow
# monotonically while m_v shrinks, so coarse presets both allow and reach
# larger thresholds; feature_radius shrinks (preset 0 never adapts, so its
# radius is irrelevant and kept at 0).
CRF_PARAMS: tuple[ParamSet, ...] = (
    ParamSet(0, 0, 1, 0),
    ParamSet(1, 3, 4, 8),
    ParamSet(2, 4, 4, 6),
    ParamSet(3, 6, 3, 4),
    ParamSet(4, 8, 3, 3),
    ParamSet(5, 11, 3, 3),
    ParamSet(6, 14, 2, 2),
    ParamSet(8, 18, 2, 2),
    ParamSet(11, 23, 2, 1),
    ParamSet(14, 29, 1, 1),
)


def crf_params(crf: int) -> ParamSet:
    if not 0 <= crf <= 9:
        raise ValueError(f"quality preset out of range: {crf}")
    return CRF_PARAMS[crf]


_HEADER = struct.Struct("<4sHHHBBBIII")
_EVENT = struct.Struct("<HHBI")

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
        if self.dt_ref < 1:
            raise StreamFormatError("dt_ref must be at least one tick")
        if self.dt_max < self.dt_ref:
            raise StreamFormatError("dt_max must be >= dt_ref")
        if not 0 <= self.crf <= 9:
            raise StreamFormatError(f"quality preset out of range: {self.crf}")
        if self.source_codec not in (CODEC_RAW, CODEC_COMPRESSED):
            raise StreamFormatError(
                f"unsupported source codec {self.source_codec}")

    @property
    def event_size(self) -> int:
        return _EVENT.size


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


def serialize_event(event: Event) -> bytes:
    if not 0 <= event.x <= 0xFFFF or not 0 <= event.y <= 0xFFFF:
        raise ValueError(f"coordinates exceed 16-bit range: ({event.x}, {event.y})")
    if not (0 <= event.d <= D_MAX or event.d == EMPTY):
        raise ValueError(f"decimation out of range: {event.d}")
    if not 0 <= event.t <= 0xFFFFFFFF:
        raise ValueError(f"timestamp exceeds 32-bit range: {event.t}")
    return _EVENT.pack(event.x, event.y, event.d, event.t)


def parse_event(data: bytes, offset: int = 0) -> Event:
    try:
        return Event(*_EVENT.unpack_from(data, offset))
    except struct.error as exc:
        raise StreamFormatError("incomplete event record") from exc


def write_stream(path: str, header: StreamHeader, events: list[Event]) -> int:
    """Write a raw event stream; returns the byte count written."""
    blob = bytearray(write_header(header))
    for event in events:
        blob += serialize_event(event)
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def read_stream(path: str) -> tuple[StreamHeader, list[Event]]:
    with open(path, "rb") as fh:
        data = fh.read()
    header = read_header(data)
    size = header.event_size
    body = len(data) - HEADER_SIZE
    if body % size:
        raise StreamFormatError("incomplete event record at end of stream")
    events = [
        parse_event(data, HEADER_SIZE + i * size)
        for i in range(body // size)
    ]
    return header, events
