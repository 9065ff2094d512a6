"""Framed-video to intensity-event transcoding.

Each pixel integrates its incoming frame values as intensity units and keeps
a queue of pending events for the current run.  A run is a span of frames
whose values stay within the pixel's contrast threshold of the value that
opened the run.  While a run lasts, every crossing of the next ``2**d``
boundary appends a queue entry, and adjacent entries coalesce into
higher-decimation entries so that a long stable run collapses to a handful
of events.  The queue is only emitted when the run ends: either the value
moves outside the contrast window or the stream is flushed.

Zero-valued runs have no crossings to report, so they are bracketed by
zero-span markers instead: one announcing the run when a contrast violation
opens it, and one dating its far end when it closes, which restarts interval
timing for the next run.  A run that is zero from the very first frame has
no opening violation and gets only the closing marker.

Two properties follow from how the run's decimation is chosen and are relied
on elsewhere:

* the first queue entry always completes inside the run's opening span
  (``2**d <= value``), so it never exceeds the configured dt_max bound;
* every entry of a queue has decimation >= the run's base decimation, which
  itself is floor(log2) of the opening value.
"""

from __future__ import annotations

import logging

from .events import EMPTY, Event, ParamSet, StreamHeader, crf_params

log = logging.getLogger(__name__)


def starting_decimation(value: int, dt_ref: int, dt_max: int) -> int:
    """Base decimation for a run opened at ``value`` units per dt_ref ticks.

    Takes floor(log2(value)), additionally capped so that the first event
    (2**d units at the opening rate) completes within dt_max ticks.  The cap
    only binds in degenerate configurations since dt_max >= dt_ref.
    """
    if value <= 0:
        raise ValueError("starting decimation requires a positive value")
    d_intensity = value.bit_length() - 1
    budget = (value * dt_max) // dt_ref
    d_latency = max(budget.bit_length() - 1, 0)
    return min(d_intensity, d_latency)


class PixelIntegrator:
    """Integration state for a single pixel.

    ``integrate(value)`` advances the pixel clock by one frame (dt_ref
    ticks) of input at ``value`` units per frame, and returns any events
    emitted by a run ending (None when the run continues).  Emitted entries
    are (d, t) pairs with absolute timestamps.  A crossing appended to the
    queue coalesces with its predecessor while the two share a decimation,
    one level up at the later timestamp; the first entry is pinned, since
    it carries the dt_max latency guarantee, and never merges.
    """

    __slots__ = (
        "m_base", "m_max", "m_v", "dt_ref", "dt_max", "now", "opened",
        "i0", "d", "units", "fired", "queue", "run_start",
        "m_cur", "m_tgt", "stable", "override_until", "t_emit",
    )

    def __init__(self, params: ParamSet, dt_ref: int, dt_max: int):
        self.m_base = params.m_base
        self.m_max = params.m_max
        self.m_v = params.m_v
        self.dt_ref = dt_ref
        self.dt_max = dt_max
        self.now = 0
        self.opened = False
        self.i0 = 0
        self.d = 0
        self.units = 0
        self.fired = 0
        self.queue: list[tuple[int, int]] = []
        self.run_start = 0
        self.m_cur = params.m_base
        self.m_tgt = params.m_max
        self.stable = 0
        self.override_until = -1
        self.t_emit = 0

    def _open(self, value: int, at: int) -> None:
        self.opened = True
        self.i0 = value
        self.d = starting_decimation(value, self.dt_ref, self.dt_max) if value > 0 else 0
        self.units = 0
        self.fired = 0
        self.queue = []
        self.run_start = at
        self.m_cur = self.m_base
        self.m_tgt = self.m_base if at < self.override_until else self.m_max
        self.stable = 0

    def _marker(self, at: int) -> tuple[int, int]:
        # Zero-span markers yield to whatever else fired at the same tick.
        tick = max(at, self.t_emit + 1)
        self.t_emit = tick
        return (EMPTY, tick)

    def _open_marker(self, at: int) -> tuple[int, int]:
        # Markers opening a run date the tick after the violation so a
        # snapshot taken exactly at the violation still shows the old run.
        return self._marker(at + 1)

    def _close_run(self, at: int) -> list[tuple[int, int]]:
        # Sub-boundary remainder (units - fired * 2**d) is discarded here;
        # it is always smaller than one event at the run's base decimation.
        if self.i0 == 0:
            return [self._marker(at)]
        out = self.queue
        self.queue = []
        if out:
            self.t_emit = out[-1][1]
        return out

    def integrate(self, value: int) -> list[tuple[int, int]] | None:
        span = self.dt_ref
        start = self.now
        self.now = start + span
        if self.override_until >= 0 and start >= self.override_until:
            self.override_until = -1
            self.m_tgt = self.m_max
        emitted = None
        if not self.opened:
            self._open(value, start)
        elif abs(value - self.i0) > self.m_cur:
            emitted = self._close_run(start)
            self._open(value, start)
            if value == 0:
                # A zero baseline has no boundary crossings, so a marker
                # announces the dark run with the flush (otherwise the old
                # value would be held for the whole dark spell); the closing
                # marker later dates the far end of the span, restarting
                # interval timing for whatever follows.
                emitted.append(self._open_marker(start))
            elif self.t_emit < start:
                # The old run left ticks after its last firing (its
                # sub-boundary remainder was discarded), and the next event
                # must not stretch over them or it would express a diluted
                # intensity.  A marker covers the gap so the new run's
                # first event spans only its own frames.
                emitted.append(self._open_marker(start))
        else:
            self.stable += 1
            if self.stable >= self.m_v:
                self.stable = 0
                if self.m_cur < self.m_tgt:
                    self.m_cur += 1
        if value > 0 and self.i0 > 0:
            u0 = self.units
            self.units = u0 + value
            d = self.d
            total = self.units >> d
            if total > self.fired:
                queue = self.queue
                prev_t = queue[-1][1] if queue else start
                twice = 2 * value
                for i in range(self.fired + 1, total + 1):
                    needed = (i << d) - u0
                    tick = start + (2 * span * needed + value) // twice
                    if tick <= prev_t:
                        tick = prev_t + 1
                    queue.append((d, tick))
                    while len(queue) >= 3 and queue[-1][0] == queue[-2][0]:
                        merged = (queue[-1][0] + 1, queue[-1][1])
                        queue[-2:] = [merged]
                    prev_t = tick
                self.fired = total
        return emitted

    def flush(self) -> list[tuple[int, int]]:
        """End the current run at the pixel clock and emit its queue."""
        if not self.opened:
            return []
        out = self._close_run(self.now)
        self.opened = False
        return out

    def sensitize(self, duration: int) -> None:
        """Pin the contrast threshold at m_base for ``duration`` ticks."""
        self.m_cur = self.m_base
        self.m_tgt = self.m_base
        self.override_until = self.now + duration


class Transcoder:
    """Grayscale frame-sequence transcoder over a grid of pixel integrators.

    Pixels are visited in row-major order each frame, and a frame's emitted
    events are reported in that order, so output is deterministic.  A
    caller may call set_sensitivity between frames to steer later ones.
    """

    def __init__(self, header: StreamHeader, params: ParamSet | None = None):
        header.validate()
        self.header = header
        self.params = params if params is not None else crf_params(header.crf)
        self.width = header.width
        self.height = header.height
        self.pixels = [
            PixelIntegrator(self.params, header.dt_ref, header.dt_max)
            for _ in range(self.width * self.height)
        ]

    def integrate_frame(self, frame) -> list[Event]:
        rows = frame.tolist() if hasattr(frame, "tolist") else frame
        if len(rows) != self.height or len(rows[0]) != self.width:
            raise ValueError("frame shape does not match the stream header")
        emitted: list[Event] = []
        append = emitted.append
        pixels = self.pixels
        width = self.width
        for y in range(self.height):
            row = rows[y]
            base = y * width
            for x in range(width):
                out = pixels[base + x].integrate(row[x])
                if out:
                    for d, t in out:
                        append(Event(x, y, d, t))
        return emitted

    def flush_all(self) -> list[Event]:
        emitted: list[Event] = []
        append = emitted.append
        width = self.width
        for y in range(self.height):
            base = y * width
            for x in range(width):
                for d, t in self.pixels[base + x].flush():
                    append(Event(x, y, d, t))
        return emitted

    def set_sensitivity(self, x: int, y: int, radius: int,
                        duration: int | None = None) -> None:
        """Pin pixels within a Chebyshev radius to their base threshold."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            log.warning("sensitivity center (%d, %d) outside %dx%d grid; ignored",
                        x, y, self.width, self.height)
            return
        if duration is None:
            duration = 2 * self.header.dt_max
        x0, x1 = max(0, x - radius), min(self.width - 1, x + radius)
        y0, y1 = max(0, y - radius), min(self.height - 1, y + radius)
        for yy in range(y0, y1 + 1):
            base = yy * self.width
            for xx in range(x0, x1 + 1):
                self.pixels[base + xx].sensitize(duration)


def transcode(frames, header: StreamHeader,
              params: ParamSet | None = None) -> list[Event]:
    """Transcode a frame sequence and flush, returning all emitted events."""
    coder = Transcoder(header, params)
    events: list[Event] = []
    for frame in frames:
        events.extend(coder.integrate_frame(frame))
    events.extend(coder.flush_all())
    return events
