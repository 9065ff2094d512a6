"""Scalar reference for ``evc.transcode.Transcoder``.

``PixelIntegrator`` is the per-pixel integrator the array transcoder
replaces, kept as the oracle it must equal event for event.
``OracleGrid`` drives a row-major grid of them with the transcoder's
frame and flush interface.
"""

from __future__ import annotations

from evc.events import EMPTY, ParamSet
from evc.transcode import starting_decimation


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
        "m_base", "m_max", "m_v", "dt_ref", "now", "opened",
        "i0", "d", "units", "fired", "queue", "run_start",
        "m_cur", "stable", "t_emit",
    )

    def __init__(self, params: ParamSet, dt_ref: int):
        self.m_base = params.m_base
        self.m_max = params.m_max
        self.m_v = params.m_v
        self.dt_ref = dt_ref
        self.now = 0
        self.opened = False
        self.i0 = 0
        self.d = 0
        self.units = 0
        self.fired = 0
        self.queue: list[tuple[int, int]] = []
        self.run_start = 0
        self.m_cur = params.m_base
        self.stable = 0
        self.t_emit = 0

    def _open(self, value: int, at: int) -> None:
        self.opened = True
        self.i0 = value
        self.d = starting_decimation(value) if value > 0 else 0
        self.units = 0
        self.fired = 0
        self.queue = []
        self.run_start = at
        self.m_cur = self.m_base
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
        emitted = None
        if not self.opened:
            self._open(value, start)
        elif abs(value - self.i0) > self.m_cur:
            emitted = self._close_run(start)
            self._open(value, start)
            if value == 0:
                # A zero baseline has no boundary crossings, so a marker
                # announces the dark run with the flush; the closing marker
                # later dates the far end of the span.
                emitted.append(self._open_marker(start))
            elif self.t_emit < start:
                # The old run left ticks after its last firing, and the
                # next event must not stretch over them.
                emitted.append(self._open_marker(start))
        else:
            self.stable += 1
            if self.stable >= self.m_v:
                self.stable = 0
                if self.m_cur < self.m_max:
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


class OracleGrid:
    """A row-major grid of ``PixelIntegrator``s behind the transcoder's
    ``integrate_frame``/``flush_all`` interface; its events are
    ``(x, y, d, t)`` tuples."""

    def __init__(self, header, params: ParamSet):
        self.width = header.width
        self.height = header.height
        self.pixels = [PixelIntegrator(params, header.dt_ref)
                       for _ in range(self.width * self.height)]

    def _emit(self, step) -> list[tuple]:
        events = []
        for index, px in enumerate(self.pixels):
            y, x = divmod(index, self.width)
            events.extend((x, y, d, t) for d, t in step(index, px) or ())
        return events

    def integrate_frame(self, frame) -> list[tuple]:
        rows = [list(map(int, row)) for row in frame]
        return self._emit(lambda i, px: px.integrate(rows[i // self.width][i % self.width]))

    def flush_all(self) -> list[tuple]:
        return self._emit(lambda i, px: px.flush())
