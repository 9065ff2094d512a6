"""Framed-video to intensity-event transcoding.

Each pixel integrates its incoming frame values as intensity units and keeps
a queue of pending events for the current run.  A run is a span of frames
whose values stay within the pixel's contrast threshold of the value that
opened the run.  While a run lasts, every crossing of the next ``2**d``
boundary appends a queue entry, and adjacent entries coalesce into
higher-decimation entries so that a long stable run collapses to a handful
of events.  The queue is only emitted when the run ends: either the value
moves outside the contrast window or the stream is flushed.

The coalescing rule pins the first entry (it carries the dt_max latency
guarantee) and merges the last two entries, one level up at the later
timestamp, while they share a decimation.  Over the crossings after the
first, that is a binary counter: with ``count`` such crossings, the queue is
the first entry followed by one entry ``(d + l, tick)`` for each set bit
``l`` of ``count``, from the highest bit to the lowest, where ``tick`` is
that of the last crossing merged into the entry.

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

import numpy as np

from .events import (EMPTY, EVENT, ParamSet, StreamHeader, crf_params,
                     event_array)

log = logging.getLogger(__name__)


def _bit_length(values):
    # frexp's exponent is the bit length of a nonnegative integer, exactly
    # so below 2**53.
    return np.frexp(values)[1].astype(np.int64)


def starting_decimation(value):
    """Base decimation for a run opened at ``value`` units per dt_ref ticks:
    floor(log2(value)), so the first event (2**d units at the opening
    rate) completes within one dt_ref, and with it within dt_max, which a
    header never sets below dt_ref.  Works on an int or elementwise on an
    array of values.
    """
    values = np.asarray(value, dtype=np.int64)
    if (values <= 0).any():
        raise ValueError("starting decimation requires a positive value")
    d = _bit_length(values) - 1
    return int(d) if d.ndim == 0 else d


class Transcoder:
    """Grayscale frame-sequence transcoder with each pixel's state in flat,
    row-major numpy arrays.

    Per pixel: ``opened``, the run's opening value ``i0`` and decimation
    ``d``, the integrated ``units`` and the crossings ``fired``, the
    threshold ``m_cur`` growing towards ``m_tgt`` every ``m_v`` ``stable``
    frames, the sensitivity override's end ``override_until`` (-1 when
    none) and the tick of the last emitted event ``t_emit``.  The run's
    queue is ``has_first``/``first_t``, the crossing ``count`` after the
    first, the ``last_tick`` of the latest crossing and ``levels``, the
    tick of each counter bit (grown in width as counts need more bits).
    ``opening`` holds the row-major indices of the pixels whose runs the
    last frame opened, that is, the pixels whose ``i0`` it set.

    A frame, the events of the runs it ends included, is a few vector
    steps over all pixels.  A frame's events come in row-major pixel
    order; each pixel gives its closing events (the queue in order, or a
    dark run's closing marker), then the marker opening its new run if it
    needs one.  A caller may call set_sensitivity between frames to steer
    later ones.
    """

    def __init__(self, header: StreamHeader, params: ParamSet | None = None):
        header.validate()
        self.header = header
        self.params = params if params is not None else crf_params(header.crf)
        self.width = header.width
        self.height = header.height
        self.now = 0
        n = self.width * self.height
        self.opened, self.has_first = np.zeros((2, n), bool)
        (self.i0, self.d, self.units, self.fired, self.stable, self.t_emit,
         self.first_t, self.count, self.last_tick) = np.zeros((9, n), np.int64)
        self.m_cur = np.full(n, self.params.m_base, np.int64)
        self.m_tgt = np.full(n, self.params.m_max, np.int64)
        self.override_until = np.full(n, -1, np.int64)
        self.levels = np.zeros((n, 8), np.int64)
        self.opening = np.empty(0, np.int64)

    def integrate_frame(self, frame) -> np.ndarray:
        """Advance every pixel by one frame (dt_ref ticks) of ``frame``,
        a height x width grid of values in units per frame, and return the
        events of the runs it ends as an ``EVENT`` array."""
        values = np.asarray(frame, dtype=np.int64)
        if values.shape != (self.height, self.width):
            raise ValueError("frame shape does not match the stream header")
        v = values.ravel()
        p = self.params
        start = self.now
        self.now = start + self.header.dt_ref

        expired = (self.override_until >= 0) & (start >= self.override_until)
        self.override_until[expired] = -1
        self.m_tgt[expired] = p.m_max

        violated = self.opened & (np.abs(v - self.i0) > self.m_cur)
        closing = np.flatnonzero(violated)
        emitted = self._close_runs(closing, start, v[closing])

        stays = self.opened & ~violated
        self.stable[stays] += 1
        grows = stays & (self.stable >= p.m_v)
        self.stable[grows] = 0
        self.m_cur[grows & (self.m_cur < self.m_tgt)] += 1

        opening = self.opening = np.flatnonzero(~stays)
        if opening.size:
            self._open(opening, v[opening], start)
        self._integrate(v, start)
        return emitted

    def _open(self, idx, values, at: int) -> None:
        p = self.params
        self.opened[idx] = True
        self.i0[idx] = values
        # dark runs keep d = 0
        self.d[idx] = starting_decimation(np.maximum(values, 1))
        self.units[idx] = 0
        self.fired[idx] = 0
        self.has_first[idx] = False
        self.count[idx] = 0
        self.m_cur[idx] = p.m_base
        self.m_tgt[idx] = np.where(at < self.override_until[idx],
                                   p.m_base, p.m_max)
        self.stable[idx] = 0

    def _integrate(self, v, start: int) -> None:
        """Add a frame of units to every lit run and queue its crossings."""
        self.units += np.where(self.i0 > 0, v, 0)
        crossings = (self.units >> self.d) - self.fired
        active = np.flatnonzero(crossings)
        if not active.size:
            return
        span = self.header.dt_ref
        n_new = crossings[active]
        for k in range(int(n_new.max())):
            idx = active[n_new > k]
            value = v[idx]
            u0 = self.units[idx] - value
            needed = ((self.fired[idx] + 1 + k) << self.d[idx]) - u0
            tick = start + (2 * span * needed + value) // (2 * value)
            has_first = self.has_first[idx]
            prev_t = np.where(has_first, self.last_tick[idx], start)
            tick = np.maximum(tick, prev_t + 1)
            self.last_tick[idx] = tick
            first = idx[~has_first]
            self.first_t[first] = tick[~has_first]
            self.has_first[first] = True
            # Binary increment: the new entry lands at the lowest clear bit
            # of the count, having merged every entry below it.
            rest = idx[has_first]
            count = self.count[rest]
            level = _bit_length((count + 1) & ~count) - 1
            if level.size and level.max() >= self.levels.shape[1]:
                self.levels = np.pad(self.levels,
                                     ((0, 0), (0, self.levels.shape[1])))
            self.levels[rest, level] = tick[has_first]
            self.count[rest] = count + 1
        self.fired += crossings

    def _close_runs(self, idx, at: int, values=None) -> np.ndarray:
        """End the runs of pixels ``idx`` (ascending) at tick ``at``.

        Each pixel's queue goes out in order, or a dark run's closing
        marker; a lit run's sub-boundary remainder (``units - fired * 2**d``,
        less than one event at its base decimation) is discarded.  With
        ``values``, the pixels' new runs open at them, and a marker follows
        when the new run is dark or the old one left ticks after its last
        firing, which the new run's first event must not stretch over.
        """
        if not idx.size:
            return np.empty(0, EVENT)
        t_emit = self.t_emit[idx]
        has_first = self.has_first[idx]
        dark = self.i0[idx] == 0
        # Zero-span markers yield to whatever else fired at the same tick.
        dark_t = np.maximum(at, t_emit + 1)
        t_emit = np.where(dark, dark_t,
                          np.where(has_first, self.last_tick[idx], t_emit))
        if values is None:
            marks = np.zeros(len(idx), bool)
        else:
            marks = (values == 0) | (t_emit < at)
            # An opening marker dates the tick after the violation, so a
            # snapshot taken exactly at the violation shows the old run.
            t_emit = np.where(marks, np.maximum(at + 1, t_emit + 1), t_emit)
        self.t_emit[idx] = t_emit
        # One row of slots per pixel, in emission order: the closing head
        # (the queue's first entry, or a dark run's marker), the counter
        # bits from high to low, then the opening marker.
        high_first = np.arange(self.levels.shape[1] - 1, -1, -1)
        d = self.d[idx]
        slots_d = np.column_stack((np.where(dark, EMPTY, d),
                                   d[:, None] + high_first,
                                   np.full(len(idx), EMPTY)))
        slots_t = np.column_stack((np.where(dark, dark_t, self.first_t[idx]),
                                   self.levels[idx][:, ::-1], t_emit))
        bits = (self.count[idx][:, None] >> high_first) & 1 == 1
        present = np.column_stack((dark | has_first, bits, marks))
        y, x = np.divmod(idx[np.nonzero(present)[0]], self.width)
        return event_array(x, y, slots_d[present], slots_t[present])

    def flush_all(self) -> np.ndarray:
        """End every open run at the current clock and emit its queue."""
        idx = np.flatnonzero(self.opened)
        emitted = self._close_runs(idx, self.now)
        self.opened[idx] = False
        return emitted

    def set_sensitivity(self, x, y, radius: int,
                        duration: int | None = None) -> None:
        """Pin the pixels within a Chebyshev ``radius`` of each center
        (``x``, ``y``) to their base threshold for ``duration`` ticks
        (default ``2 * dt_max``).  ``x`` and ``y`` are ints or equal-length
        integer arrays; one call over many centers equals one call per
        center.  A center outside the grid is ignored, with a warning."""
        x, y = (np.atleast_1d(np.asarray(c, np.int64)) for c in (x, y))
        inside = (0 <= x) & (x < self.width) & (0 <= y) & (y < self.height)
        for cx, cy in zip(x[~inside].tolist(), y[~inside].tolist()):
            log.warning("sensitivity center (%d, %d) outside %dx%d grid; "
                        "ignored", cx, cy, self.width, self.height)
        if not inside.any():
            return
        if duration is None:
            duration = 2 * self.header.dt_max
        # the centers' mask, dilated one axis at a time: a pixel is pinned
        # when a center lies within ``radius`` of it along both axes
        pinned = np.zeros((self.height, self.width), bool)
        pinned[y[inside], x[inside]] = True
        for _ in range(2):
            grown = pinned.copy()
            for step in range(1, radius + 1):
                grown[step:] |= pinned[:-step]
                grown[:-step] |= pinned[step:]
            pinned = grown.T
        pinned = pinned.reshape(-1)
        self.m_cur[pinned] = self.params.m_base
        self.m_tgt[pinned] = self.params.m_base
        self.override_until[pinned] = self.now + duration
