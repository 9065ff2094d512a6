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

import numpy as np

from .events import (EMPTY, EVENT, ParamSet, StreamHeader, crf_params,
                     event_array)


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

    Per pixel: the run's opening value ``i0`` and decimation ``d``, the
    integrated ``units`` and the crossings ``fired``, the threshold
    ``m_cur`` growing towards ``m_max`` every ``m_v`` ``stable`` frames,
    and the tick of the last emitted event ``t_emit``.  The run's queue is
    ``first_t``, the tick of its first crossing, the ``last_tick`` of the
    latest one and ``levels``, the tick of each counter bit (grown in width
    as counts need more bits); the counter holds ``fired - 1``.  Runs are
    ``opened`` all at once: every pixel opens one on the first frame, and
    ``flush_all`` closes them all.

    A frame, the events of the runs it ends included, is a few vector
    steps over all pixels.  A frame's events come in row-major pixel
    order; each pixel gives its closing events (the queue in order, or a
    dark run's closing marker), then the marker opening its new run if it
    needs one.
    """

    def __init__(self, header: StreamHeader, params: ParamSet | None = None):
        header.validate()
        self.header = header
        self.params = params if params is not None else crf_params(header.crf)
        self.width = header.width
        self.height = header.height
        self.now = 0
        self.opened = False
        n = self.width * self.height
        (self.i0, self.d, self.units, self.fired, self.stable, self.t_emit,
         self.first_t, self.last_tick) = np.zeros((8, n), np.int64)
        self.m_cur = np.full(n, self.params.m_base, np.int64)
        self.levels = np.zeros((n, 8), np.int64)

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

        stays = self.opened & (np.abs(v - self.i0) <= self.m_cur)
        opening = np.flatnonzero(~stays)
        closing = opening if self.opened else opening[:0]
        emitted = self._close_runs(closing, start, v[closing])

        self.stable[stays] += 1
        grows = stays & (self.stable >= p.m_v)
        self.stable[grows] = 0
        self.m_cur[grows & (self.m_cur < p.m_max)] += 1

        if opening.size:
            self._open(opening, v[opening])
        self._integrate(v, start)
        return emitted

    def _open(self, idx, values) -> None:
        self.opened = True
        self.i0[idx] = values
        # dark runs keep d = 0
        self.d[idx] = starting_decimation(np.maximum(values, 1))
        self.units[idx] = 0
        self.fired[idx] = 0
        self.m_cur[idx] = self.params.m_base
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
            earlier = self.fired[idx] + k
            needed = ((earlier + 1) << self.d[idx]) - u0
            tick = start + (2 * span * needed + value) // (2 * value)
            has_first = earlier > 0
            prev_t = np.where(has_first, self.last_tick[idx], start)
            tick = np.maximum(tick, prev_t + 1)
            self.last_tick[idx] = tick
            self.first_t[idx[~has_first]] = tick[~has_first]
            # Binary increment: the counter goes from earlier - 1 to
            # earlier, so the new entry lands at the lowest set bit of
            # earlier, having merged every entry below it.
            rest = earlier[has_first]
            level = _bit_length(rest & -rest) - 1
            if level.size and level.max() >= self.levels.shape[1]:
                self.levels = np.pad(self.levels,
                                     ((0, 0), (0, self.levels.shape[1])))
            self.levels[idx[has_first], level] = tick[has_first]
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
        fired = self.fired[idx]
        has_first = fired > 0
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
        count = np.maximum(fired - 1, 0)
        bits = (count[:, None] >> high_first) & 1 == 1
        present = np.column_stack((dark | has_first, bits, marks))
        y, x = np.divmod(idx[np.nonzero(present)[0]], self.width)
        return event_array(x, y, slots_d[present], slots_t[present])

    def flush_all(self) -> np.ndarray:
        """End every open run at the current clock and emit its queue."""
        idx = np.arange(self.width * self.height if self.opened else 0)
        emitted = self._close_runs(idx, self.now)
        self.opened = False
        return emitted
