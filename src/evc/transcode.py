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

A frame of constant value adds the same units every time, so a crossing's
tick follows in closed form from the units at the start of its span of
frames at one value.  The transcoder integrates a pixel only when that span
ends, and then only the crossings the queue keeps: a still pixel costs one
comparison a frame, whatever its crossings.  Given a stack of frames, it
steps through the value changes by rank rather than through the frames:
step r takes every pixel's r-th change at once, so a clip costs as many
vector steps as its busiest pixel has changes.

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
                     event_array, frame_groups)

# A group of frames holds at most this many moved pixel-frames, which
# bounds its work arrays; a frame with more is a group of its own.
_GROUP_MOVES = 1 << 14


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

    Per pixel: the run's opening value ``i0``, decimation ``d`` and first
    frame ``run_f``, the integrated ``units``, whose crossings are
    ``units >> d``, and ``last_tick``, the tick of the pixel's latest
    event, emitted or queued: an event is dated at its own tick or one
    past ``last_tick``, whichever is later.  The run's queue is
    ``first_t``, the tick of its first crossing, and ``levels``, the tick
    of each counter bit (grown in width as counts need more bits); the
    counter holds the crossings less one.
    Runs are ``opened`` all at once: every pixel opens one on the first
    frame, and ``flush_all`` closes them all.

    The work is done once per span, not once per frame.  A pixel's span is
    the frames since ``seg_f`` at one value ``seg_v``, which is also the
    value of its latest frame; ``units``, ``first_t``, ``last_tick`` and
    ``levels`` hold the state as of the span's first frame.  A stack of
    frames finds its moves, the pixel-frames whose value differs from the
    frame before, and cuts the frames into groups of a bounded number of
    moves.  In a group, step r takes each pixel's r-th move, settles the
    span it ends in closed form (``_settle``) and checks the run against
    the contrast window, which widens with the run's age; so the frame,
    the window's age and the ticks are per pixel.  Events
    come in frame, then row-major pixel order; each pixel gives its
    closing events (the queue in order, or a dark run's closing marker),
    then the marker opening its new run if it needs one.
    """

    def __init__(self, header: StreamHeader, params: ParamSet | None = None):
        header.validate()
        self.header = header
        self.params = params if params is not None else crf_params(header.crf)
        if self.params.m_v < 1:
            raise ValueError("the threshold growth interval m_v must be >= 1")
        self.width = header.width
        self.height = header.height
        self.now = 0
        self.opened = False
        n = self.width * self.height
        (self.i0, self.d, self.run_f, self.units, self.first_t,
         self.last_tick, self.seg_v, self.seg_f) = np.zeros((8, n), np.int64)
        self.levels = np.zeros((n, 8), np.int64)

    def integrate_frame(self, frames):
        """Advance every pixel by one frame (dt_ref ticks) of ``frames``,
        a height x width grid of nonnegative values in units per frame, and
        return the events of the runs it ends as an ``EVENT`` array.

        ``frames`` may also be a (k, height, width) stack.  It advances by
        each frame in turn and returns the events that frame-by-frame calls
        would return, concatenated.  Values that are not integers raise
        ValueError.
        """
        values = np.asarray(frames)
        if values.dtype.kind not in "iu":
            raise ValueError(f"{values.dtype} frame values are not integers")
        if values.ndim == 2:
            values = values[None]
        if values.ndim != 3 or values.shape[1:] != (self.height, self.width):
            raise ValueError("frame shape does not match the stream header")
        if values.dtype.kind == "i" and values.size and values.min() < 0:
            raise ValueError("frame values must be nonnegative")
        n_frames, area = len(values), self.width * self.height
        values = values.reshape(n_frames, area)
        first = self.now // self.header.dt_ref
        self.now += n_frames * self.header.dt_ref
        if n_frames and not self.opened:
            self._open(np.arange(area), values[0], first)
        # seg_v holds each pixel's value in the frame before the stack
        moved = np.empty(values.shape, bool)
        if n_frames:
            np.not_equal(values[0], self.seg_v, out=moved[0])
            np.not_equal(values[1:], values[:-1], out=moved[1:])
        chunks = [self._step_moves(values[lo:hi], moved[lo:hi], first + lo)
                  for lo, hi in frame_groups(np.count_nonzero(moved, axis=1),
                                             _GROUP_MOVES)]
        return chunks[0] if len(chunks) == 1 else np.concatenate(
            chunks, dtype=EVENT)

    def _step_moves(self, values, moved, first: int):
        """Advance the pixels through the ``moved`` entries of ``values``,
        frames ``first`` on, and return the events, in frame, then
        row-major pixel order.

        Step r takes every pixel's r-th move at once, so a step holds each
        pixel once, and each pixel's moves come in frame order.  Only a
        pixel whose value moved can close its run: its previous value lay
        in the window when it came, and the window never narrows within a
        run.
        """
        n_frames, area = values.shape
        entries = np.flatnonzero(moved)
        if not entries.size:
            return np.empty(0, EVENT)
        if n_frames == 1:
            # every move is its pixel's first: one step, and no division
            frame, idx = np.zeros_like(entries), entries
            ends = [0, entries.size]
        else:
            # an entry's rank is its pixel's count of moves up to its frame
            rank = np.cumsum(moved, axis=0,
                             dtype=np.min_scalar_type(n_frames))
            rank = rank.reshape(-1)[entries]
            entries = entries[np.argsort(rank, kind="stable")]
            ends = np.cumsum(np.bincount(rank)).tolist()
            frame, idx = np.divmod(entries, area)
        v = values.reshape(-1)[entries]
        dt = self.header.dt_ref
        p = self.params
        parts = []
        for lo, hi in zip(ends, ends[1:]):
            pix, at, val = idx[lo:hi], first + frame[lo:hi], v[lo:hi]
            self._settle(pix, at)
            self.seg_v[pix] = val
            # The window as of the previous frame: m_base, widened by one
            # every m_v frames the run has lasted, up to m_max.
            age = at - 1 - self.run_f[pix]
            window = p.m_base + np.minimum(age // p.m_v,
                                           max(p.m_max - p.m_base, 0))
            breaks = np.abs(val - self.i0[pix]) > window
            if not breaks.any():
                continue
            pix, at, val = pix[breaks], at[breaks], val[breaks]
            rows, d, t = self._close_runs(pix, at * dt, val)
            self._open(pix, val, at)
            parts.append((at[rows] - first, pix[rows], d, t))
        if not parts:
            return np.empty(0, EVENT)
        frame, pix, d, t = (np.concatenate(c) for c in zip(*parts))
        if len(parts) > 1:
            # a step's events are in order; the steps interleave
            order = np.argsort(frame * area + pix, kind="stable")
            pix, d, t = pix[order], d[order], t[order]
        y, x = np.divmod(pix, self.width)
        return event_array(x, y, d, t)

    def _open(self, idx, values, at) -> None:
        self.opened = True
        self.i0[idx] = values
        # starting_decimation, on values made positive: dark runs keep d = 0
        self.d[idx] = _bit_length(np.maximum(values, 1)) - 1
        self.run_f[idx] = at
        self.units[idx] = 0
        # The run's first crossing, in this frame since 2**d <= i0, follows
        # the frame's start and the pixel's latest event.
        self.last_tick[idx] = np.maximum(self.last_tick[idx],
                                         at * self.header.dt_ref)
        self.seg_v[idx] = values
        self.seg_f[idx] = at

    def _settle(self, idx, upto) -> None:
        """Integrate the current spans of the lit pixels among ``idx`` over
        the frames before ``upto`` (one frame per pixel) and queue their
        crossings.

        Over a span of ``k`` frames from tick ``t_s`` at value ``v``, a
        pixel goes from ``u`` units and ``a`` crossings to ``b``.  Crossing
        ``c`` reaches its boundary at tick ``raw(c)``, whatever frame it
        falls in, and ticks are kept strictly increasing, so ``tick(c) =
        max(raw(c), t0 + c - a)`` where ``t0`` is the clamped tick of
        crossing ``a``.  Only the ticks the queue keeps are computed: the
        run's first crossing, the last one, and the crossings that set the
        counter's bits during the span.  Levels of unset bits go stale;
        ``_close_runs`` never reads them.
        """
        lit = self.i0[idx] > 0
        idx, upto = idx[lit], upto[lit]
        dt = self.header.dt_ref
        v, f, u, d = (x[idx] for x in (self.seg_v, self.seg_f, self.units,
                                       self.d))
        units = u + (upto - f) * v
        self.units[idx] = units
        self.seg_f[idx] = upto
        a, b = u >> d, units >> d
        new = (b > a).nonzero()[0]
        if not new.size:
            return
        if new.size < idx.size:
            idx = idx[new]
            v, f, u, a, b, d = (x[new] for x in (v, f, u, a, b, d))
        t_s = f * dt
        # raw(c), the tick at which the units reach crossing c's boundary,
        # is t_s + (2 dt (((c + 1) << d) - u) + v) // 2v; t_s goes into
        # the numerator as a multiple of the divisor.
        twice_v = 2 * v
        num = v - 2 * dt * u + t_s * twice_v

        def raw(c):
            return (((c + 1) << d) * (2 * dt) + num) // twice_v

        t0 = np.maximum(raw(a), self.last_tick[idx] + 1)
        first = a == 0
        self.first_t[idx[first]] = t0[first]
        lag = t0 - a
        # Walk the set bits of the counter from the lowest: bit l carries
        # the tick of the count with its bits below l cleared, and the
        # walk stops at the first such crossing from before the span.
        # The first step is the last crossing, the count itself.
        todo = b - 1
        before = np.maximum(a - 1, 0)
        tick = np.maximum(raw(todo), lag + todo)
        self.last_tick[idx] = tick
        width = int(todo.max()).bit_length()
        while width > self.levels.shape[1]:
            self.levels = np.pad(self.levels,
                                 ((0, 0), (0, self.levels.shape[1])))
        while True:
            low = todo & -todo
            # A count of 0 (a run's first crossing alone) has no bits; its
            # write lands in level 0, which the run's next crossing sets.
            self.levels[idx, _bit_length(low >> 1)] = tick
            todo = todo ^ low
            live = (todo > before).nonzero()[0]
            if not live.size:
                return
            if live.size < todo.size:
                # raw reads the narrowed d, num and twice_v
                idx, todo, before, lag, d, num, twice_v = (
                    x[live] for x in (idx, todo, before, lag, d, num,
                                      twice_v))
            tick = np.maximum(raw(todo), lag + todo)

    def _close_runs(self, idx, at, values=None):
        """End the runs of pixels ``idx`` at tick ``at`` (one per pixel, or
        one for all) and return their events as (row of ``idx``, d, t)
        columns, each pixel's in emission order.

        Each pixel's queue goes out in order, or a dark run's closing
        marker; a lit run's sub-boundary remainder (``units`` past its
        last crossing's boundary, less than one event at its base
        decimation) is discarded.  A run's crossings are ``units >> d``;
        a dark run keeps both at 0.  A lit run has fired by its close, so
        ``last_tick`` dates its last event.  With ``values``, the pixels'
        new runs open at them, and a marker follows when the new run is
        dark or the old one left ticks after its last firing, which the
        new run's first event must not stretch over.
        """
        last = self.last_tick[idx]
        d = self.d[idx]
        dark = self.i0[idx] == 0
        # Zero-span markers yield to whatever else fired at the same tick.
        last = np.where(dark, np.maximum(at, last + 1), last)
        head_t = np.where(dark, last, self.first_t[idx])
        if values is None:
            marks = np.zeros(len(idx), bool)
        else:
            marks = (values == 0) | (last < at)
            # An opening marker dates the tick after the violation, so a
            # snapshot taken exactly at the violation shows the old run.
            last = np.where(marks, np.maximum(at + 1, last + 1), last)
        self.last_tick[idx] = last
        # One row of slots per pixel, in emission order: the closing head
        # (the queue's first entry, or a dark run's marker), the counter
        # bits from high to low, then the opening marker.
        high_first = np.arange(self.levels.shape[1] - 1, -1, -1)
        slots_d = np.column_stack((np.where(dark, EMPTY, d),
                                   d[:, None] + high_first,
                                   np.full(len(idx), EMPTY)))
        slots_t = np.column_stack((head_t, self.levels[idx][:, ::-1], last))
        count = np.maximum((self.units[idx] >> d) - 1, 0)
        bits = (count[:, None] >> high_first) & 1 == 1
        present = np.column_stack((np.ones(len(idx), bool), bits, marks))
        return np.nonzero(present)[0], slots_d[present], slots_t[present]

    def flush_all(self) -> np.ndarray:
        """End every open run at the current clock and emit its queue."""
        idx = np.arange(self.width * self.height if self.opened else 0)
        self._settle(idx, np.full(idx.size, self.now // self.header.dt_ref))
        rows, d, t = self._close_runs(idx, self.now)
        self.opened = False
        y, x = np.divmod(idx[rows], self.width)
        return event_array(x, y, d, t)
