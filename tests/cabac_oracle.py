"""Per-symbol reference for ``evc.cabac``.

``RangeEncoder`` and ``RangeDecoder`` code one symbol, uint or run of
bypass bits per method call through an ``AdaptiveModel`` object, the
form ``evc.cabac.encode`` and ``evc.cabac.decoder`` flatten into one
loop each.  They are kept as the oracle the flat loops must equal byte
for byte, value for value and error for error.
"""

from __future__ import annotations

import random

from evc.cabac import (
    BYPASS_CHUNK,
    FLAG,
    GROUP_BITS,
    GROUPS,
    HALVE_ABOVE,
    INCREMENT,
    INITIAL_COUNT,
    MAX_PREFIX,
)

_TOP = 1 << 24
_MASK = 0xFFFFFFFF
# flush pushes the four bytes of low through the cache, one more than the
# decoder's code register primes past the leading zero
_FLUSH_SHIFTS = 5


class AdaptiveModel:
    """Symbol counts for an alphabet of ``size`` symbols."""

    __slots__ = ("freq", "total")

    def __init__(self, size):
        self.freq = [INITIAL_COUNT] * size
        self.total = INITIAL_COUNT * size

    def update(self, s):
        self.freq[s] += INCREMENT
        self.total += INCREMENT
        if self.total > HALVE_ABOVE:
            self.freq = [(f + 1) >> 1 for f in self.freq]
            self.total = sum(self.freq)


def uint_model():
    """Model over the Elias-gamma classes of uint()."""
    return AdaptiveModel(MAX_PREFIX + 1)


class RangeEncoder:
    """Codes symbols, uints and bypass bits; call finish() exactly once."""

    __slots__ = ("low", "range", "_cache", "_pending", "_out")

    def __init__(self):
        self.low = 0
        self.range = _MASK
        self._cache = 0
        self._pending = 0
        self._out = bytearray()

    def _shift_low(self):
        low = self.low
        if low < 0xFF000000 or low > _MASK:
            carry = low >> 32
            self._out.append((self._cache + carry) & 0xFF)
            if self._pending:
                self._out += bytes(((0xFF + carry) & 0xFF,)) * self._pending
                self._pending = 0
            self._cache = (low >> 24) & 0xFF
        else:
            # top byte 0xFF: a later carry may still ripple through it
            self._pending += 1
        self.low = (low << 8) & _MASK

    def _normalize(self, rng):
        while rng < _TOP:
            rng <<= 8
            self._shift_low()
        self.range = rng

    def symbol(self, model, s):
        freq = model.freq
        r = self.range // model.total
        self.low += r * sum(freq[:s])
        self._normalize(r * freq[s])
        model.update(s)

    def bits(self, value, n):
        """Write the low n bits of value, most significant first."""
        while n:
            step = n if n < BYPASS_CHUNK else BYPASS_CHUNK
            n -= step
            rng = self.range >> step
            self.low += rng * ((value >> n) & ((1 << step) - 1))
            self._normalize(rng)

    def uint(self, model, u):
        """Elias-gamma write of u >= 0: class symbol, then offset bits."""
        k = (u + 1).bit_length() - 1
        if k > MAX_PREFIX:
            raise ValueError(f"{u} exceeds the largest Elias-gamma class")
        self.symbol(model, k)
        if k:
            self.bits(u + 1, k)

    def finish(self):
        for _ in range(_FLUSH_SHIFTS):
            self._shift_low()
        return bytes(self._out)


class RangeDecoder:
    """Inverse of RangeEncoder; raises ValueError on undecodable input.

    A corrupt stream shows as a nonzero first byte, a symbol target
    beyond the model's total, a bypass value wider than its bit count,
    or a read past the end.
    """

    __slots__ = ("range", "code", "pos", "_data")

    def __init__(self, data):
        if len(data) < _FLUSH_SHIFTS:
            raise ValueError("read past the end of the payload")
        if data[0]:
            raise ValueError("coded stream does not start with a zero byte")
        self._data = data
        self.code = int.from_bytes(data[1:_FLUSH_SHIFTS], "big")
        self.range = _MASK
        self.pos = _FLUSH_SHIFTS

    def _normalize(self, code, rng):
        data = self._data
        while rng < _TOP:
            pos = self.pos
            if pos >= len(data):
                raise ValueError("read past the end of the payload")
            code = (code << 8) | data[pos]
            self.pos = pos + 1
            rng <<= 8
        self.code = code
        self.range = rng

    def symbol(self, model):
        freq = model.freq
        total = model.total
        r = self.range // total
        code = self.code
        target = code // r
        if target >= total:
            raise ValueError("symbol target outside the model total")
        s = 0
        cum = 0
        f = freq[0]
        while cum + f <= target:
            cum += f
            s += 1
            f = freq[s]
        self._normalize(code - r * cum, r * f)
        model.update(s)
        return s

    def bits(self, n):
        value = 0
        while n:
            step = n if n < BYPASS_CHUNK else BYPASS_CHUNK
            n -= step
            rng = self.range >> step
            v = self.code // rng
            if v >> step:
                raise ValueError("bypass bits outside the coded range")
            value = (value << step) | v
            self._normalize(self.code - v * rng, rng)
        return value

    def uint(self, model):
        k = self.symbol(model)
        if not k:
            return 0
        return (1 << k) + self.bits(k) - 1



def fresh_models():
    """One model per group, laid out as ``evc.cabac`` lays out its counts."""
    return [AdaptiveModel(2) if g == FLAG else uint_model()
            for g in range(GROUPS)]


def encode_items(items):
    """The oracle's bytes for packed ``value << GROUP_BITS | group`` items."""
    enc = RangeEncoder()
    models = fresh_models()
    for item in items:
        g, value = item & ((1 << GROUP_BITS) - 1), item >> GROUP_BITS
        if g == FLAG:
            enc.symbol(models[g], value)
        else:
            enc.uint(models[g], value)
    return enc.finish()


def decode_runs(data, runs):
    """(values, error message or None, bytes consumed) of the oracle reading
    ``runs`` of ``(group, n, stop)`` as ``evc.cabac.decoder``'s reader
    does, one value at a time: the values of the runs read whole, up to
    the first ValueError."""
    values = []
    try:
        dec = RangeDecoder(data)
        models = fresh_models()
        for g, n, stop in runs:
            run = []
            while n:
                run.append(dec.symbol(models[g]) if g == FLAG
                           else dec.uint(models[g]))
                if stop is None or run[-1] == stop:
                    n -= 1
            values += run
    except ValueError as exc:
        return values, str(exc), None
    return values, None, dec.pos


def carrying_items(group, run=4, seed=0, at_flush=False, limit=1000):
    """Packed items whose coding, on fresh models, carries through a run of
    at least ``run`` pending 0xFF bytes.

    The items are class-16 uints of ``group``.  Past a few random offsets,
    whenever the coder's interval straddles 2^32 the offset is steered to
    land just below it, so the two bytes its 16-bit chunk shifts out go
    pending as 0xFF.  Once ``run`` are pending, the top offset lands past
    2^32 and the carry ripples through all of them; with ``at_flush``, a
    final flag 1 lands past 2^32 without renormalising instead, so the
    carry is left to the flush.
    """
    enc = RangeEncoder()
    models = fresh_models()
    rand = random.Random(seed)
    items = []
    while len(items) < limit:
        if (at_flush and enc._pending >= run
                and enc.low < 1 << 32 < enc.low + enc.range // 2
                and enc.range // 2 >= _TOP):
            items.append(1 << GROUP_BITS | FLAG)
            return items
        enc.symbol(models[group], 16)
        step = enc.range >> 16
        straddles = enc.low < 1 << 32 < enc.low + enc.range
        if len(items) < 10 or not straddles:
            v = rand.getrandbits(16)
        elif enc._pending < run or at_flush:
            v = min(((1 << 32) - 1 - enc.low) // step, 0xFFFF)
        else:
            v = 0xFFFF
        carries = enc._pending >= run and enc.low + step * v > _MASK
        enc.bits(v, 16)
        items.append(((1 << 16) + v - 1) << GROUP_BITS | group)
        if carries and not at_flush:
            return items
    raise RuntimeError(f"no carry within {limit} items")
