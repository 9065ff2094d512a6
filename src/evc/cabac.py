"""Adaptive range coding over byte strings.

A byte-oriented range coder after the LZMA SDK ``rc``: a 32-bit range
that renormalises a byte at a time whenever it falls below 2^24, with
carries resolved through a cached byte plus a count of pending 0xFF
bytes.  The first byte of every coded stream is therefore 0, and a
decoder consumes a valid stream exactly to its last byte.

Symbols come from adaptive frequency models in the manner of Witten,
Neal & Cleary (CACM 1987): every coded symbol adds INCREMENT to its
count, and all counts halve once the total passes HALVE_ABOVE, so
recent statistics dominate.  Unsigned integers ride on top as an
Elias-gamma code: the magnitude class ``k = bitlen(u + 1) - 1`` is one
symbol of the model, and the k offset bits below the leading one go out
as equiprobable bypass bits, up to 16 per coding step.
"""

from __future__ import annotations

# Elias-gamma classes beyond this are impossible for any value the codec
# writes; a uint model's alphabet is the classes 0..MAX_PREFIX
MAX_PREFIX = 40

INCREMENT = 24
HALVE_ABOVE = 1 << 16
INITIAL_COUNT = 1

BYPASS_CHUNK = 16

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


def zigzag(v):
    """Signed to unsigned: 0, -1, 1, -2, 2 ... -> 0, 1, 2, 3, 4 ..."""
    return (v << 1) if v >= 0 else ((-v << 1) - 1)


def unzigzag(u):
    return (u >> 1) if (u & 1) == 0 else -((u + 1) >> 1)
