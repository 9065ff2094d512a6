"""Adaptive range coding over byte strings.

A byte-oriented range coder after the LZMA SDK ``rc``: a 32-bit range
that renormalises a byte at a time whenever it falls below 2^24, with
carries resolved through a cached byte plus a count of pending 0xFF
bytes.  The first byte of every coded stream is therefore 0, and a
decoder consumes a valid stream exactly to its last byte.

Symbols come from adaptive frequency models in the manner of Witten,
Neal & Cleary (CACM 1987): every coded symbol adds INCREMENT to its
count, and all counts halve once the total passes HALVE_ABOVE, so
recent statistics dominate.

A coded sequence is a run of ``(group, value)`` items, each group with
its own model, fresh for every sequence.  Group FLAG codes its value (0
or 1) as one symbol of a two-symbol model.  Every other group codes an
unsigned integer as an Elias-gamma code: the magnitude class
``k = bitlen(u + 1) - 1`` is one symbol of the group's model, and the k
offset bits below the leading one go out as equiprobable bypass bits,
up to 16 per coding step.  ``encode`` takes the items packed as
``value << GROUP_BITS | group`` and codes them in one loop; ``decoder``
returns a reader that decodes one run of a group's values per call, in
one loop over the run.
"""

from __future__ import annotations

from array import array

import numpy as np

# Elias-gamma classes beyond this are impossible for any value the codec
# writes; a uint model's alphabet is the classes 0..MAX_PREFIX
MAX_PREFIX = 40

INCREMENT = 24
HALVE_ABOVE = 1 << 16
INITIAL_COUNT = 1

BYPASS_CHUNK = 16

FLAG = 0
GROUPS = 3
GROUP_BITS = 2

_TOP = 1 << 24
_MASK = 0xFFFFFFFF
# the decoder's code register primes on the four bytes after the leading
# zero, so a coded stream is never shorter than five bytes
_PRIME = 5


def _models():
    """Fresh (counts, totals) of every group's model."""
    freqs = [[INITIAL_COUNT] * (2 if g == FLAG else MAX_PREFIX + 1)
             for g in range(GROUPS)]
    return freqs, [sum(freq) for freq in freqs]


def encode(items):
    """Code a sequence of packed ``value << GROUP_BITS | group`` items."""
    freqs, totals = _models()
    out = bytearray()
    low, rng, cache, pending = 0, _MASK, 0, 0
    group_mask = (1 << GROUP_BITS) - 1
    for item in items:
        g = item & group_mask
        u = (item >> GROUP_BITS) + 1
        if g == FLAG:
            k, n = u - 1, 0
        else:
            n = k = u.bit_length() - 1
            if k > MAX_PREFIX:
                raise ValueError(
                    f"{u - 1} exceeds the largest Elias-gamma class")
        freq = freqs[g]
        total = totals[g]
        r = rng // total
        if k:
            low += r * sum(freq[:k])
        rng = r * freq[k]
        freq[k] += INCREMENT
        total += INCREMENT
        if total > HALVE_ABOVE:
            freq[:] = [(f + 1) >> 1 for f in freq]
            total = sum(freq)
        totals[g] = total
        # renormalise, then code the next chunk of offset bits, if any
        while True:
            while rng < _TOP:
                rng <<= 8
                if low < 0xFF000000 or low > _MASK:
                    carry = low >> 32
                    out.append((cache + carry) & 0xFF)
                    if pending:
                        out += bytes(((0xFF + carry) & 0xFF,)) * pending
                        pending = 0
                    cache = (low >> 24) & 0xFF
                else:
                    # top byte 0xFF: a later carry may still ripple through
                    pending += 1
                low = (low << 8) & _MASK
            if not n:
                break
            step = n if n < BYPASS_CHUNK else BYPASS_CHUNK
            n -= step
            rng >>= step
            low += rng * ((u >> n) & ((1 << step) - 1))
    # flush: the cached byte takes the last carry, then low's four bytes
    carry = low >> 32
    out.append((cache + carry) & 0xFF)
    out += bytes(((0xFF + carry) & 0xFF,)) * pending
    out += (low & _MASK).to_bytes(4, "big")
    return bytes(out)


def decoder(data):
    """Reader over a coded sequence; returns ``(read, consumed)``.

    ``read(g, n, stop=None)`` decodes a run of group g's values into an
    ``array("Q")``: n values, or with ``stop`` given, the values up to
    and including the n-th one equal to ``stop``.  ``consumed()``
    counts the bytes read so far.  Undecodable input raises ValueError:
    a corrupt stream shows as a nonzero first byte, a symbol target
    beyond the model's total, a bypass value wider than its bit count,
    or a read past the end.
    """
    if len(data) < _PRIME:
        raise ValueError("read past the end of the payload")
    if data[0]:
        raise ValueError("coded stream does not start with a zero byte")
    freqs, totals = _models()
    # (code register, range, read position) between runs
    state = [int.from_bytes(data[1:_PRIME], "big"), _MASK, _PRIME]
    end = len(data)

    def read(g, n, stop=None):
        out = array("Q")
        put = out.append
        freq, total = freqs[g], totals[g]
        uint = g != FLAG
        every = stop is None
        # the coder state lives in locals for the run; after a ValueError
        # the reader is not used again
        code, rng, pos = state
        while n:
            r = rng // total
            target = code // r
            if target >= total:
                raise ValueError("symbol target outside the model total")
            k = 0
            f = freq[0]
            rest = target
            while f <= rest:
                rest -= f
                k += 1
                f = freq[k]
            code -= r * (target - rest)
            rng = r * f
            freq[k] += INCREMENT
            total += INCREMENT
            if total > HALVE_ABOVE:
                freq[:] = [(f + 1) >> 1 for f in freq]
                total = sum(freq)
            while rng < _TOP:
                if pos >= end:
                    raise ValueError("read past the end of the payload")
                code = (code << 8) | data[pos]
                pos += 1
                rng <<= 8
            value = k
            if uint and k:
                # the k offset bits below the leading one
                value = 1
                while k:
                    step = k if k < BYPASS_CHUNK else BYPASS_CHUNK
                    k -= step
                    rng >>= step
                    v = code // rng
                    if v >> step:
                        raise ValueError(
                            "bypass bits outside the coded range")
                    value = (value << step) | v
                    code -= v * rng
                    while rng < _TOP:
                        if pos >= end:
                            raise ValueError(
                                "read past the end of the payload")
                        code = (code << 8) | data[pos]
                        pos += 1
                        rng <<= 8
                value -= 1
            put(value)
            if every or value == stop:
                n -= 1
        state[:] = code, rng, pos
        totals[g] = total
        return out

    return read, lambda: state[2]


def zigzag(v):
    """Signed to unsigned, in place on an integer array: 0, -1, 1, -2, 2 ...
    -> 0, 1, 2, 3, 4 ..."""
    negative = v < 0
    v <<= 1
    return np.invert(v, out=v, where=negative)


def unzigzag(v):
    """Inverse of ``zigzag``, in place on an int64 array."""
    odd = np.empty(len(v), bool)
    np.bitwise_and(v, 1, out=odd, casting="unsafe")
    v >>= 1
    return np.invert(v, out=v, where=odd)
