"""Tests of the codec's entropy stage: zigzag, the LEB128 varint writer and
reader, and raw LZMA over the varints.  The file keeps the name it had when
that stage was an adaptive binary range coder; each test checks, on the
LZMA stage, the property its name gave the range coder."""

import lzma
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compress_oracle import leb128, read_leb128
from evc import EVENT, StreamHeader
from evc import compress
from evc.compress import Adu, DecodeError, decode_adu, encode_adu


def inflate(blob):
    """The LEB128 body of a coded blob; raises unless the blob closes with
    LZMA's end marker."""
    return lzma.decompress(blob, lzma.FORMAT_RAW, filters=compress._FILTERS)


def roundtrip(values):
    """The chunked coder's bytes for ``values``, checked to equal one-shot
    LZMA over the scalar writer's bytes and to decode back exactly."""
    blob = compress._compress(np.array(values, np.uint64))
    assert blob == lzma.compress(leb128(values), lzma.FORMAT_RAW,
                                 filters=compress._FILTERS)
    assert compress._values(inflate(blob)).tolist() == list(values)
    return blob


def header():
    return StreamHeader(16, 16, dt_ref=255, dt_max=2550, dt_s=255 * 30,
                        crf=0)


def payload(body):
    """An ADU payload under ``header()`` whose coded part is ``body``, with
    a prefix that declares one pixel of one event: four values."""
    return compress._ADU_PREFIX.pack(0, 1, 1) + body


def test_zigzag_roundtrip_and_order():
    assert compress.zigzag(np.array([0, -1, 1, -2, 2])).tolist() == [
        0, 1, 2, 3, 4]
    values = np.r_[np.arange(-1000, 1000), -(1 << 40), (1 << 40) - 1]
    coded = compress.zigzag(values.copy())
    assert coded.min() >= 0
    assert np.array_equal(compress.unzigzag(coded), values)


def test_bit_roundtrip_random():
    rng = random.Random(7)
    roundtrip([int(rng.random() < 0.3) for _ in range(5000)])


def test_skewed_bits_compress():
    # a constant flag costs a fraction of a bit per occurrence
    assert len(roundtrip([0] * 4096)) < 4096 // 16


def test_context_adaptation_moves_probability():
    values = [0] * 100 + [1] * 300
    # once the coder has followed the switch to 1s, 300 more of them cost
    # under half a bit each
    more = roundtrip(values + [1] * 300)
    assert len(more) - len(roundtrip(values)) < 300 // 8 // 2


def test_uint_roundtrip_exhaustive_small():
    roundtrip(list(range(300)))


def test_uint_roundtrip_random_large():
    rng = random.Random(11)
    values = [rng.randrange(1 << rng.randrange(1, 64)) for _ in range(2000)]
    values += [0, 1, (1 << 32) - 1, (1 << 33) - 1, (1 << 63) - 1]
    # every byte width from 1 to 9, at and either side of each boundary
    values += [(1 << 7 * k) + o for k in range(1, 9) for o in (-1, 0, 1)]
    roundtrip(values)


def test_mixed_bins_and_uints_share_stream():
    values = []
    for u in range(64):
        values += [u & 1, u * 3 << 20]
    roundtrip(values)


def test_skewed_classes_compress():
    # one six-byte varint repeated costs far less than its bytes alone
    assert len(roundtrip([1 << 40] * 2000)) < 2000 // 32


def test_impossible_class_raises():
    # nine bytes carry 63 bits: the widest value decodes, a tenth byte
    # raises
    widest = leb128([(1 << 63) - 1])
    assert len(widest) == 9
    assert compress._values(widest).tolist() == [(1 << 63) - 1]
    wider = lzma.compress(b"\x80" * 9 + b"\x01", lzma.FORMAT_RAW,
                          filters=compress._FILTERS)
    with pytest.raises(DecodeError, match="ADU 2: varint wider than 63 bits"):
        decode_adu(payload(wider), header(), adu_index=2)


def test_corrupt_prefix_raises():
    # every LZMA stream opens with a zero byte
    with pytest.raises(DecodeError, match="ADU 3: Corrupt input data"):
        decode_adu(payload(b"\xff" * 64), header(), adu_index=3)


def test_read_past_end_raises():
    events = np.array([(0, 0, 3, 100), (0, 0, 3, 355)], EVENT)
    coded = encode_adu(Adu(0, 2550, events), header())
    assert np.array_equal(decode_adu(coded, header()), events)
    # the coded part cut short of its end marker
    with pytest.raises(DecodeError, match="read past the end"):
        decode_adu(coded[:-1], header())
    # a whole body that holds fewer values than the prefix declares
    prefix, body = (coded[:compress._ADU_PREFIX.size],
                    inflate(coded[compress._ADU_PREFIX.size:]))
    short = lzma.compress(leb128(read_leb128(body)[:-1]), lzma.FORMAT_RAW,
                          filters=compress._FILTERS)
    with pytest.raises(DecodeError, match="read past the end"):
        decode_adu(prefix + short, header())


def test_empty_stream_decodes_zero_bits():
    blob = roundtrip([])
    assert inflate(blob) == b""
    # the stream holds nothing: reading the unit's first value fails
    with pytest.raises(DecodeError, match="read past the end"):
        decode_adu(payload(blob), header())


# values of every varint width, by their number of significant bits
_wide = st.integers(0, 62).flatmap(
    lambda k: st.integers(0, (1 << k + 1) - 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 1), st.integers(0, 1 << 33),
                          _wide), max_size=200))
def test_interleaved_items_roundtrip(values):
    roundtrip(values)


def test_encoding_is_deterministic():
    values = np.array([(u * 37) % 911 for u in range(500)], np.uint64)
    assert compress._compress(values) == compress._compress(values.copy())
    events = np.array([(x, 0, 3, 100 + 7 * x) for x in range(16)], EVENT)
    adu = Adu(0, 2550, events)
    assert encode_adu(adu, header()) == encode_adu(adu, header())


@settings(max_examples=60, deadline=None)
@given(values=st.lists(_wide, max_size=300),
       chunk=st.sampled_from([1, 2, 7, 2048]),
       damage=st.sampled_from(["flip", "truncate", "extend", "widen"]),
       where=st.floats(0, 1), mask=st.integers(1, 255))
def test_flat_loops_match_the_per_symbol_oracle(values, chunk, damage, where,
                                                mask):
    # The numpy writer, the chunked coder and the numpy reader agree with
    # the one-value-at-a-time writer and reader, whatever the chunk size.
    body = leb128(values)
    array = np.array(values, np.uint64)
    assert compress._varints(array).tobytes() == body
    with mock.patch.object(compress, "_CHUNK", chunk):
        blob = compress._compress(array)
    assert blob == lzma.compress(body, lzma.FORMAT_RAW,
                                 filters=compress._FILTERS)
    assert compress._values(inflate(blob)).tolist() == values

    # A damaged body reads to the oracle's values, or to its error.
    data = bytearray(body)
    cut = int(where * len(data))
    if damage == "flip" and data:
        data[min(cut, len(data) - 1)] ^= mask
    elif damage == "truncate":
        del data[cut:]
    elif damage == "extend":
        data += bytes((mask,)) * 3
    else:
        data[cut:cut] = bytes((mask | 0x80,)) * (1 + mask % 10)
    try:
        expected = read_leb128(bytes(data))
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            compress._values(bytes(data))
    else:
        assert compress._values(bytes(data)).tolist() == expected
