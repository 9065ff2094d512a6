import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabac_oracle import (
    RangeEncoder,
    carrying_items,
    decode_runs,
    encode_items,
    fresh_models,
    uint_model,
)
from evc.cabac import (
    FLAG,
    GROUP_BITS,
    GROUPS,
    HALVE_ABOVE,
    INCREMENT,
    MAX_PREFIX,
    decoder,
    encode,
    unzigzag,
    zigzag,
)


def pack(group, value):
    return value << GROUP_BITS | group


def roundtrip(items):
    """The flat loops' bytes for ``items``, checked to decode back exactly
    when each run of one group is read in one call."""
    blob = encode(items)
    read, consumed = decoder(blob)
    values = []
    for g, run in itertools.groupby(items, key=lambda item: item & 3):
        values += read(g, len(list(run)))
    assert values == [item >> GROUP_BITS for item in items]
    assert consumed() == len(blob)
    return blob


def read_runs(data, runs):
    """(values, error message or None, bytes consumed) of the run reader
    over ``runs`` of ``(group, n, stop)``, in the form of
    ``cabac_oracle.decode_runs``."""
    values = []
    try:
        read, consumed = decoder(data)
        for g, n, stop in runs:
            values += read(g, n, stop)
    except ValueError as exc:
        return values, str(exc), None
    return values, None, consumed()


def test_zigzag_roundtrip_and_order():
    assert zigzag(np.array([0, -1, 1, -2, 2])).tolist() == [0, 1, 2, 3, 4]
    values = np.r_[np.arange(-1000, 1000), -(1 << 40), (1 << 40) - 1]
    coded = zigzag(values.copy())
    assert coded.min() >= 0
    assert np.array_equal(unzigzag(coded), values)


def test_bit_roundtrip_random():
    rng = random.Random(7)
    items = [pack(FLAG, int(rng.random() < 0.3)) for _ in range(5000)]
    assert roundtrip(items) == encode_items(items)


def test_skewed_bits_compress():
    # a constant symbol adapts to a fraction of a bit per occurrence
    assert len(encode([pack(FLAG, 0)] * 4096)) < 4096 // 16


def test_context_adaptation_moves_probability():
    items = [pack(FLAG, 0)] * 100 + [pack(FLAG, 1)] * 300
    # once the model has followed the switch to 1s, 300 more of them cost
    # under half a bit each
    more = roundtrip(items + [pack(FLAG, 1)] * 300)
    assert len(more) - len(roundtrip(items)) < 300 // 8 // 2
    model = fresh_models()[FLAG]
    enc = RangeEncoder()
    for item in items[:100]:
        enc.symbol(model, item >> GROUP_BITS)
    assert model.freq[0] > model.freq[1]
    for item in items[100:]:
        enc.symbol(model, item >> GROUP_BITS)
    assert model.freq[1] > model.freq[0]
    assert encode(items) == encode_items(items)


def test_model_counts_halve_past_the_limit():
    items = [pack(2, 3)] * (2 * HALVE_ABOVE // INCREMENT)
    model = uint_model()
    enc = RangeEncoder()
    peak = 0
    for _ in items:
        enc.uint(model, 3)
        peak = max(peak, model.total)
        assert model.total == sum(model.freq)
        assert min(model.freq) >= 1
    assert peak <= HALVE_ABOVE
    assert model.total < HALVE_ABOVE
    # the flat loop halves at the same symbol
    assert roundtrip(items) == enc.finish()


def test_uint_roundtrip_exhaustive_small():
    roundtrip([pack(1, u) for u in range(300)])


def test_uint_roundtrip_random_large():
    rng = random.Random(11)
    values = [rng.randrange(1 << rng.randrange(1, 34)) for _ in range(2000)]
    values += [0, 1, (1 << 32) - 1, (1 << 33) - 1]
    items = [pack(1 + (i & 1), u) for i, u in enumerate(values)]
    assert roundtrip(items) == encode_items(items)


def test_mixed_bins_and_uints_share_stream():
    items = []
    for u in range(64):
        items += [pack(FLAG, u & 1), pack(1, u * 3)]
    roundtrip(items)


def test_skewed_classes_compress():
    # one class dominating costs far less than its offset bits alone
    assert len(encode([pack(1, 0)] * 2000)) < 2000 // 32


def test_impossible_class_raises():
    encode([pack(1, (1 << (MAX_PREFIX + 1)) - 2)])
    with pytest.raises(ValueError, match="largest Elias-gamma class"):
        encode([pack(1, (1 << (MAX_PREFIX + 1)) - 1)])


def test_corrupt_prefix_raises():
    # every coded stream opens with a zero byte
    with pytest.raises(ValueError, match="zero byte"):
        decoder(b"\xff" * 64)


def test_symbol_target_outside_total_raises():
    # a code register at the very top of the range lies past every
    # symbol's slice of the model total
    read, _ = decoder(b"\x00\xff\xff\xff\xff")
    with pytest.raises(ValueError, match="outside the model total"):
        read(1, 1)


def test_bypass_value_outside_range_raises():
    # this register decodes as class 40, in the top slice of the model;
    # its first 16 offset bits then fall in the sliver past the last
    # whole bypass step, and the zero tail lets renormalisation go on
    data = b"\x00\xff\xff\xd4\x70" + bytes(8)
    read, _ = decoder(data)
    with pytest.raises(ValueError, match="bypass bits outside"):
        read(1, 1)
    assert (decode_runs(data, [(1, 1, None)])[1]
            == "bypass bits outside the coded range")


def test_read_past_end_raises():
    items = [pack(1, u * 1000) for u in range(50)]
    blob = encode(items)
    read, _ = decoder(blob[:-1])
    with pytest.raises(ValueError, match="past the end"):
        read(1, len(items))
    with pytest.raises(ValueError, match="past the end"):
        decoder(blob[:4])


def test_empty_stream_decodes_zero_bits():
    blob = encode([])
    assert blob == bytes(5)
    read, consumed = decoder(blob)
    assert consumed() == len(blob)
    # the stream holds nothing more: reading on until the range needs
    # another byte fails
    with pytest.raises(ValueError, match="past the end"):
        read(1, 8)


def carried_pending(items, at_flush):
    """The most pending 0xFF bytes a carry ripples through while the oracle
    codes ``items`` (``at_flush``: only at the flush), and its bytes."""

    class Spy(RangeEncoder):
        __slots__ = ("carried", "flushing")

        def _shift_low(self):
            if self.low >> 32 and self.flushing == at_flush:
                self.carried = max(self.carried, self._pending)
            super()._shift_low()

    enc, models = Spy(), fresh_models()
    enc.carried, enc.flushing = 0, False
    for item in items:
        g, value = item & 3, item >> GROUP_BITS
        if g == FLAG:
            enc.symbol(models[g], value)
        else:
            enc.uint(models[g], value)
    enc.flushing = True
    blob = enc.finish()
    return enc.carried, blob


def test_carries_ripple_through_pending_bytes():
    items = carrying_items(2, run=4)
    carried, blob = carried_pending(items, at_flush=False)
    assert carried >= 4
    assert roundtrip(items) == blob


def test_the_flush_carries_through_pending_bytes():
    items = carrying_items(1, run=4, at_flush=True)
    carried, blob = carried_pending(items, at_flush=True)
    assert carried >= 4
    assert roundtrip(items) == blob


_items = st.lists(st.one_of(
    st.tuples(st.just(FLAG), st.integers(0, 1)),
    st.tuples(st.integers(1, GROUPS - 1), st.integers(0, 1 << 33)),
    st.integers(0, MAX_PREFIX).flatmap(lambda k: st.tuples(
        st.integers(1, GROUPS - 1),
        st.integers((1 << k) - 1, (1 << (k + 1)) - 2))),
), max_size=200)


@settings(max_examples=200, deadline=None)
@given(_items)
def test_interleaved_items_roundtrip(items):
    blob = roundtrip([pack(g, v) for g, v in items])
    assert blob[0] == 0


def test_encoding_is_deterministic():
    items = [pack(1, (u * 37) % 911) for u in range(500)]
    assert encode(items) == encode(items)


# A run repeats ``length`` values of one group, drawn from a seeded stream
# with Elias-gamma classes up to ``top``; a flag run draws 0s and 1s.
_run = st.tuples(st.integers(0, GROUPS - 1), st.integers(0, MAX_PREFIX),
                 st.integers(1, 80), st.integers(0, 1 << 32))


def _expand(group, top, length, seed):
    rand = random.Random(seed)
    if group == FLAG:
        return [pack(FLAG, rand.getrandbits(1)) for _ in range(length)]
    out = []
    for _ in range(length):
        k = rand.randint(0, top)
        out.append(pack(group, (1 << k) - 1 + rand.getrandbits(k)))
    return out


# the symbols one model takes before its total passes HALVE_ABOVE
_TO_HALVING = HALVE_ABOVE // INCREMENT + 1


def _run_read(group, values, by_stop):
    """The ``(group, n, stop)`` read that takes back a run of ``values``:
    by count, or up to the last occurrence of its final value."""
    if by_stop:
        return group, values.count(values[-1]), values[-1]
    return group, len(values), None


@settings(max_examples=40, deadline=None)
@given(carry_group=st.integers(1, GROUPS - 1),
       carry_seed=st.integers(0, 1 << 16),
       runs=st.lists(_run, max_size=10),
       halving=_run, at=st.integers(0, 10),
       by_stop=st.lists(st.booleans(), min_size=11, max_size=11),
       damage=st.sampled_from(["flip", "truncate", "first byte", "extend"]),
       where=st.floats(0, 1), mask=st.integers(1, 255))
def test_flat_loops_match_the_per_symbol_oracle(
        carry_group, carry_seed, runs, halving, at, by_stop, damage, where,
        mask):
    # Every sequence opens, on fresh models, with values that carry through
    # a run of 0xFF bytes, and holds one run long enough to halve its
    # model's counts; the other runs reach classes up to MAX_PREFIX.  The
    # reader takes each run in one call, by count or up to a stop value.
    group, top, _, seed = halving
    runs.insert(min(at, len(runs)), (group, top, _TO_HALVING + 20, seed))
    items = carrying_items(carry_group, run=2, seed=carry_seed)
    reads = [(carry_group, len(items), None)]
    for run, stop in zip(runs, by_stop):
        values = _expand(*run)
        items += values
        reads.append(_run_read(run[0], [v >> GROUP_BITS for v in values],
                               stop))

    blob = encode(items)
    assert blob == encode_items(items)
    assert read_runs(blob, reads) == ([i >> 2 for i in items], None,
                                      len(blob))

    # A damaged stream reads to the oracle's values up to the same error,
    # or to its values and length if nothing is undecodable.
    data = bytearray(blob)
    cut = int(where * (len(data) - 1))
    if damage == "flip":
        data[cut] ^= mask
    elif damage == "truncate":
        del data[cut:]
    elif damage == "first byte":
        data[0] = mask
    else:
        data += bytes((mask,)) * 3
    reads.append((mask % GROUPS, 8, None))
    assert read_runs(bytes(data), reads) == decode_runs(bytes(data), reads)
