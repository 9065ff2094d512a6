import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evc.cabac import (
    HALVE_ABOVE,
    INCREMENT,
    MAX_PREFIX,
    AdaptiveModel,
    RangeDecoder,
    RangeEncoder,
    uint_model,
    unzigzag,
    zigzag,
)


def test_zigzag_roundtrip_and_order():
    assert [zigzag(v) for v in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]
    for v in range(-1000, 1000):
        assert unzigzag(zigzag(v)) == v


def test_bit_roundtrip_random():
    rng = random.Random(7)
    bits = [int(rng.random() < 0.3) for _ in range(5000)]
    enc = RangeEncoder()
    models = [AdaptiveModel(2) for _ in range(4)]
    for i, b in enumerate(bits):
        enc.symbol(models[i % 4], b)
    blob = enc.finish()
    dec = RangeDecoder(blob)
    models = [AdaptiveModel(2) for _ in range(4)]
    assert [dec.symbol(models[i % 4]) for i in range(len(bits))] == bits
    assert dec.pos == len(blob)


def test_skewed_bits_compress():
    enc = RangeEncoder()
    model = AdaptiveModel(2)
    for _ in range(4096):
        enc.symbol(model, 0)
    blob = enc.finish()
    # a constant symbol adapts to a fraction of a bit per occurrence
    assert len(blob) < 4096 // 16


def test_context_adaptation_moves_probability():
    model = AdaptiveModel(2)
    enc = RangeEncoder()
    for _ in range(100):
        enc.symbol(model, 0)
    assert model.freq[0] > model.freq[1]
    for _ in range(300):
        enc.symbol(model, 1)
    assert model.freq[1] > model.freq[0]
    enc.finish()


def test_model_counts_halve_past_the_limit():
    model = AdaptiveModel(3)
    enc = RangeEncoder()
    peak = 0
    for _ in range(2 * HALVE_ABOVE // INCREMENT):
        enc.symbol(model, 2)
        peak = max(peak, model.total)
        assert model.total == sum(model.freq)
        assert min(model.freq) >= 1
    assert peak <= HALVE_ABOVE
    assert model.total < HALVE_ABOVE


def test_uint_roundtrip_exhaustive_small():
    enc = RangeEncoder()
    model = uint_model()
    for u in range(300):
        enc.uint(model, u)
    blob = enc.finish()
    dec = RangeDecoder(blob)
    model = uint_model()
    for u in range(300):
        assert dec.uint(model) == u


def test_uint_roundtrip_random_large():
    rng = random.Random(11)
    values = [rng.randrange(1 << rng.randrange(1, 34)) for _ in range(2000)]
    values += [0, 1, (1 << 32) - 1, (1 << 33) - 1]
    enc = RangeEncoder()
    models = [uint_model(), uint_model()]
    for i, u in enumerate(values):
        enc.uint(models[i & 1], u)
    blob = enc.finish()
    dec = RangeDecoder(blob)
    models = [uint_model(), uint_model()]
    for i, u in enumerate(values):
        assert dec.uint(models[i & 1]) == u
    assert dec.pos == len(blob)


def test_mixed_bins_and_uints_share_stream():
    enc = RangeEncoder()
    flag, model = AdaptiveModel(2), uint_model()
    for u in range(64):
        enc.symbol(flag, u & 1)
        enc.uint(model, u * 3)
    blob = enc.finish()
    dec = RangeDecoder(blob)
    flag, model = AdaptiveModel(2), uint_model()
    for u in range(64):
        assert dec.symbol(flag) == (u & 1)
        assert dec.uint(model) == u * 3


def test_skewed_classes_compress():
    # one class dominating costs far less than its offset bits alone
    enc = RangeEncoder()
    model = uint_model()
    for _ in range(2000):
        enc.uint(model, 0)
    assert len(enc.finish()) < 2000 // 32


def test_impossible_class_raises():
    enc = RangeEncoder()
    enc.uint(uint_model(), (1 << (MAX_PREFIX + 1)) - 2)
    with pytest.raises(ValueError):
        enc.uint(uint_model(), (1 << (MAX_PREFIX + 1)) - 1)


def test_corrupt_prefix_raises():
    # every coded stream opens with a zero byte
    with pytest.raises(ValueError):
        RangeDecoder(b"\xff" * 64)


def test_symbol_target_outside_total_raises():
    # a code register at the very top of the range lies past every
    # symbol's slice of the model total
    dec = RangeDecoder(b"\x00\xff\xff\xff\xff")
    with pytest.raises(ValueError):
        dec.symbol(uint_model())


def test_bypass_value_outside_range_raises():
    # the same register read as 16 bypass bits needs a 17th bit; the
    # zero tail lets renormalisation go on, so only the range check fires
    dec = RangeDecoder(b"\x00\xff\xff\xff\xff" + bytes(8))
    with pytest.raises(ValueError):
        dec.bits(16)


def test_read_past_end_raises():
    enc = RangeEncoder()
    model = uint_model()
    for u in range(50):
        enc.uint(model, u * 1000)
    blob = enc.finish()
    dec = RangeDecoder(blob[:-1])
    model = uint_model()
    with pytest.raises(ValueError):
        for _ in range(50):
            dec.uint(model)
    with pytest.raises(ValueError):
        RangeDecoder(blob[:4])


def test_empty_stream_decodes_zero_bits():
    blob = RangeEncoder().finish()
    assert blob == bytes(5)
    dec = RangeDecoder(blob)
    assert dec.pos == len(blob)
    # the stream holds nothing more: any read that needs a byte fails
    with pytest.raises(ValueError):
        dec.bits(32)


def test_carries_ripple_through_pending_bytes():
    rng = random.Random(3)
    enc = RangeEncoder()
    values = [rng.getrandbits(16) for _ in range(20000)]
    pending_seen = 0
    for v in values:
        enc.bits(v, 16)
        pending_seen = max(pending_seen, enc._pending)
    blob = enc.finish()
    assert pending_seen >= 1
    dec = RangeDecoder(blob)
    assert [dec.bits(16) for _ in values] == values
    assert dec.pos == len(blob)


_items = st.lists(st.one_of(
    st.tuples(st.just("sym"), st.integers(0, 1)),
    st.tuples(st.just("uint"), st.integers(0, 1 << 33)),
    st.integers(0, 32).flatmap(lambda n: st.tuples(
        st.just("bits"), st.just(n), st.integers(0, (1 << n) - 1))),
), max_size=200)


@settings(max_examples=200, deadline=None)
@given(_items)
def test_interleaved_items_roundtrip(items):
    enc = RangeEncoder()
    flag, model = AdaptiveModel(2), uint_model()
    for item in items:
        if item[0] == "sym":
            enc.symbol(flag, item[1])
        elif item[0] == "uint":
            enc.uint(model, item[1])
        else:
            enc.bits(item[2], item[1])
    blob = enc.finish()
    assert blob[0] == 0
    dec = RangeDecoder(blob)
    flag, model = AdaptiveModel(2), uint_model()
    for item in items:
        if item[0] == "sym":
            assert dec.symbol(flag) == item[1]
        elif item[0] == "uint":
            assert dec.uint(model) == item[1]
        else:
            assert dec.bits(item[1]) == item[2]
    assert dec.pos == len(blob)


def test_encoding_is_deterministic():
    def run():
        enc = RangeEncoder()
        model = uint_model()
        for u in range(500):
            enc.uint(model, (u * 37) % 911)
        return enc.finish()

    assert run() == run()
