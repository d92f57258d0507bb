"""ScalarDraws against the Philox ``Generator`` it decodes, call for call."""

import random

import numpy as np
import pytest
from oracles import mutated

import urglab.rng as rng_module
from urglab.rng import BLOCK_WORDS, ScalarDraws, derive_rng

SPANS = (1, 2, 3, 7, 2048, 2049, 10**6, 3 * 2**30, 2**31 + 1, 2**32 - 5, 2**32 - 1)  # 2**31 + 1 rejects ~half


def entered_stream(seed, integers_before):
    """A stream right after a shuffle, then ``integers_before`` bounded draws;
    each draw of 32 bits flips whether a half is buffered."""
    generator = derive_rng(seed, "scalar-draws")
    generator.shuffle(np.arange(37))
    for _ in range(integers_before):
        generator.integers(10)
    return generator


def first_mismatch(decoder, seed, integers_before, calls=4000):
    """Index of the first call where ``decoder`` on one stream and the
    ``Generator`` on its twin disagree, or None; also the words drawn."""
    twin = entered_stream(seed, integers_before)
    draws = decoder(entered_stream(seed, integers_before))
    start = twin.bit_generator.state["state"]["counter"].copy()
    script = random.Random(seed)
    for i in range(calls):
        if script.random() < 0.3:
            want, got = twin.random(), draws.random()
        else:
            span, low = script.choice(SPANS), script.choice((0, 1))
            if script.random() < 0.25:  # numpy integers as bounds
                span, low = np.int64(span), np.int64(low)
            if low == 0 and script.random() < 0.5:
                want, got = twin.integers(span), draws.integers(span)
            else:
                want, got = twin.integers(low, low + span), draws.integers(low, low + span)
        if want != got:
            return i, None
    # Philox's counter advances once per four 64-bit words
    words = 4 * int(twin.bit_generator.state["state"]["counter"][0] - start[0])
    return None, words


@pytest.mark.parametrize("seed", range(4))
def test_decoder_matches_the_generator_call_for_call(seed):
    # entered right after the shuffle and after three more draws: one of the
    # two starts with a 32-bit half already buffered
    buffered = {entered_stream(seed, before).bit_generator.state["has_uint32"] for before in (0, 3)}
    assert buffered == {0, 1}
    for before in (0, 3):
        mismatch, words = first_mismatch(ScalarDraws, seed, before)
        assert mismatch is None
        assert words > 2 * BLOCK_WORDS  # the block was refilled


def high_half_first():
    """ScalarDraws with its source mutated to hand out a word's high half first."""
    lines = "\n" + " " * 16  # the two statements sit on consecutive lines of one block
    low_first = lines.join(["self._half = word >> 32", "half = word & _MASK32"])
    high_first = lines.join(["self._half = word & _MASK32", "half = word >> 32"])
    return mutated(rng_module, "ScalarDraws", low_first, high_first)


@pytest.mark.parametrize("before", [0, 3])
def test_negative_control_high_half_first_fails(before):
    mismatch, _ = first_mismatch(high_half_first(), 0, before)
    assert mismatch is not None


def test_other_bit_generators_are_refused():
    with pytest.raises(ValueError, match="Philox"):
        ScalarDraws(np.random.Generator(np.random.PCG64(0)))


@pytest.mark.parametrize("low,high", [(2**32, None), (1, 2**32 + 1), (0, 2**40), (3, 3), (5, 2)])
def test_spans_outside_32_bits_are_refused(low, high):
    draws = ScalarDraws(derive_rng(0, "scalar-draws"))
    with pytest.raises(ValueError, match="span"):
        draws.integers(low, high)
