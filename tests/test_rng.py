"""scalar_draws against the Philox ``Generator`` it decodes, call for call."""

import random

import numpy as np
import pytest
from oracles import mutated

import urglab.rng as rng_module
from urglab.rng import BLOCK_WORDS, derive_rng, scalar_draws

SPANS = (1, 2, 3, 7, 2048, 2049, 10**6, 3 * 2**30, 2**31 + 1, 2**32 - 5, 2**32 - 1)  # 2**31 + 1 rejects ~half


def entered_stream(seed, integers_before):
    """A stream right after a shuffle, then ``integers_before`` bounded draws;
    each draw of 32 bits flips whether a half is buffered."""
    generator = derive_rng(seed, "scalar-draws")
    generator.shuffle(np.arange(37))
    for _ in range(integers_before):
        generator.integers(10)
    return generator


def position(generator):
    """Where a Philox stream stands: its counter, buffer position and buffered half."""
    state = generator.bit_generator.state
    return state["state"]["counter"].tolist(), state["buffer_pos"], state["has_uint32"], state["uinteger"]


def first_mismatch(decoder, seed, integers_before, calls=4000):
    """Index of the first call where ``decoder`` on one stream and the
    ``Generator`` on its twin disagree, or None; also the words drawn and the
    spans drawn from.  ``integers(span)`` is held to a draw bound once per
    span, as the annealer binds its spans, and ``integers(low, high)`` to
    ``low + bounded(high - low)()`` bound afresh."""
    twin = entered_stream(seed, integers_before)
    draw_random, bounded = decoder(entered_stream(seed, integers_before))
    bound = {span: bounded(span) for span in SPANS}
    start = twin.bit_generator.state["state"]["counter"].copy()
    script = random.Random(seed)
    spans = set()
    for i in range(calls):
        if script.random() < 0.3:
            want, got = twin.random(), draw_random()
        else:
            span, low = script.choice(SPANS), script.choice((0, 1))
            spans.add(span)
            if script.random() < 0.25:  # numpy integers as bounds
                span, low = np.int64(span), np.int64(low)
            if low == 0 and script.random() < 0.5:
                want, got = twin.integers(span), bound[span]()
            else:
                high = low + span
                want, got = twin.integers(low, high), low + bounded(high - low)()
        if want != got:
            return i, None, spans
    # Philox's counter advances once per four 64-bit words
    words = 4 * int(twin.bit_generator.state["state"]["counter"][0] - start[0])
    return None, words, spans


@pytest.mark.parametrize("seed", range(4))
def test_decoder_matches_the_generator_call_for_call(seed):
    # entered right after the shuffle and after three more draws: one of the
    # two starts with a 32-bit half already buffered
    buffered = {entered_stream(seed, before).bit_generator.state["has_uint32"] for before in (0, 3)}
    assert buffered == {0, 1}
    for before in (0, 3):
        mismatch, words, spans = first_mismatch(scalar_draws, seed, before)
        assert mismatch is None
        assert words > 2 * BLOCK_WORDS  # the block was refilled
        assert spans == set(SPANS)


def high_half_first():
    """scalar_draws with its source mutated to hand out a word's high half first."""
    lines = "\n" + " " * 20  # the two statements sit on consecutive lines of one block
    low_first = lines.join(["buffered = word >> 32", "half = word & _MASK32"])
    high_first = lines.join(["buffered = word & _MASK32", "half = word >> 32"])
    return mutated(rng_module, "scalar_draws", low_first, high_first)


@pytest.mark.parametrize("before", [0, 3])
def test_negative_control_high_half_first_fails(before):
    mismatch, _, _ = first_mismatch(high_half_first(), 0, before)
    assert mismatch is not None


def test_other_bit_generators_are_refused():
    with pytest.raises(ValueError, match="Philox"):
        scalar_draws(np.random.Generator(np.random.PCG64(0)))


@pytest.mark.parametrize("low,high", [(2**32, None), (1, 2**32 + 1), (0, 2**40), (3, 3), (5, 2)])
def test_spans_outside_32_bits_are_refused(low, high):
    _, bounded = scalar_draws(derive_rng(0, "scalar-draws"))
    span = low if high is None else high - low
    with pytest.raises(ValueError, match="span"):
        bounded(span)


@pytest.mark.parametrize("span", [0, 2**32, -3, 2.0])
def test_bad_spans_are_refused_before_any_word_is_read(span):
    twin, generator = entered_stream(0, 3), entered_stream(0, 3)  # a half is buffered
    _, bounded = scalar_draws(generator)
    at = position(generator)
    with pytest.raises(ValueError, match="span"):
        bounded(span)
    assert position(generator) == at
    assert bounded(7)() == twin.integers(7)  # the buffered half is still served first


@pytest.mark.parametrize("before", [0, 3])
def test_span_one_draws_nothing(before):
    twin, generator = entered_stream(0, before), entered_stream(0, before)
    draw_random, bounded = scalar_draws(generator)
    at = position(generator)
    one = bounded(1)
    assert [one() for _ in range(5)] == [0] * 5 == [twin.integers(1) for _ in range(5)]
    assert position(generator) == at == position(twin)
    assert bounded(7)() == twin.integers(7)
    assert draw_random() == twin.random()
