"""Derived random streams.

Every stochastic routine in the package draws from a counter-based Philox
generator keyed by (master seed, module tag, optional trial index).  Trials
therefore get independent, reproducible streams, and a master seed pins the
whole experiment.

``scalar_draws`` serves a stream's scalar ``random()`` and bounded-integer
draws from raw words fetched in blocks, decoded in Python to exactly the
values the ``Generator``'s own calls would return; it skips numpy's per-call
cost in the balanced-partition annealer's step loop.  A bounded draw is a
closure bound to its span, which is checked, and its rejection threshold
computed, once when the closure is made rather than on every draw.  The
decoder reads ahead, so once a stream is wrapped only the decoder reads it.
The tests hold it call for call to the ``Generator``, and the annealer byte
for byte to a reference annealer that draws from the ``Generator`` itself.
"""

from __future__ import annotations

import operator
import zlib
from collections.abc import Callable

import numpy as np

BLOCK_WORDS = 1024  # raw 64-bit words fetched per scalar_draws refill
_MASK32 = 0xFFFFFFFF


def _entropy(master_seed: int, tag: str, index: int | None) -> list[int]:
    if master_seed < 0:
        raise ValueError("master seed must be nonnegative")
    ent = [int(master_seed), zlib.crc32(tag.encode("utf-8"))]
    if index is not None:
        if index < 0:
            raise ValueError("stream index must be nonnegative")
        ent.append(int(index))
    return ent


def derive_rng(master_seed: int, tag: str, index: int | None = None) -> np.random.Generator:
    """Generator for the stream named by (master_seed, tag, index)."""
    seq = np.random.SeedSequence(_entropy(master_seed, tag, index))
    return np.random.Generator(np.random.Philox(seq))


def derive_seed(master_seed: int, tag: str, index: int | None = None) -> int:
    """A child integer seed, for APIs that take a seed rather than a stream."""
    seq = np.random.SeedSequence(_entropy(master_seed, tag, index))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def scalar_draws(generator: np.random.Generator) -> tuple[Callable[[], float], Callable[[int], Callable[[], int]]]:
    """The scalar draws of a Philox ``Generator``, decoded from raw words.

    Returns ``(random, bounded)``.  ``random()`` returns the double the
    generator's own ``random()`` would, ``(word >> 11) * 2**-53``.
    ``bounded(span)`` checks ``span`` once and returns a zero-argument draw
    whose calls return what ``integers(span)`` would: numpy's 32-bit Lemire
    multiply-shift with its rejection loop, fed by 32-bit halves as Philox's
    ``next_uint32`` hands them out (a word's low half, then its buffered high
    half); ``integers(low, high)`` is ``low + bounded(high - low)()``.  Both
    share one word stream and one buffered half, held in closure cells; a
    half the generator had buffered when it was wrapped is served first.
    Words are fetched ``BLOCK_WORDS`` at a time, so the generator must not be
    read after it is wrapped.
    """
    bit_generator = generator.bit_generator
    if not isinstance(bit_generator, np.random.Philox):
        raise ValueError(f"scalar_draws decodes Philox streams only, not {type(bit_generator).__name__}")
    state = bit_generator.state
    buffered = state["uinteger"] if state["has_uint32"] else None
    raw = bit_generator.random_raw
    next_word = iter(()).__next__  # empty: the first draw fetches a block

    def refill() -> int:
        nonlocal next_word
        next_word = iter(raw(BLOCK_WORDS).tolist()).__next__
        return next_word()

    def random() -> float:
        """A double in [0, 1), as ``Generator.random()``."""
        try:
            word = next_word()
        except StopIteration:
            word = refill()
        return (word >> 11) * 2.0**-53

    def bounded(span: int) -> Callable[[], int]:
        """A draw of an int in [0, span), as ``Generator.integers(span)``;
        the span must be an integer in 1 .. 2**32 - 1."""
        try:
            span = operator.index(span)  # a numpy integer would wrap the 64-bit product below
        except TypeError:
            raise ValueError(f"bounded needs an integer span, got {span!r}") from None
        if not 1 <= span <= _MASK32:
            raise ValueError(f"bounded needs a span in 1 .. 2**32 - 1, got {span}")
        if span == 1:
            return lambda: 0  # numpy draws nothing for a single value
        threshold = (1 << 32) % span  # below span, so it alone decides Lemire's rejection

        def draw() -> int:
            nonlocal buffered
            while True:
                half = buffered
                if half is None:
                    try:
                        word = next_word()
                    except StopIteration:
                        word = refill()
                    buffered = word >> 32
                    half = word & _MASK32
                else:
                    buffered = None
                m = half * span
                if m & _MASK32 >= threshold:
                    return m >> 32

        return draw

    return random, bounded
