"""Derived random streams.

Every stochastic routine in the package draws from a counter-based Philox
generator keyed by (master seed, module tag, optional trial index).  Trials
therefore get independent, reproducible streams, and a master seed pins the
whole experiment.

``ScalarDraws`` serves a stream's scalar ``random()`` and ``integers`` calls
from raw words fetched in blocks, decoded in Python to exactly the values the
``Generator``'s own calls would return; it skips numpy's per-call cost in the
balanced-partition annealer's step loop.  It reads ahead, so once a stream is
wrapped only the decoder reads it.  The tests hold it call for call to the
``Generator``, and the annealer byte for byte to a reference annealer that
draws from the ``Generator`` itself.
"""

from __future__ import annotations

import zlib

import numpy as np

BLOCK_WORDS = 1024  # raw 64-bit words fetched per ScalarDraws refill
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


class ScalarDraws:
    """The scalar draws of a Philox ``Generator``, decoded from raw words.

    ``random()`` and ``integers(high)`` / ``integers(low, high)`` return the
    values the wrapped generator's own calls would, in the same order:
    ``random()`` is ``(word >> 11) * 2**-53``, and a bounded integer is
    numpy's 32-bit Lemire multiply-shift with its rejection loop, fed by
    32-bit halves as Philox's ``next_uint32`` hands them out (a word's low
    half, then its buffered high half).  A half the generator had buffered
    when it was wrapped is served first.  Words are fetched ``BLOCK_WORDS``
    at a time, so the generator must not be read after it is wrapped.
    """

    def __init__(self, generator: np.random.Generator):
        bit_generator = generator.bit_generator
        if not isinstance(bit_generator, np.random.Philox):
            raise ValueError(f"ScalarDraws decodes Philox streams only, not {type(bit_generator).__name__}")
        state = bit_generator.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._raw = bit_generator.random_raw
        self._next_word = iter(()).__next__  # empty: the first draw fetches a block

    def _refill(self) -> int:
        self._next_word = iter(self._raw(BLOCK_WORDS).tolist()).__next__
        return self._next_word()

    def random(self) -> float:
        """A double in [0, 1), as ``Generator.random()``."""
        try:
            word = self._next_word()
        except StopIteration:
            word = self._refill()
        return (word >> 11) * 2.0**-53

    def integers(self, low: int, high: int | None = None) -> int:
        """An int in [low, high), or [0, low) without ``high``, as
        ``Generator.integers``; the span must lie in 1 .. 2**32 - 1."""
        if high is None:
            low, high = 0, low
        span = high - low
        if type(span) is not int:  # a numpy integer would wrap the 64-bit product below
            span = int(span)
        if span == 1:
            return low  # numpy draws nothing for a single value
        if not 1 < span <= _MASK32:
            raise ValueError(f"ScalarDraws.integers needs a span in 1 .. 2**32 - 1, got {span}")
        while True:  # Lemire: accept unless the low 32 bits fall under 2**32 % span
            half = self._half
            if half is None:
                try:
                    word = self._next_word()
                except StopIteration:
                    word = self._refill()
                self._half = word >> 32
                half = word & _MASK32
            else:
                self._half = None
            m = half * span
            leftover = m & _MASK32
            if leftover >= span or leftover >= (1 << 32) % span:
                return low + (m >> 32)
