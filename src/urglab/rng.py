"""Derived random streams.

Every stochastic routine in the package draws from a counter-based Philox
generator keyed by (master seed, module tag, optional trial index).  Trials
therefore get independent, reproducible streams, and a master seed pins the
whole experiment.
"""

from __future__ import annotations

import zlib

import numpy as np


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
