"""Random d-colourings of windows: the iid and constant samplers, and
expansion.

Colour values live in 1..d.  The d = 2 case doubles as a subset/percolation
mask with colour 1 as the "in" class.  Expansion counts *directed*
bichromatic incidences per vertex (the mean number of differently-coloured
neighbours seen from a uniform root), which is twice the undirected
bichromatic edge count over n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import WindowGraph
from .rng import derive_rng

IN = 1  # subset convention for d = 2 colourings


@dataclass(frozen=True, eq=False)
class Colouring:
    window: WindowGraph
    d: int
    colours: np.ndarray

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("need at least one colour")
        arr = np.asarray(self.colours, dtype=np.int64)
        if arr.shape != (self.window.n,):
            raise ValueError("colour array length must equal the vertex count")
        if arr.size and (arr.min() < 1 or arr.max() > self.d):
            raise ValueError(f"colours must lie in 1..{self.d}")
        arr.setflags(write=False)
        object.__setattr__(self, "colours", arr)

    @cached_property
    def colour_list(self) -> list[int]:
        """``colours`` as a list: Python loops read it faster than the array."""
        return self.colours.tolist()

    def counts(self) -> np.ndarray:
        """Occurrences of each colour 1..d."""
        return np.bincount(self.colours, minlength=self.d + 1)[1:]


def subset_mask(c: Colouring) -> np.ndarray:
    if c.d != 2:
        raise ValueError("subset view needs a 2-colouring")
    return c.colours == IN


# ----------------------------------------------------------------------
# Samplers: each draws from derive_rng(seed, "colouring-sample")
# ----------------------------------------------------------------------


def sample(p, w: WindowGraph, seed: int) -> Colouring:
    """iid colours 1..len(p) with probabilities p; deterministic in (p, window, seed)."""
    p = np.asarray(p, dtype=float)
    if p.size == 0 or p.min() < 0 or abs(math.fsum(p) - 1.0) > 1e-12:
        raise ValueError("probability vector must be nonempty, nonnegative and sum to 1")
    colours = derive_rng(seed, "colouring-sample").choice(np.arange(1, p.size + 1), size=w.n, p=p)
    return Colouring(w, p.size, colours)


def sample_constant(d: int, w: WindowGraph, seed: int) -> Colouring:
    """One uniform colour of 1..d on every vertex; deterministic in (d, window, seed)."""
    if d < 1:
        raise ValueError("need at least one colour")
    colour = derive_rng(seed, "colouring-sample").integers(1, d + 1)
    return Colouring(w, d, np.full(w.n, colour, dtype=np.int64))


def expansion(c: Colouring) -> float:
    """Directed bichromatic incidences per vertex.

    Zero exactly when every connected component is monochromatic; at most
    the degree bound, with equality only if every edge is bichromatic.
    """
    src, dst = c.window.edge_arrays
    return float(np.count_nonzero(c.colours[src] != c.colours[dst])) / c.window.n


# serialization: {window_id, d, colours: run-length encoded}


def colouring_to_dict(c: Colouring) -> dict:
    runs: list[list[int]] = []
    for v in c.colour_list:
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return {"window_id": c.window.window_id, "d": c.d, "colours": runs}


def colouring_from_dict(data: dict, w: WindowGraph) -> Colouring:
    if data["window_id"] != w.window_id:
        raise ValueError("colouring was serialized for a different window")
    colours = np.concatenate([np.full(run, v, dtype=np.int64) for v, run in data["colours"]])
    return Colouring(w, data["d"], colours)
