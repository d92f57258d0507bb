"""Random d-colourings of windows: iid and constant sampling models, and
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
OUT = 2


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


def subset_colouring(window: WindowGraph, mask) -> Colouring:
    """d = 2 colouring from a boolean in-mask."""
    mask = np.asarray(mask, dtype=bool)
    return Colouring(window, 2, np.where(mask, IN, OUT))


def subset_mask(c: Colouring) -> np.ndarray:
    if c.d != 2:
        raise ValueError("subset view needs a 2-colouring")
    return c.colours == IN


# ----------------------------------------------------------------------
# Sampling models
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColouringModel:
    """How to draw a colouring: iid per vertex, or one global colour."""

    kind: str  # "bernoulli" | "constant"
    d: int
    p: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("need at least one colour")
        if self.kind == "bernoulli":
            if self.p is None or len(self.p) != self.d:
                raise ValueError("bernoulli model needs a length-d probability vector")
            if min(self.p) < 0 or abs(math.fsum(self.p) - 1.0) > 1e-12:
                raise ValueError("probability vector must be nonnegative and sum to 1")
        elif self.kind != "constant":
            raise ValueError(f"unknown colouring model kind {self.kind!r}")


def bernoulli_model(p) -> ColouringModel:
    return ColouringModel("bernoulli", len(p), p=tuple(float(x) for x in p))


def uniform_bernoulli_model(d: int) -> ColouringModel:
    return bernoulli_model([1.0 / d] * d)


def constant_model(d: int) -> ColouringModel:
    return ColouringModel("constant", d)


def sample(model: ColouringModel, w: WindowGraph, seed: int) -> Colouring:
    """Draw one colouring; deterministic in (model, window, seed)."""
    rng = derive_rng(seed, "colouring-sample")
    if model.kind == "bernoulli":
        colours = rng.choice(np.arange(1, model.d + 1), size=w.n, p=np.asarray(model.p))
    else:
        colours = np.full(w.n, rng.integers(1, model.d + 1), dtype=np.int64)
    return Colouring(w, model.d, colours)


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
