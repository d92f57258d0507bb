"""Mass transport on finite windows.

An edge transport assigns a nonnegative value to each directed edge (u, v):
``TransportFunction.entries`` returns them as one float64 array over the
window's directed entries, in row order.  ``radius`` states the locality
(f(u, v) reads only the coloured radius-max(radius, 1) ball around u); the
test suite holds every transport here to it by bit-for-bit equality with a
ball form evaluated on fresh balls.  On a finite window with uniform vertex
weights, the outflow average

    lhs = (1/n) * sum over directed edges (u,v) of f(u, v)

and the inflow average rhs (same sum with f(v, u)) are the same finite sum
reindexed, so they must agree to roundoff.  ``mtp_check`` verifies that on
the entry array: rhs reads f(v, u) as the value of the entry's
``WindowGraph.mirror``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .colourings import Colouring
from .graphs import WindowGraph


@dataclass(frozen=True)
class TransportFunction:
    """Values on the directed edges (u, v) of a window, each a function of
    the coloured radius-``max(radius, 1)`` ball around u.

    ``entries(w, c)`` returns one float64 per directed entry of ``w``, in row
    order (the order of ``w.edge_arrays``).
    """

    name: str
    radius: int
    entries: Callable[[WindowGraph, Colouring], np.ndarray]


@dataclass(frozen=True)
class MTPReport:
    lhs: float
    rhs: float
    abs_diff: float
    n: int
    exact: bool  # |lhs - rhs| <= 1e-9 * max(lhs, 1)


def _sum_left_to_right(values: np.ndarray) -> float:
    """0.0 + values[0] + values[1] + ..., one addition at a time, as a float
    loop adds them: the summation order fixes the reported bytes.  ``cumsum``
    accumulates strictly in order, where ``np.sum`` would add pairwise.  A sum
    past the largest float comes back as inf without a warning; ``mtp_check``
    raises on it."""
    with np.errstate(over="ignore"):
        return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def mtp_check(w: WindowGraph, c, f: TransportFunction) -> MTPReport:
    """Outflow vs inflow average of ``f``; negative and non-finite values, and sums
    that overflow, are rejected.

    lhs adds ``f``'s entry values in row order; rhs adds, in the same order,
    the value of each entry's ``mirror``.  The two sums run over the same
    directed edge set in opposite roles, so any disagreement beyond roundoff
    is a bug in the transport evaluation.
    """
    values = np.asarray(f.entries(w, c), dtype=np.float64)
    if values.shape != w.indices.shape:
        raise ValueError(f"transport {f.name!r} returned {values.shape} values for {w.indices.size} entries")
    bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0)))
    if bad.size:
        src, dst = w.edge_arrays
        e = bad[0]
        raise ValueError(f"transport {f.name!r} returned {float(values[e])!r} at {(int(src[e]), int(dst[e]))}; "
                         "values must be finite and nonnegative")
    lhs = _sum_left_to_right(values) / w.n
    rhs = _sum_left_to_right(values[w.mirror]) / w.n
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError(f"transport {f.name!r} sums to {lhs!r} out and {rhs!r} in; the sums must be finite")
    diff = abs(lhs - rhs)
    return MTPReport(lhs, rhs, diff, w.n, exact=diff <= 1e-9 * max(lhs, 1.0))


# ----------------------------------------------------------------------
# Named built-ins (CLI transport specs and fuzzing building blocks)
# ----------------------------------------------------------------------


def constant_transport(value: float = 1.0) -> TransportFunction:
    if not 0 <= value < math.inf:
        raise ValueError("constant transport must be finite and nonnegative")
    return TransportFunction(f"constant[{value}]", 0,
                             lambda w, c: np.full(w.indices.size, value, dtype=np.float64))


def source_colour_indicator(colour: int = 1) -> TransportFunction:
    """f(u, v) = 1 when u carries ``colour``."""
    return TransportFunction(f"source-colour[{colour}]", 0,
                             lambda w, c: (c.colours[w.edge_arrays[0]] == colour).astype(np.float64))


def bichromatic_indicator() -> TransportFunction:
    """f(u, v) = 1 when the endpoint colours differ."""
    return TransportFunction("bichromatic", 0,
                             lambda w, c: (c.colours[w.edge_arrays[0]] != c.colours[w.indices]).astype(np.float64))


def degree_weighted_indicator(colour: int = 1) -> TransportFunction:
    """f(u, v) = deg(u) * [u has ``colour``]."""

    def entries(w: WindowGraph, c: Colouring) -> np.ndarray:
        src = w.edge_arrays[0]
        return np.where(c.colours[src] == colour, np.diff(w.indptr)[src], 0.0)

    return TransportFunction(f"degree-weighted[{colour}]", 1, entries)


BUILTIN_TRANSPORTS: dict[str, Callable[..., TransportFunction]] = {
    "constant": constant_transport,
    "source-colour": source_colour_indicator,
    "bichromatic": bichromatic_indicator,
    "degree-weighted": degree_weighted_indicator,
}
