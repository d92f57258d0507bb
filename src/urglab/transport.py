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
``WindowGraph.mirror``.  ``norm_bound_check`` verifies the gradient norm
estimate

    (1/n) * sum |f(u) - f(v)|  <=  2 D * (1/n) * sum |f(u)|

for vertex functions f, where D is the window's degree bound.  Like a
transport, a vertex function is one float64 array (``VertexFunction.values``,
one value per vertex) held to its ``radius`` by the tests' ball forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .colourings import Colouring
from .graphs import WindowGraph


@dataclass(frozen=True)
class VertexFunction:
    """Values at the vertices of a window, each a function of the coloured
    radius-``radius`` ball around the vertex.

    ``values(w, c)`` returns one float64 per vertex of ``w``.
    """

    name: str
    radius: int
    values: Callable[[WindowGraph, Colouring], np.ndarray]


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


@dataclass(frozen=True)
class NormBoundReport:
    lhs_norm: float
    rhs_bound: float
    holds: bool


def _sum_left_to_right(values: np.ndarray) -> float:
    """0.0 + values[0] + values[1] + ..., one addition at a time, as a float
    loop adds them: the summation order fixes the reported bytes.  ``cumsum``
    accumulates strictly in order, where ``np.sum`` would add pairwise."""
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def mtp_check(w: WindowGraph, c, f: TransportFunction) -> MTPReport:
    """Outflow vs inflow average of ``f``; negative and non-finite values are rejected.

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
    diff = abs(lhs - rhs)
    return MTPReport(lhs, rhs, diff, w.n, exact=diff <= 1e-9 * max(lhs, 1.0))


def f_arrow(f_vertex: VertexFunction, signed: bool = False) -> TransportFunction:
    """Edge difference f(u) - f(v) of a vertex function.

    The absolute version (default) is the nonnegative transport used in the
    gradient norm bound; ``signed=True`` exposes the raw difference, which
    is *not* admissible for ``mtp_check`` unless f is constant.
    """

    def entries(w: WindowGraph, c) -> np.ndarray:
        fv = vertex_values(w, c, f_vertex)
        src, dst = w.edge_arrays
        diff = fv[src] - fv[dst]
        return diff if signed else np.abs(diff)

    suffix = "signed" if signed else "abs"
    return TransportFunction(f"grad[{f_vertex.name}]:{suffix}", f_vertex.radius + 1, entries)


def vertex_values(w: WindowGraph, c, f_vertex: VertexFunction) -> np.ndarray:
    """``f_vertex`` at every vertex; a wrong shape or a non-finite value is rejected."""
    values = np.asarray(f_vertex.values(w, c), dtype=np.float64)
    if values.shape != (w.n,):
        raise ValueError(f"vertex function {f_vertex.name!r} returned {values.shape} values for {w.n} vertices")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"vertex function {f_vertex.name!r} returned {float(values[bad[0]])!r} at vertex {bad[0]}; "
                         "values must be finite")
    return values


def norm_bound_check(w: WindowGraph, c, f_vertex: VertexFunction) -> NormBoundReport:
    """Gradient L1 norm against the 2 * D * ||f||_1 ceiling."""
    values = vertex_values(w, c, f_vertex)
    src, dst = w.edge_arrays
    lhs = float(np.abs(values[src] - values[dst]).sum()) / w.n
    rhs = 2.0 * w.degree_bound * float(np.abs(values).sum()) / w.n
    return NormBoundReport(lhs, rhs, holds=lhs <= rhs + 1e-12)


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


def root_colour_function(colour: int = 1) -> VertexFunction:
    return VertexFunction(f"colour-indicator[{colour}]", 0,
                          lambda w, c: (c.colours == colour).astype(np.float64))


def _incidences(w: WindowGraph, keep: np.ndarray) -> np.ndarray:
    """Per vertex, its non-loop entries where ``keep`` holds, with multiplicity."""
    src, dst = w.edge_arrays
    return np.bincount(src[keep & (src != dst)], minlength=w.n)


def neighbour_colour_count(colour: int = 1) -> VertexFunction:
    """Number of root neighbours carrying ``colour`` (with multiplicity; loops never count)."""
    return VertexFunction(f"neighbour-count[{colour}]", 1,
                          lambda w, c: _incidences(w, c.colours[w.indices] == colour).astype(np.float64))


def feature_mix_function(coeffs: tuple[float, float, float, float], name: str = "mix") -> VertexFunction:
    """a*[root colour 1] + b*deg(root) + c*#bichromatic root incidences + d*|ball|.

    A cheap family of radius-1 ball functions for fuzzing; integer coeffs
    give integer-valued f.  |ball| counts the root and its distinct
    non-loop neighbours.
    """
    a, b_, c_, d_ = coeffs

    def values(w: WindowGraph, c: Colouring) -> np.ndarray:
        src, dst = w.edge_arrays
        bichrom = _incidences(w, c.colours[src] != c.colours[dst])
        ball_size = 1 + np.bincount(np.unique((src * w.n + dst)[src != dst]) // w.n, minlength=w.n)
        return a * (c.colours == 1).astype(np.float64) + b_ * np.diff(w.indptr) + c_ * bichrom + d_ * ball_size

    return VertexFunction(name, 1, values)


BUILTIN_TRANSPORTS: dict[str, Callable[..., TransportFunction]] = {
    "constant": constant_transport,
    "source-colour": source_colour_indicator,
    "bichromatic": bichromatic_indicator,
    "degree-weighted": degree_weighted_indicator,
}
