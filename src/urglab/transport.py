"""Mass transport on finite windows.

An edge transport assigns a nonnegative value to each directed edge (u, v),
computed *only* from the coloured ball around u: the evaluator is handed
the ball and nothing else, so locality holds by construction.  On a finite
window with uniform vertex weights, the outflow average

    lhs = (1/n) * sum over directed edges (u,v) of f(u, v)

and the inflow average rhs (same sum with f(v, u)) are the same finite sum
reindexed, so they must agree to roundoff.  ``mtp_check`` verifies that in
one pass over the window's directed entries, with one ball alive at a time:
rhs reads f(v, u) as the value of the entry's ``WindowGraph.mirror``.
``norm_bound_check`` verifies the gradient norm estimate

    (1/n) * sum |f(u) - f(v)|  <=  2 D * (1/n) * sum |f(u)|

for vertex functions f, where D is the window's degree bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .balls import RootedBall, ball
from .graphs import WindowGraph


@dataclass(frozen=True)
class VertexFunction:
    """Value at a vertex computed from its radius-r coloured ball."""

    name: str
    radius: int
    evaluate: Callable[[RootedBall], float]


@dataclass(frozen=True)
class TransportFunction:
    """Value on a directed edge (u, v), computed from the ball around u.

    ``evaluate(ball_u, v_local)`` receives the ball around u (radius at
    least max(radius, 1), so v is always present) and v's local index.
    """

    name: str
    radius: int
    evaluate: Callable[[RootedBall, int], float]


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


def mtp_check(w: WindowGraph, c, f: TransportFunction) -> MTPReport:
    """Outflow vs inflow average of ``f``; negative values are rejected.

    One pass over the vertices builds each ball, evaluates ``f`` on the
    vertex's directed entries in row order and drops the ball, so one ball
    is alive at a time.  lhs adds those values in row order; rhs adds, in
    the same order, the value of each entry's ``mirror``.  The two sums run
    over the same directed edge set in opposite roles, so any disagreement
    beyond roundoff is a bug in the transport evaluation.
    """
    r = max(f.radius, 1)
    values: list[float] = []  # f on each directed entry, in row order
    for u in range(w.n):
        b = ball(w, c, u, r)
        row_values: dict[int, float] = {}  # parallel entries share one evaluation
        for v in b.rows[0]:  # r >= 1, so the root's row holds every entry of u, in row order
            if v not in row_values:
                val = row_values[v] = float(f.evaluate(b, v))
                if val < 0:
                    raise ValueError(f"transport {f.name!r} returned a negative value at {(u, v)}")
            values.append(row_values[v])
    # left-to-right float loops: the summation order fixes the reported bytes
    lhs = 0.0
    for val in values:
        lhs += val
    rhs = 0.0
    for e in w.mirror.tolist():
        rhs += values[e]
    lhs /= w.n
    rhs /= w.n
    diff = abs(lhs - rhs)
    return MTPReport(lhs, rhs, diff, w.n, exact=diff <= 1e-9 * max(lhs, 1.0))


def f_arrow(f_vertex: VertexFunction, signed: bool = False) -> TransportFunction:
    """Edge difference f(u) - f(v) of a vertex function.

    The absolute version (default) is the nonnegative transport used in the
    gradient norm bound; ``signed=True`` exposes the raw difference, which
    is *not* admissible for ``mtp_check`` unless f is constant.
    """
    r = f_vertex.radius

    def evaluate(b: RootedBall, v_local: int) -> float:
        fu = f_vertex.evaluate(b.ball(0, r))
        fv = f_vertex.evaluate(b.ball(v_local, r))
        return (fu - fv) if signed else abs(fu - fv)

    suffix = "signed" if signed else "abs"
    return TransportFunction(f"grad[{f_vertex.name}]:{suffix}", r + 1, evaluate)


def vertex_values(w: WindowGraph, c, f_vertex: VertexFunction) -> np.ndarray:
    return np.asarray(
        [float(f_vertex.evaluate(ball(w, c, u, f_vertex.radius))) for u in range(w.n)]
    )


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
    if value < 0:
        raise ValueError("constant transport must be nonnegative")
    return TransportFunction(f"constant[{value}]", 0, lambda b, v: value)


def source_colour_indicator(colour: int = 1) -> TransportFunction:
    """f(u, v) = 1 when u carries ``colour``."""
    return TransportFunction(
        f"source-colour[{colour}]", 0, lambda b, v: 1.0 if b.colours[0] == colour else 0.0
    )


def bichromatic_indicator() -> TransportFunction:
    """f(u, v) = 1 when the endpoint colours differ."""
    return TransportFunction(
        "bichromatic", 0, lambda b, v: 1.0 if b.colours[0] != b.colours[v] else 0.0
    )


def degree_weighted_indicator(colour: int = 1) -> TransportFunction:
    """f(u, v) = deg(u) * [u has ``colour``]."""

    def evaluate(b: RootedBall, v_local: int) -> float:
        return float(b.degree(0)) if b.colours[0] == colour else 0.0

    return TransportFunction(f"degree-weighted[{colour}]", 1, evaluate)


def root_colour_function(colour: int = 1) -> VertexFunction:
    return VertexFunction(
        f"colour-indicator[{colour}]", 0, lambda b: 1.0 if b.colours[0] == colour else 0.0
    )


def neighbour_colour_count(colour: int = 1) -> VertexFunction:
    """Number of root neighbours carrying ``colour`` (with multiplicity)."""

    def evaluate(b: RootedBall) -> float:
        return float(
            sum(m for j, m in b.neighbour_counts[0].items() if b.colours[j] == colour and j != 0)
        )

    return VertexFunction(f"neighbour-count[{colour}]", 1, evaluate)


def feature_mix_function(coeffs: tuple[float, float, float, float], name: str = "mix") -> VertexFunction:
    """a*[root colour 1] + b*deg(root) + c*#bichromatic root incidences + d*|ball|.

    A cheap family of radius-1 ball functions for fuzzing; integer coeffs
    give integer-valued f.
    """
    a, b_, c_, d_ = coeffs

    def evaluate(b: RootedBall) -> float:
        root_col = 1.0 if b.colours[0] == 1 else 0.0
        bichrom = sum(
            m for j, m in b.neighbour_counts[0].items() if j != 0 and b.colours[j] != b.colours[0]
        )
        return a * root_col + b_ * b.degree(0) + c_ * bichrom + d_ * b.n

    return VertexFunction(name, 1, evaluate)


BUILTIN_TRANSPORTS: dict[str, Callable[..., TransportFunction]] = {
    "constant": constant_transport,
    "source-colour": source_colour_indicator,
    "bichromatic": bichromatic_indicator,
    "degree-weighted": degree_weighted_indicator,
}
