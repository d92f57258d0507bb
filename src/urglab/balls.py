"""Rooted coloured balls.

A ball is the induced subgraph on all vertices within graph distance r of a
root, carrying vertex colours, root, and BFS distances.  The tests hold
``transport``'s edge transports and vertex functions to ball forms on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import WindowGraph


@dataclass(frozen=True, eq=False)
class RootedBall:
    """Induced ball; local vertex 0 is the root, local ids follow BFS
    discovery order over the window's rows (row order: module docstring of
    ``graphs``).  ``rows[i]`` lists i's in-ball neighbours as local ids in
    that row order, one per edge end, so a loop appears twice."""

    radius: int
    colours: tuple[int, ...]
    distances: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    original: tuple[int, ...]  # local id -> window vertex

    def __post_init__(self):
        if max(self.distances) > self.radius:
            raise ValueError("ball contains a vertex beyond its radius")

    @property
    def n(self) -> int:
        return len(self.colours)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Undirected edges (i, j), i <= j, sorted and repeated per multiplicity."""
        edges = [(i, j) for i, row in enumerate(self.rows) for j in row if i < j]
        edges += [(i, i) for i, row in enumerate(self.rows) for _ in range(row.count(i) // 2)]
        return tuple(sorted(edges))

    def degree(self, i: int) -> int:
        return len(self.rows[i])

    def ball(self, x: int, r: int) -> RootedBall:
        """Radius-r ball around local vertex x, cut inside this ball.

        It equals the window's own ball around ``original[x]`` because x lies
        within ``radius - r`` of the root, so every path the cut explores stays
        inside this ball.
        """
        if not (0 <= x < self.n):
            raise ValueError(f"root {x} out of range")
        if self.distances[x] + r > self.radius:
            raise ValueError(f"radius-{r} ball around {x} reaches beyond the radius-{self.radius} ball")
        return _cut(x, r, self.rows, self.colours, self.original)


def _cut(root: int, r: int, rows, colours, original) -> RootedBall:
    """The radius-r ball around ``root`` in a graph whose vertex x has the
    neighbours ``rows[x]`` (in row order), the colour ``colours[x]`` (all 1 when
    ``colours`` is None) and the window vertex ``original[x]`` (x itself when
    ``original`` is None).  ``rows`` and ``colours`` are indexed per vertex,
    so they should be Python sequences, not arrays."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    order, local, distances = [root], {root: 0}, [0]
    start = 0
    for d in range(1, r + 1):  # one BFS layer per pass: order[start:end] lies at distance d - 1
        end = len(order)
        for x in order[start:end]:
            for y in rows[x]:
                if y not in local:
                    local[y] = len(order)
                    order.append(y)
        if len(order) == end:
            break  # no vertex at distance d, so none further out
        distances += [d] * (len(order) - end)
        start = end
    return RootedBall(
        radius=r,
        colours=(1,) * len(order) if colours is None else tuple([colours[x] for x in order]),
        distances=tuple(distances),
        rows=tuple([tuple([local[y] for y in rows[x] if y in local]) for x in order]),
        original=tuple(order) if original is None else tuple([original[x] for x in order]),
    )


def ball(w: WindowGraph, colouring, u: int, r: int) -> RootedBall:
    """Radius-r ball around u with colour marks (all-1 marks when colouring is None)."""
    if not (0 <= u < w.n):
        raise ValueError(f"root {u} out of range")
    colours = None if colouring is None else colouring.colour_list
    return _cut(u, r, w.neighbour_rows, colours, None)
