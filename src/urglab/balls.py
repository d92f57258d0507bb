"""Rooted coloured balls and their isomorphism.

A ball is the induced subgraph on all vertices within graph distance r of a
root, carrying vertex colours, root, and BFS distances.  Isomorphism of two
balls means a root-preserving, colour-preserving, multiplicity-preserving
graph isomorphism; it is decided through a canonical form built by colour
refinement plus backtracking, which is cheap because degrees are bounded.

The local similarity of two rooted windows is 2**(-r*) where r* is the
largest radius at which their balls are isomorphic.
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
        if any(d > self.radius for d in self.distances):
            raise ValueError("ball contains a vertex beyond its radius")

    @property
    def n(self) -> int:
        return len(self.colours)

    @cached_property
    def local_index(self) -> dict[int, int]:
        return {orig: i for i, orig in enumerate(self.original)}

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Undirected edges (i, j), i <= j, sorted and repeated per multiplicity."""
        edges = [(i, j) for i, row in enumerate(self.rows) for j in row if i < j]
        edges += [(i, i) for i, row in enumerate(self.rows) for _ in range(row.count(i) // 2)]
        return tuple(sorted(edges))

    @cached_property
    def neighbour_counts(self) -> tuple[dict[int, int], ...]:
        """Per local vertex, neighbour -> multiplicity; a loop counts twice."""
        counts: list[dict[int, int]] = [{} for _ in self.rows]
        for count, row in zip(counts, self.rows):
            for j in row:
                count[j] = count.get(j, 0) + 1
        return tuple(counts)

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
        return _cut(x, r, self.rows.__getitem__, self.colours, self.original)


def _cut(root: int, r: int, row, colours, original) -> RootedBall:
    """The radius-r ball around ``root`` in a graph whose vertex x has the
    neighbours ``row(x)`` (in row order), the colour ``colours[x]`` (all 1 when
    ``colours`` is None) and the window vertex ``original[x]``."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    order, local, distances = [root], {root: 0}, [0]
    for i, x in enumerate(order):  # the list grows while it is read: a BFS queue
        if distances[i] == r:
            break  # discovery order never decreases in distance
        for y in row(x):
            if y not in local:
                local[y] = len(order)
                order.append(y)
                distances.append(distances[i] + 1)
    return RootedBall(
        radius=r,
        colours=(1,) * len(order) if colours is None else tuple(int(colours[x]) for x in order),
        distances=tuple(distances),
        rows=tuple(tuple(local[y] for y in row(x) if y in local) for x in order),
        original=tuple(original[x] for x in order),
    )


def ball(w: WindowGraph, colouring, u: int, r: int) -> RootedBall:
    """Radius-r ball around u with colour marks (all-1 marks when colouring is None)."""
    if not (0 <= u < w.n):
        raise ValueError(f"root {u} out of range")
    ptr, idx = w.csr_lists
    colours = None if colouring is None else colouring.colours
    return _cut(u, r, lambda x: idx[ptr[x]:ptr[x + 1]], colours, range(w.n))


# ----------------------------------------------------------------------
# Canonical form: colour refinement, then backtracking on the first
# non-singleton class, keeping the lexicographically least encoding.
# ----------------------------------------------------------------------


def _refine(ball: RootedBall, classes: list[int]) -> list[int]:
    n = ball.n
    while True:
        signatures = []
        for i in range(n):
            neigh = sorted((classes[j], m) for j, m in ball.neighbour_counts[i].items())
            signatures.append((classes[i], tuple(neigh)))
        ranks = {sig: k for k, sig in enumerate(sorted(set(signatures)))}
        new_classes = [ranks[sig] for sig in signatures]
        if new_classes == classes:
            return classes
        classes = new_classes


def _encode(ball: RootedBall, perm: list[int]) -> tuple:
    """Encoding of the ball under local->canonical map ``perm``."""
    position = perm
    colours = [0] * ball.n
    for i in range(ball.n):
        colours[position[i]] = ball.colours[i]
    edges = sorted(
        (min(position[i], position[j]), max(position[i], position[j])) for i, j in ball.edges
    )
    return (tuple(colours), tuple(edges))


def canonical_form(ball: RootedBall) -> tuple:
    """Isomorphism-invariant encoding (radius, colours, edge multiset)."""

    initial = [
        (ball.distances[i], ball.colours[i], ball.degree(i), ball.neighbour_counts[i].get(i, 0))
        for i in range(ball.n)
    ]
    ranks = {sig: k for k, sig in enumerate(sorted(set(initial)))}
    classes = _refine(ball, [ranks[sig] for sig in initial])

    best: tuple | None = None

    def search(classes: list[int]) -> None:
        nonlocal best
        groups: dict[int, list[int]] = {}
        for i, c in enumerate(classes):
            groups.setdefault(c, []).append(i)
        target = None
        for c in sorted(groups):
            if len(groups[c]) > 1:
                target = c
                break
        if target is None:
            order = sorted(range(ball.n), key=lambda i: classes[i])
            perm = [0] * ball.n
            for pos, i in enumerate(order):
                perm[i] = pos
            enc = _encode(ball, perm)
            if best is None or enc < best:
                best = enc
            return
        for i in groups[target]:
            split = list(classes)
            # individualize i: place it strictly before its classmates
            for j in range(ball.n):
                if split[j] >= target and j != i:
                    split[j] += 1
            search(_refine(ball, split))

    search(classes)
    assert best is not None
    return (ball.radius,) + best


def balls_isomorphic(a: RootedBall, b: RootedBall) -> bool:
    """Root- and colour-preserving isomorphism (multiplicities must match)."""
    if a.radius != b.radius:
        raise ValueError("balls must have equal radii")
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    if sorted(a.colours) != sorted(b.colours):
        return False
    if sorted(a.distances) != sorted(b.distances):
        return False
    return canonical_form(a) == canonical_form(b)


# ----------------------------------------------------------------------
# Local similarity of rooted windows
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BallSource:
    """A rooted, optionally coloured window from which balls can be cut."""

    window: WindowGraph
    colouring: object  # Colouring or None
    root: int

    def ball(self, r: int) -> RootedBall:
        return ball(self.window, self.colouring, self.root, r)


@dataclass(frozen=True)
class LocalDistanceResult:
    value: float
    matched_radius: int | None  # largest radius with isomorphic balls; None if even r=0 differs
    indistinguishable: bool  # all radii up to the horizon matched


def local_distance(a: BallSource, b: BallSource, r_max: int) -> LocalDistanceResult:
    """2**(-r*) for the largest r* <= r_max with isomorphic balls.

    Root-level disagreement gives 1.  When every radius up to the horizon
    matches, finite windows cannot certify isomorphism beyond it, so the
    value is reported as 2**-(r_max + 1) with the ``indistinguishable`` flag
    set instead of an exact 0.
    """
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    matched: int | None = None
    for r in range(r_max + 1):
        if balls_isomorphic(a.ball(r), b.ball(r)):
            matched = r
        else:
            break
    if matched is None:
        return LocalDistanceResult(1.0, None, False)
    if matched == r_max:
        return LocalDistanceResult(2.0 ** -(r_max + 1), matched, True)
    return LocalDistanceResult(2.0**-matched, matched, False)
