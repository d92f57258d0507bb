"""Flat torus geometry: wrapped distances, point configurations, and
nearest-point (Voronoi) assignment with a fixed tie-break.

Distances compare squared wrapped offsets; ties are detected with an
absolute 1e-12 threshold on the squared distance and resolved toward the
lexicographically smallest point coordinates, so assignment is a genuine
function even on cell boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

TIE_TOL_SQ = 1e-12


@dataclass(frozen=True)
class FlatTorus:
    """R^d / L Z^d with the coordinatewise wrap-around Euclidean metric."""

    dim: int
    side: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if self.side <= 0:
            raise ValueError("side length must be positive")

    @property
    def volume(self) -> float:
        return self.side**self.dim

    def wrap(self, points) -> np.ndarray:
        """Canonical coordinates in [0, side)."""
        arr = np.mod(np.asarray(points, dtype=float), self.side)
        # float rounding can land exactly on the seam
        return np.where(arr >= self.side, arr - self.side, arr)

    def delta(self, a, b) -> np.ndarray:
        """Wrapped difference a - b, componentwise in [-side/2, side/2)."""
        diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        return diff - self.side * np.round(diff / self.side)

    def distance_sq(self, a, b) -> np.ndarray:
        d = self.delta(a, b)
        return np.sum(d * d, axis=-1)

    def distance(self, a, b) -> np.ndarray:
        return np.sqrt(self.distance_sq(a, b))


@dataclass(frozen=True)
class TorusBox:
    """Axis-aligned box [0, lengths_i) inside a torus, for window counts."""

    lengths: tuple[float, ...]

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def contains(self, torus: FlatTorus, points: np.ndarray) -> np.ndarray:
        if len(self.lengths) != torus.dim:
            raise ValueError("box dimension mismatch")
        if any(not 0 < g <= torus.side for g in self.lengths):
            raise ValueError("box lengths must lie in (0, side]")
        canonical = torus.wrap(points)
        return np.all(canonical < np.asarray(self.lengths), axis=-1)


@dataclass(frozen=True, eq=False)
class PointConfiguration:
    """A finite point set on a torus; optionally rooted at the origin.

    Points are stored in canonical coordinates and must be pairwise distinct
    beyond 1e-12.  When rooted, the origin is the first listed point.
    """

    torus: FlatTorus
    points: np.ndarray
    rooted: bool = False

    def __post_init__(self):
        pts = self.torus.wrap(np.asarray(self.points, dtype=float).reshape(-1, self.torus.dim))
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if len(pts) > 1:
            dists, _ = self.kdtree.query(pts, k=2)
            if float(dists[:, 1].min()) <= 1e-12:
                raise ValueError("configuration points must be pairwise distinct")
        if self.rooted:
            if len(pts) == 0 or np.any(np.abs(self.torus.delta(pts[0], 0.0)) > 1e-12):
                raise ValueError("rooted configurations must list the origin first")

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def kdtree(self) -> cKDTree:
        if len(self.points) == 0:
            raise ValueError("empty configuration has no geometry")
        return cKDTree(self.points, boxsize=self.torus.side)

    def shifted(self, offset) -> "PointConfiguration":
        return PointConfiguration(self.torus, self.points + np.asarray(offset, dtype=float))


def nearest_index(config: PointConfiguration, location) -> int:
    """Index of the assigned (nearest) point, ties broken lexicographically.

    Exact path: all squared wrapped distances are compared, and any point
    within TIE_TOL_SQ of the minimum competes on coordinates.
    """
    if len(config) == 0:
        raise ValueError("empty configuration")
    d2 = config.torus.distance_sq(config.points, np.asarray(location, dtype=float))
    tied = np.flatnonzero(d2 <= d2.min() + TIE_TOL_SQ)
    if len(tied) == 1:
        return int(tied[0])
    keys = [tuple(config.points[i]) for i in tied]
    return int(tied[min(range(len(tied)), key=keys.__getitem__)])


def nearest_point(config: PointConfiguration, location) -> np.ndarray:
    """The assigned point itself (wrapped-distance minimizer)."""
    return config.points[nearest_index(config, location)]


def bulk_nearest(config: PointConfiguration, locations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distances, indices) of assigned points for many query locations.

    Fast periodic KD-tree path for Monte Carlo volume work; exact ties (a
    measure-zero event for random locations) resolve arbitrarily here, use
    ``nearest_index`` when the tie-break matters.
    """
    dists, idx = config.kdtree.query(np.asarray(locations, dtype=float))
    return np.asarray(dists, dtype=float), np.asarray(idx, dtype=np.int64)


def nearest_distance(config: PointConfiguration, location) -> float:
    """Distance from a location to the configuration (inf when empty)."""
    if len(config) == 0:
        return float("inf")
    return float(np.sqrt(config.torus.distance_sq(config.points, np.asarray(location, dtype=float)).min()))


def find_point_index(config: PointConfiguration, point) -> int:
    """Index of a configuration point given by coordinates (1e-12 match)."""
    d2 = config.torus.distance_sq(config.points, np.asarray(point, dtype=float))
    idx = int(np.argmin(d2))
    if d2[idx] > TIE_TOL_SQ:
        raise ValueError("point is not part of the configuration")
    return idx
