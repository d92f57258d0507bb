"""Flat torus geometry: wrapped distances, point configurations, and
nearest-point (Voronoi) assignment.

Assignment and every reported distance follow one rule: the periodic
KD-tree's own squared distances (``_wrapped_differences``, then
``_squared_lengths``); the tree decides exact ties.  ``bulk_nearest`` is
the tree's query itself.  ``cell_members`` decides the locations of one
cell from those same squared distances, with no tree, and asks the tree
only about a location that ties exactly between two nearest points, a
measure-zero event for random locations.  ``squared_distances`` computes
them for one location, and the rooted-origin check for the first point.
``_offset_rows`` wraps by rounding; its offsets feed only the bisector
prefilter of ``cell_members``, which any periodic image serves.

A configuration's periodic KD-tree is built by the first query that reads
it.  Construction only checks distinctness, and that check needs the tree
only when two sorted first coordinates lie suspiciously close.

scipy.spatial is imported at the first tree build, not with this module, so
only runs that build a tree pay for it: ``palm --check locfin``, and a
configuration whose distinctness check needs the pair query.  Importing
``urglab.cli`` took a median 364 ms with it and 293 ms without (``python -X importtime``, 15 runs
each on a 2-core Xeon; scipy.spatial itself 70 ms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

DISTINCT_TOL = 1e-12  # points closer than this (wrapped) are one point
CELL_NEIGHBOURS = 16  # bisectors that prefilter ``cell_members``
# survivors at which ``cell_members`` tests its remaining bisectors in one
# product.  Per call on the palm-inversion workload's 150 cells (10^4
# locations, d = 2, one core of a 2-core Xeon, two sweeps of 20 rounds):
# 362 and 460 us at 1024, against 483 and 544 never fused, 382 and 468 at
# 256, and 380 and 442 at 2048.
SETTLED_LOCATIONS = 1024
# elements (survivors x (rivals + 1) x d) above which ``cell_members`` sends
# every survivor to the KD-tree in place of its exact check.  Per call, on
# 240 cells of Palm samples (rate 1, 10^4 locations, d = 1, 2, 3, 5, 7, 9;
# one core of a 2-core Xeon, best of 3), the check beat building and
# querying the tree on 117 of the 118 calls under 2^15 elements, on 4 of
# the 10 from 2^15 to 2^16 and on 2 of the 112 above.  It also bounds the
# check's arrays, which a lone site beside a dense cluster would make huge.
_EXACT_BLOCK = 1 << 15


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
        try:
            return self.side**self.dim
        except OverflowError:  # a float power past the double range raises rather than giving inf
            return math.inf

    def wrap(self, points) -> np.ndarray:
        """Canonical coordinates in [0, side), always in a new array."""
        arr = np.asarray(points, dtype=float)
        if arr.size and arr.min() >= 0.0 and arr.max() < self.side:
            # what np.mod gives there: the same values, -0.0 turned into +0.0
            return arr + 0.0
        arr = np.mod(arr, self.side)
        # float rounding can land exactly on the seam
        return np.where(arr >= self.side, arr - self.side, arr)


@dataclass(frozen=True, eq=False)
class PointConfiguration:
    """A finite point set on a torus; optionally rooted at the origin.

    Points are stored in canonical coordinates and must be pairwise distinct
    beyond DISTINCT_TOL: the periodic KD-tree must find no pair at wrapped
    distance <= DISTINCT_TOL.  The tree is built on the first query that
    reads it; construction asks it for pairs only when
    ``_close_pair_suspected`` cannot rule them out.  When rooted, the first
    listed point lies within DISTINCT_TOL of the origin.
    """

    torus: FlatTorus
    points: np.ndarray
    rooted: bool = False

    def __post_init__(self):
        pts = self.torus.wrap(np.asarray(self.points, dtype=float).reshape(-1, self.torus.dim))
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if (len(pts) > 1 and _close_pair_suspected(pts, self.torus.side)
                and len(self.kdtree.query_pairs(DISTINCT_TOL, output_type="ndarray"))):
            raise ValueError("configuration points must be pairwise distinct")
        if self.rooted and (len(pts) == 0 or squared_distances(
                self.torus, pts[:1], np.zeros(self.torus.dim))[0] > DISTINCT_TOL**2):
            raise ValueError("rooted configurations must list the origin first")

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def kdtree(self) -> cKDTree:
        if len(self.points) == 0:
            raise ValueError("empty configuration has no geometry")
        from scipy.spatial import cKDTree

        return cKDTree(self.points, boxsize=self.torus.side)


def _close_pair_suspected(points: np.ndarray, side: float) -> bool:
    """False only when no two canonical points lie within DISTINCT_TOL.

    Two such points have wrapped first coordinates within DISTINCT_TOL, so
    some circular gap between the sorted first coordinates, the seam gap
    from the last back round to the first included, is at most that.  The
    bound doubles DISTINCT_TOL and adds room for the rounding of the seam
    gap, a difference of numbers near ``side``.  A few thousand random
    points clear it by orders of magnitude; lattices sharing a first
    coordinate never do and go to the exact pair query.  ``points`` holds
    at least two rows.
    """
    xs = np.sort(points[:, 0])
    bound = 2 * DISTINCT_TOL + 1e-14 * side
    return bool((xs[1:] - xs[:-1]).min() <= bound or xs[0] + side - xs[-1] <= bound)


def bulk_nearest(config: PointConfiguration, locations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distances, indices) of assigned points for many query locations.

    The one assignment rule (module docstring), as the KD-tree's query,
    which builds the configuration's tree.  For the locations of one point's
    cell alone, ``cell_members`` gives the same answer and queries the tree
    only on exact ties.
    """
    dists, idx = config.kdtree.query(np.asarray(locations, dtype=float))
    return np.asarray(dists, dtype=float), np.asarray(idx, dtype=np.int64)


def _offset_rows(torus: FlatTorus, locations: np.ndarray, site: np.ndarray) -> np.ndarray:
    """Wrapped offsets from ``site`` to each location, as ``(d, m)`` rows.

    Row-major over coordinates, so each arithmetic step runs one long inner
    loop per coordinate rather than one length-d loop per location.  The
    forced copy leaves ``locations`` unchanged: a ``(m, 1)`` array's
    transpose is already contiguous, and would otherwise be edited in place.
    """
    rows = np.array(locations.T, order="C")
    rows -= site[:, None]
    rows -= torus.side * np.rint(rows / torus.side)
    return rows


def _wrapped_differences(torus: FlatTorus, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(d, len(a), len(b))`` coordinate differences a - b of canonical
    rows, each wrapped as the periodic KD-tree wraps it: moved by one side
    when it lies more than half the side from zero."""
    # a C-order result: one laid out like the transposed inputs takes twice as long
    diff = np.subtract(a.T[:, :, None], b.T[:, None, :], order="C")
    half = 0.5 * torus.side
    np.subtract(diff, torus.side, out=diff, where=diff > half)
    np.add(diff, torus.side, out=diff, where=diff < -half)
    return diff


def _squared_lengths(diff: np.ndarray) -> np.ndarray:
    """Sums of squares over the first axis, added in coordinate order 0..d-1
    as the KD-tree adds them.  ``np.sum`` over a contiguous axis adds
    pairwise, which changes the bits from d = 8 up."""
    total = diff[0] * diff[0]
    for row in diff[1:]:
        total += row * row
    return total


def cell_members(config: PointConfiguration, idx: int, locations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(location indices, distances) of the locations that ``bulk_nearest``
    assigns to point ``idx``, in ascending location order.

    The cell of a site lies in the bisector half-space {x : x.p <= |p|^2/2}
    of every wrapped offset p from the site to another point (any periodic
    image gives a valid one).  A location whose wrapped offset lies beyond
    the bisector of one of the site's CELL_NEIGHBOURS nearest points by
    more than 1e-9 * side^2 is strictly closer to that point, so the
    KD-tree could never return ``idx`` for it.  One pass from the site to
    every point finds those neighbours and each point's squared distance
    to the site.

    The locations' offsets are held as ``(d, m)`` coordinate rows.  Each
    bisector pass is one ``p @ rows`` product, and the survivors' columns
    are carried along with their indices, so later passes gather nothing
    from the full set.  Once at most SETTLED_LOCATIONS survive, the
    remaining bisectors are tested in one product.

    A point q can beat the site at a survivor x only if |q - s| <= 2|x - s|,
    so the survivors are checked exactly against the points within twice
    the farthest survivor's distance (plus the same margin), by the tree's
    own squared distances (``_wrapped_differences``, ``_squared_lengths``).
    A survivor strictly nearer the site than every such point is a member
    at the distance the tree reports; one strictly nearer another point is
    not.  Only exact ties, survivors outside [0, side)^d (which the tree
    wraps its own way), and every survivor once the check would exceed
    _EXACT_BLOCK elements go to ``bulk_nearest``, so the result equals
    filtering a full ``bulk_nearest`` bit for bit, and a call without ties
    builds no tree.
    """
    if not 0 <= idx < len(config):
        raise ValueError(f"point {idx} out of range")
    torus = config.torus
    locations = np.asarray(locations, dtype=float)
    site = config.points[idx]
    margin = 1e-9 * torus.side**2
    points_rel = _wrapped_differences(torus, config.points, site[None])[:, :, 0]
    site_sq = _squared_lengths(points_rel)
    site_sq[idx] = np.inf
    k = min(CELL_NEIGHBOURS, len(config) - 1)
    near = np.argpartition(site_sq, k)[:k]
    near = near[np.argsort(site_sq[near])]
    bounds = 0.5 * site_sq[near] + margin
    offsets = points_rel[:, near].T
    rel = _offset_rows(torus, locations, site)
    where = np.arange(len(locations))
    i = 0
    while i < len(offsets) and len(where) > SETTLED_LOCATIONS:
        keep = np.flatnonzero(offsets[i] @ rel <= bounds[i])
        rel, where = rel.take(keep, axis=1), where.take(keep)
        i += 1
    keep = (offsets[i:] @ rel <= bounds[i:, None]).all(axis=0)
    rel, where = rel[:, keep], where[keep]
    reach = 4.0 * float(_squared_lengths(rel).max(initial=0.0)) + margin
    rivals = np.flatnonzero(site_sq <= reach)
    survivors = locations[where]
    outside = ((survivors < 0.0) | (survivors >= torus.side)).any(axis=1)
    if len(where) * (len(rivals) + 1) * torus.dim <= _EXACT_BLOCK:
        sq = _squared_lengths(_wrapped_differences(torus, survivors, config.points[np.concatenate(([idx], rivals))]))
        own, best = sq[:, 0], sq[:, 1:].min(axis=1, initial=np.inf)
    else:  # every survivor goes to the tree, as a tie does
        own = best = np.zeros(len(where))
    hit = own < best
    tied = (own == best) | outside
    dists = np.sqrt(own)
    if tied.any():
        tied_dists, assigned = bulk_nearest(config, survivors[tied])
        hit[tied] = assigned == idx
        dists[tied] = tied_dists
    return where[hit], dists[hit]


def squared_distances(torus: FlatTorus, points: np.ndarray, location) -> np.ndarray:
    """Squared distance from a location to each canonical point, as the KD-tree computes it.

    The location is moved into the box as the tree moves a query, by floor(x / side) sides and
    then by one more if rounding leaves it outside; ``FlatTorus.wrap``'s exact remainder can
    differ from that in the last bits a few sides out.  Python floats round as numpy's do, at a
    fraction of the per-call cost of array operations on one location.
    """
    side, x = torus.side, []
    for c in np.reshape(location, torus.dim).tolist():
        c -= math.floor(c / side) * side
        if c >= side:
            c -= side
        if c < 0.0:
            c += side
        x.append(c)
    return _squared_lengths(_wrapped_differences(torus, points, np.array([x])))[:, 0]


def nearest_distance(config: PointConfiguration, location) -> float:
    """Distance from a location to the configuration (inf when empty), bit for bit the tree's."""
    if len(config) == 0:
        return float("inf")
    return float(np.sqrt(squared_distances(config.torus, config.points, location).min()))

