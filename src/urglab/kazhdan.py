"""Balanced partition search: the boundary-per-vertex objective, its exact
brute-force minimum on tiny windows, and a simulated-annealing minimizer
whose cluster-merge move lowers the objective by an exact decrement.

The objective of a k-part partition is the directed bichromatic incidence
count per vertex, identical to the colouring expansion, so a value of 0
means the parts are unions of connected components.  Feasible partitions
must hold every part's weight within eps of its target; eps = 0 is read as
"as equal as integrality allows" (part sizes floor/ceil of the targets),
since exact targets are unattainable whenever they are not integers.

The annealer runs each restart on a Python list of colours, which its
per-step reads index faster than a numpy array.  It keeps the restart's
first lowest-count state not as a copy but as an undo log: each vertex's
colour at the last snapshot, recorded on its first write after it.  So
taking a snapshot and restoring it never copy all n colours.  After the
restart's shuffle, every scalar draw goes through ``rng.scalar_draws``, which
returns exactly what the restart's ``Generator`` would without numpy's
per-call cost: each restart binds its vertex and part draws to their spans
once.  The tests hold the annealer byte for byte to ``anneal_reference``,
which draws from the ``Generator`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clusters import decompose
from .colourings import Colouring
from .graphs import WindowGraph
from .rng import derive_rng, scalar_draws


class InfeasibleBalanceError(ValueError):
    """No integer part sizes meet the balance constraint."""


class InstanceTooLargeError(ValueError):
    """Brute force refused: the search space exceeds the guard."""


@dataclass(frozen=True)
class WeightVector:
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError("weight vector must be nonempty")
        if min(self.values) < 0:
            raise ValueError("weights must be nonnegative")
        if abs(math.fsum(self.values) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    def __len__(self) -> int:
        return len(self.values)


def uniform_weights(k: int) -> WeightVector:
    if k < 1:
        raise ValueError(f"need at least one part, got k = {k}")
    return WeightVector(tuple([1.0 / k] * k))


# ----------------------------------------------------------------------
# Problems and feasibility
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KazhdanProblem:
    window: WindowGraph
    k: int
    alpha: WeightVector
    eps: float
    budget: int = 4000
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one part")
        if len(self.alpha) != self.k:
            raise ValueError("alpha length must equal k")
        if not (0.0 <= self.eps < min(self.alpha.values)):
            raise ValueError("eps must satisfy 0 <= eps < min(alpha)")
        if self.budget < 1 or self.restarts < 1:
            raise ValueError("budget and restarts must be positive")


@dataclass(frozen=True)
class KazhdanResult:
    partition: Colouring
    value: float
    weights: WeightVector
    trace: tuple[tuple[int, int, float], ...]  # (restart, step, best value so far)
    certificate: bool  # set only by exhaustive search
    empty_parts: tuple[int, ...]
    moves: dict[str, tuple[int, int]]  # per MOVE_KINDS entry: (proposed, accepted), summed over restarts


def _result(
    partition: Colouring, count: int, trace: tuple, certificate: bool, moves: dict | None = None
) -> KazhdanResult:
    """The result for a partition with ``count`` directed cross-part incidences."""
    counts = partition.counts()
    return KazhdanResult(
        partition=partition,
        value=count / partition.window.n,
        weights=WeightVector(tuple(counts / partition.window.n)),
        trace=trace,
        certificate=certificate,
        empty_parts=tuple(int(i + 1) for i in range(partition.d) if counts[i] == 0),
        moves=moves or {kind: (0, 0) for kind in MOVE_KINDS},
    )


def feasible_size_windows(n: int, alpha: WeightVector, eps: float) -> list[tuple[int, int]]:
    """Admissible integer size range per part.

    eps > 0: integers in [n(alpha_i - eps), n(alpha_i + eps)], clamped to
    >= 1; rejected outright when empty or when no composition sums to n.
    eps = 0: the integrality allowance {floor(n alpha_i), ceil(n alpha_i)},
    which always admits a composition.
    """
    windows: list[tuple[int, int]] = []
    for a in alpha.values:
        target = n * a
        if eps == 0.0:
            lo, hi = math.floor(target), math.ceil(target)
        else:
            lo = max(1, math.ceil(n * (a - eps) - 1e-9))
            hi = math.floor(n * (a + eps) + 1e-9)
        windows.append((lo, hi))
    if any(lo > hi for lo, hi in windows) or not (
        sum(lo for lo, _ in windows) <= n <= sum(hi for _, hi in windows)
    ):
        raise InfeasibleBalanceError(
            f"no integer part sizes meet the balance constraint; "
            f"feasible class-size windows are {windows} and must compose to {n}"
        )
    return windows


def _initial_sizes(n: int, alpha: WeightVector, windows: list[tuple[int, int]]) -> list[int]:
    sizes = [lo for lo, _ in windows]
    remaining = n - sum(sizes)
    by_remainder = sorted(
        range(len(windows)), key=lambda i: (-(n * alpha.values[i] - windows[i][0]), i)
    )
    while remaining > 0:
        for i in by_remainder:
            if remaining == 0:
                break
            if sizes[i] < windows[i][1]:
                sizes[i] += 1
                remaining -= 1
    return sizes


def _bichromatic_count(w: WindowGraph, colours: np.ndarray) -> int:
    src, dst = w.edge_arrays
    return int(np.count_nonzero(colours[src] != colours[dst]))


# ----------------------------------------------------------------------
# Exact search
# ----------------------------------------------------------------------


def brute_force_kazhdan(problem: KazhdanProblem) -> KazhdanResult:
    """Certified minimum over every admissible partition (k**n guarded).

    A depth-first walk assigns colours 1..k to vertices 0..n-1 in
    lexicographic order.  It drops a prefix once a part exceeds its upper
    size, once the vertices left cannot lift every part to its lower size,
    or once its cut count (charged to an edge when its later end is coloured)
    reaches the best so far.  Only a strictly lower count replaces the best,
    so the reported minimum is the lexicographically least one.  The walk
    recurses once per vertex, so k = 1 (one assignment) is answered directly.
    """
    w, k, n = problem.window, problem.k, problem.window.n
    # for k >= 2, k**24 >= 2**24 is over the guard, so capping the power at 24 keeps the verdict of k**n
    if k ** min(n, 24) > 10**7:
        raise InstanceTooLargeError(f"{k}**{n} assignments exceed the 10**7 guard")
    windows = feasible_size_windows(n, problem.alpha, problem.eps)
    if k == 1:  # the one assignment cuts nothing; the guard admits every n here, so the walk could recurse n deep
        return _result(Colouring(w, 1, np.ones(n, dtype=np.int64)), 0, (), certificate=True)
    lo = [lo for lo, _ in windows]
    hi = [hi for _, hi in windows]
    earlier: list[list[int]] = [[] for _ in range(n)]  # per vertex, its directed entries' earlier ends
    for u, v in zip(*(a.tolist() for a in w.edge_arrays)):
        if u != v:  # a loop is never cut
            earlier[max(u, v)].append(min(u, v))
    counts = [0] * k
    assignment = [0] * n
    best_cut, best = math.inf, None

    def extend(i: int, cut: int, deficit: int) -> None:
        """Try every colour of vertex i after prefix ``assignment[:i]``;
        ``deficit`` is how many vertices the parts still lack to reach ``lo``."""
        nonlocal best_cut, best
        if i == n:
            best_cut, best = cut, tuple(assignment)
            return
        for c in range(k):
            if counts[c] == hi[c]:
                continue
            short = deficit - (counts[c] < lo[c])
            if short > n - i - 1:
                continue
            colour = c + 1
            grown = cut + sum(1 for v in earlier[i] if assignment[v] != colour)
            if grown < best_cut:
                assignment[i] = colour
                counts[c] += 1
                extend(i + 1, grown, short)
                counts[c] -= 1

    extend(0, 0, sum(lo))
    if best is None:
        raise InfeasibleBalanceError("no admissible partition exists")
    return _result(Colouring(w, k, np.asarray(best, dtype=np.int64)), best_cut, (), certificate=True)


# ----------------------------------------------------------------------
# Simulated annealing
# ----------------------------------------------------------------------

COOLING = 0.995  # temperature factor per step; the first step runs at the window degree bound
MERGE_MOVE_PERIOD = 25  # a merge move may be proposed only on steps divisible by this
MOVE_KINDS = ("swap", "recolour", "merge")


def _recolour_delta(rows: tuple[list[int], ...], colours: list[int], u: int, new: int) -> int:
    """Change of the directed cut count when ``u`` takes colour ``new``."""
    old = colours[u]
    if new == old:
        return 0
    delta = 0
    for v in rows[u]:
        if v != u:  # loops are never bichromatic
            cv = colours[v]
            if cv == old:
                delta += 1
            elif cv == new:
                delta -= 1
    return 2 * delta


def _write(colours: list[int], saved: dict[int, int], v: int, new: int) -> None:
    """``colours[v] = new`` through the undo log: ``saved`` keeps v's colour
    at the last snapshot, set by v's first write after it."""
    saved.setdefault(v, colours[v])
    colours[v] = new


def anneal_kazhdan(problem: KazhdanProblem) -> KazhdanResult:
    """Heuristic minimizer: balance-preserving swaps, slack recolours, and an
    occasional cluster-merge move, under geometric cooling with restarts.

    Deterministic in the problem seed.  Restarts run one after another, each
    on its own derived stream.  The best state of a restart, and then the
    best over all restarts, is replaced only by a strictly lower count, so
    the first state to reach the lowest count is the one reported.

    A restart runs on a Python list of colours.  Its best state is not a
    copy but an undo log (see ``_write``): taking a snapshot clears the log,
    and the log is written back once, at the end of the restart.  So no step
    costs more than O(degree), apart from a merge move's cluster
    decomposition.
    """
    w, k, n = problem.window, problem.k, problem.window.n
    rows = w.neighbour_rows
    windows = feasible_size_windows(n, problem.alpha, problem.eps)
    sizes0 = _initial_sizes(n, problem.alpha, windows)
    epoch_len = max(1, problem.budget // 50)
    steps = problem.budget if k > 1 else 0  # one part admits one partition

    best_count, best_colours = 0, []  # replaced by restart 0
    trace: list[tuple[int, int, float]] = []
    swaps = merges = swaps_done = recolours_done = merges_done = 0

    for restart in range(problem.restarts):
        rng = derive_rng(problem.seed, "anneal", restart)
        start = np.repeat(np.arange(1, k + 1, dtype=np.int64), sizes0)
        rng.shuffle(start)
        random, bounded = scalar_draws(rng)  # the Generator is not read again
        pick_vertex, pick_part = bounded(n), bounded(k)
        colours = start.tolist()
        sizes = list(sizes0)
        count = run_count = _bichromatic_count(w, start)
        saved: dict[int, int] = {}
        temperature = float(w.degree_bound)

        for step in range(steps):
            kind = random()
            if kind < 0.05 and step % MERGE_MOVE_PERIOD == 0:
                merges += 1
                accepted = _try_merge_move(w, colours, sizes, windows, bounded, saved)
                if accepted is not None:
                    count += accepted
                    merges_done += 1
            elif kind < 0.65:
                swaps += 1
                u = pick_vertex()
                v = pick_vertex()
                cu, cv = colours[u], colours[v]
                if cu != cv:
                    d1 = _recolour_delta(rows, colours, u, cv)
                    colours[u] = cv
                    d2 = _recolour_delta(rows, colours, v, cu)
                    colours[u] = cu
                    delta = d1 + d2
                    if delta <= 0 or random() < math.exp(-(delta / n) / temperature):
                        _write(colours, saved, u, cv)
                        _write(colours, saved, v, cu)
                        count += delta
                        swaps_done += 1
            else:
                u = pick_vertex()
                new = 1 + pick_part()
                old = colours[u]
                if new != old and sizes[old - 1] > windows[old - 1][0] and sizes[new - 1] < windows[new - 1][1]:
                    delta = _recolour_delta(rows, colours, u, new)
                    if delta <= 0 or random() < math.exp(-(delta / n) / temperature):
                        _write(colours, saved, u, new)
                        sizes[old - 1] -= 1
                        sizes[new - 1] += 1
                        count += delta
                        recolours_done += 1
            temperature *= COOLING
            if count < run_count:
                run_count = count
                saved.clear()
            if (step + 1) % epoch_len == 0:
                trace.append((restart, step + 1, run_count / n))

        for v, c in saved.items():
            colours[v] = c
        if restart == 0 or run_count < best_count:
            best_count, best_colours = run_count, colours

    moves = {
        "swap": (swaps, swaps_done),
        "recolour": (steps * problem.restarts - swaps - merges, recolours_done),  # every other step
        "merge": (merges, merges_done),
    }
    return _result(Colouring(w, k, best_colours), best_count, tuple(trace), certificate=False, moves=moves)


def _try_merge_move(w, colours, sizes, windows, bounded, saved) -> int | None:
    """Relocate one cluster of a part r into a part b when balance survives.

    The cluster (a component of r's vertices) is drawn among those with
    entries into b.  Recolouring it to b uncuts each such entry and its
    mirror and cuts nothing new (a component has no entries into r), so the
    directed cut count drops by exactly twice its entries into b: the
    decrement identity.  A feasible move is therefore always accepted.
    Each vertex's directed entries into b are one sparse product of
    ``w.csr`` (a unit per directed entry, so parallel entries count apart)
    with b's indicator; summed per cluster they give each cluster's entries.
    Returns that delta, or None when no move is made; writes through the
    annealer's undo log and draws through the restart's ``bounded`` (see
    ``rng.scalar_draws``).
    """
    k = len(sizes)
    pick_part = bounded(k)
    r = 1 + pick_part()
    b = 1 + pick_part()
    if r == b:
        return None
    colour_of = np.array(colours, dtype=np.int64)
    dec = decompose(w, colour_of == r)
    into = w.csr @ (colour_of == b)  # per vertex, its directed entries into b
    inside = dec.mask
    entries = np.bincount(dec.cluster_id[inside], weights=into[inside], minlength=dec.count)  # per cluster of r
    touching = np.flatnonzero(entries)
    if touching.size == 0:
        return None
    cluster = int(touching[bounded(touching.size)()])
    members = dec.vertices_of(cluster)
    moved = members.size
    if not (
        windows[r - 1][0] <= sizes[r - 1] - moved
        and sizes[b - 1] + moved <= windows[b - 1][1]
    ):
        return None
    for v in members.tolist():
        _write(colours, saved, v, b)
    sizes[r - 1] -= moved
    sizes[b - 1] += moved
    return -2 * int(entries[cluster])
