"""Independent oracles for the test suite.

These deliberately avoid the library's own algorithms: cluster counts come
from a BFS flood fill rather than scipy.sparse.csgraph, shortest
paths and ball cuts from plain BFS, exact partition optima from combinations
enumeration, and mass-transport values and sums from fresh balls per
directed edge rather than from the window's entry arrays and its mirror
permutation.  Expected values in tests are computed (or were frozen) from
these, never from the code paths under test.

``BallTransport`` is the ball form of an edge transport: the value of each
directed edge (u, v) comes from the coloured ball around u alone, so it is
local by construction.  The ball forms of the library's built-in transports
and of the tests' own transports are the references for their entry-array
forms.  ``BallVertexFunction`` is a vertex function in the same way, its
value at each vertex from the coloured ball around it; vertex functions exist
only here.  ``gradient_transport`` turns one into the entry-array transport
f(u) - f(v) that ``mtp_check`` runs in acceptance criterion 1, held bit for
bit to ``ball_f_arrow``, which cuts both balls inside the ball around u; and
``gradient_norm_bound`` gives both sides of criterion 2's gradient norm bound.

``subset_colouring`` builds the d = 2 colouring whose colour-1 class is a
boolean mask: the inverse of ``colourings.subset_mask``.

``build_explicit`` labels an arbitrary simple edge list greedily: it builds
the tests' irregular fixture windows, and it is the reference for the
closed-form labels of ``graphs.build_path`` and ``graphs.build_complete``.
``torus_entries_window`` and ``random_regular_entries_window`` build tori and
permutation-model windows as entry lists through the generic sorting
``WindowGraph`` constructor: the reference for the builders' label-action
route.

``anneal_reference`` is the balanced-partition annealer as it ran on a numpy
colour array, copying the array on each new best state and drawing every
scalar from the numpy ``Generator`` itself: the bit-for-bit reference for
``kazhdan.anneal_kazhdan``, which runs on a colour list with an undo log and
draws through ``rng.scalar_draws``.  Its merge move finds clusters by
``flood_fill_clusters`` and counts their entries into the target part from
``neighbour_rows``, so it shares no cluster search with the library's move.

``mutated`` compiles a library function or class from its source with one
edit: the negative controls that must fail a deliberately broken copy.

``brute_force_product`` is the exact partition search as a filter over
``itertools.product``: the reference for ``kazhdan.brute_force_kazhdan``'s
pruned depth-first walk.
"""

from __future__ import annotations

import inspect
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from urglab.balls import RootedBall, ball
from urglab.colourings import IN, Colouring
from urglab.graphs import GeneratorSet, WindowGraph, free_generators, torus_generators
from urglab.kazhdan import (
    COOLING,
    MERGE_MOVE_PERIOD,
    KazhdanProblem,
    KazhdanResult,
    _bichromatic_count,
    _initial_sizes,
    _result,
    feasible_size_windows,
)
from urglab.rng import derive_rng
from urglab.transport import TransportFunction

OUT = 2  # the colour outside the mask of a subset colouring


def mutated(module, name: str, old: str, new: str):
    """``module.name`` compiled from its source with the one occurrence of ``old`` replaced by ``new``.

    The edited source runs in a copy of the module's namespace, so the module
    and every caller of the true object are left as they were.
    """
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, f"{old!r} occurs {source.count(old)} times in {module.__name__}.{name}"
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    return namespace[name]


def subset_colouring(window, mask) -> Colouring:
    """d = 2 colouring from a boolean in-mask."""
    return Colouring(window, 2, np.where(np.asarray(mask, dtype=bool), IN, OUT))


def flood_fill_clusters(window, mask) -> list[list[int]]:
    """Connected components of the mask-induced subgraph, by BFS flood fill.

    Returned components are sorted by smallest member, members sorted.
    """
    mask = np.asarray(mask, dtype=bool)
    seen = [False] * window.n
    components = []
    for start in range(window.n):
        if not mask[start] or seen[start]:
            continue
        comp = []
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v, _ in window.adjacency[u]:
                if mask[v] and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        components.append(sorted(comp))
    components.sort(key=lambda c: c[0])
    return components


def shortest_path_distance(window, source: int, target: int) -> int:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if u == target:
            return dist[u]
        for v, _ in window.adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return -1


def set_distance(window, a: set[int], b: set[int]) -> int:
    """min over u in a, v in b of d(u, v), by multi-source BFS."""
    dist = {u: 0 for u in a}
    queue = deque(a)
    best = None
    while queue:
        u = queue.popleft()
        if u in b:
            return dist[u]
        for v, _ in window.adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return -1 if best is None else best


def bfs_ball(window, colouring, root: int, r: int) -> dict:
    """The radius-r ball's ``colours``, ``distances``, ``rows`` and ``original``
    by a deque BFS over the window's CSR arrays.

    Local ids follow dequeue order; ``rows[i]`` lists i's in-ball neighbours
    as local ids in the window's row order (a loop twice).
    """
    ptr, idx = window.indptr, window.indices
    dist = {root: 0}
    order = []
    queue = deque([root])
    while queue:
        x = queue.popleft()
        order.append(x)
        if dist[x] < r:
            for y in idx[ptr[x]:ptr[x + 1]]:
                if int(y) not in dist:
                    dist[int(y)] = dist[x] + 1
                    queue.append(int(y))
    local = {x: i for i, x in enumerate(order)}
    return {
        "colours": tuple(1 if colouring is None else int(colouring.colours[x]) for x in order),
        "distances": tuple(dist[x] for x in order),
        "rows": tuple(tuple(local[int(y)] for y in idx[ptr[x]:ptr[x + 1]] if int(y) in local) for x in order),
        "original": tuple(order),
    }


def ball_is_tree(ball) -> bool:
    """Connected by construction, so a tree iff |E| = n - 1 with no loops."""
    if any(i == j for i, j in ball.edges):
        return False
    if len(set(ball.edges)) != len(ball.edges):
        return False
    return len(ball.edges) == ball.n - 1


@dataclass(frozen=True)
class BallTransport:
    """Value on a directed edge (u, v), computed from the ball around u.

    ``evaluate(ball_u, v_local)`` receives the ball around u (radius at
    least max(radius, 1), so v is always present) and v's local index.
    """

    name: str
    radius: int
    evaluate: Callable[[RootedBall, int], float]


def ball_constant(value: float = 1.0) -> BallTransport:
    return BallTransport(f"constant[{value}]", 0, lambda b, v: value)


def ball_source_colour(colour: int = 1) -> BallTransport:
    """f(u, v) = 1 when u carries ``colour``."""
    return BallTransport(
        f"source-colour[{colour}]", 0, lambda b, v: 1.0 if b.colours[0] == colour else 0.0
    )


def ball_bichromatic() -> BallTransport:
    """f(u, v) = 1 when the endpoint colours differ."""
    return BallTransport(
        "bichromatic", 0, lambda b, v: 1.0 if b.colours[0] != b.colours[v] else 0.0
    )


def ball_degree_weighted(colour: int = 1) -> BallTransport:
    """f(u, v) = deg(u) * [u has ``colour``]."""

    def evaluate(b: RootedBall, v_local: int) -> float:
        return float(b.degree(0)) if b.colours[0] == colour else 0.0

    return BallTransport(f"degree-weighted[{colour}]", 1, evaluate)


BALL_BUILTINS = {
    "constant": ball_constant,
    "source-colour": ball_source_colour,
    "bichromatic": ball_bichromatic,
    "degree-weighted": ball_degree_weighted,
}


@dataclass(frozen=True)
class BallVertexFunction:
    """Value at a vertex, computed from its radius-``radius`` coloured ball."""

    name: str
    radius: int
    evaluate: Callable[[RootedBall], float]


def ball_root_colour(colour: int = 1) -> BallVertexFunction:
    return BallVertexFunction(
        f"colour-indicator[{colour}]", 0, lambda b: 1.0 if b.colours[0] == colour else 0.0
    )


def ball_neighbour_colour_count(colour: int = 1) -> BallVertexFunction:
    """Number of root neighbours carrying ``colour`` (with multiplicity; loops never count)."""
    return BallVertexFunction(
        f"neighbour-count[{colour}]", 1,
        lambda b: float(sum(1 for j in b.rows[0] if b.colours[j] == colour and j != 0)),
    )


def ball_feature_mix(coeffs: tuple[float, float, float, float], name: str = "mix") -> BallVertexFunction:
    """a*[root colour 1] + b*deg(root) + c*#bichromatic root incidences + d*|ball|."""
    a, b_, c_, d_ = coeffs

    def evaluate(b: RootedBall) -> float:
        root_col = 1.0 if b.colours[0] == 1 else 0.0
        bichrom = sum(1 for j in b.rows[0] if j != 0 and b.colours[j] != b.colours[0])
        return a * root_col + b_ * b.degree(0) + c_ * bichrom + d_ * b.n

    return BallVertexFunction(name, 1, evaluate)


def ball_vertex_values(window, colouring, f_vertex: BallVertexFunction) -> np.ndarray:
    """f at every vertex, from a fresh radius-r ball around it."""
    return np.array([float(f_vertex.evaluate(ball(window, colouring, u, f_vertex.radius)))
                     for u in range(window.n)], dtype=np.float64)


def ball_f_arrow(f_vertex: BallVertexFunction, signed: bool = False) -> BallTransport:
    """f(u) - f(v) (absolute unless ``signed``), each side from the radius-r
    ball cut inside the ball around u."""
    r = f_vertex.radius

    def evaluate(b: RootedBall, v_local: int) -> float:
        fu = f_vertex.evaluate(b.ball(0, r))
        fv = f_vertex.evaluate(b.ball(v_local, r))
        return (fu - fv) if signed else abs(fu - fv)

    suffix = "signed" if signed else "abs"
    return BallTransport(f"grad[{f_vertex.name}]:{suffix}", r + 1, evaluate)


def gradient_transport(f_vertex: BallVertexFunction, signed: bool = False) -> TransportFunction:
    """f(u) - f(v) on every directed entry (absolute unless ``signed``), with f
    at every vertex from ``ball_vertex_values``.

    The absolute version is a transport for ``mtp_check``; the signed one has
    entries of both signs unless f is equal at both ends of every edge.
    """

    def entries(w: WindowGraph, c) -> np.ndarray:
        values = ball_vertex_values(w, c, f_vertex)
        src, dst = w.edge_arrays
        diff = values[src] - values[dst]
        return diff if signed else np.abs(diff)

    suffix = "signed" if signed else "abs"
    return TransportFunction(f"grad[{f_vertex.name}]:{suffix}", f_vertex.radius + 1, entries)


def gradient_norm_bound(w: WindowGraph, c, f_vertex: BallVertexFunction) -> tuple[float, float]:
    """(1/n) * sum over directed entries of |f(u) - f(v)|, and its ceiling
    2 D * (1/n) * sum over vertices of |f(u)|, with D the degree bound."""
    values = ball_vertex_values(w, c, f_vertex)
    src, dst = w.edge_arrays
    lhs = float(np.abs(values[src] - values[dst]).sum()) / w.n
    return lhs, 2.0 * w.degree_bound * float(np.abs(values).sum()) / w.n


def ball_inexact() -> BallTransport:
    """deg(u) / 3 + colour(v) / 10: its float sums round differently in another order."""
    return BallTransport("inexact", 1, lambda b, v: b.degree(0) / 3 + b.colours[v] / 10)


def ball_spike() -> BallTransport:
    """2**53 on the entries out of colour-1 vertices, 1.0 elsewhere."""
    return BallTransport("spike", 0, lambda b, v: 2.0**53 if b.colours[0] == 1 else 1.0)


def ball_entries(window, colouring, transport: BallTransport) -> np.ndarray:
    """f(u, v) on every directed entry in row order, from a fresh ball around u per entry."""
    r = max(transport.radius, 1)
    values = []
    for u, entries in enumerate(window.adjacency):
        for v, _ in entries:
            around_u = ball(window, colouring, u, r)
            values.append(float(transport.evaluate(around_u, around_u.original.index(v))))
    return np.array(values, dtype=np.float64)


def mtp_sums(window, colouring, transport: BallTransport) -> tuple[float, float]:
    """Outflow and inflow averages of an edge transport.

    For every directed entry (u, v) in row order, a fresh ball around u gives
    f(u, v) and a fresh ball around v gives f(v, u); both sums are plain
    left-to-right float additions.
    """
    r = max(transport.radius, 1)
    lhs = rhs = 0.0
    for u, entries in enumerate(window.adjacency):
        for v, _ in entries:
            around_u, around_v = ball(window, colouring, u, r), ball(window, colouring, v, r)
            lhs += float(transport.evaluate(around_u, around_u.original.index(v)))
            rhs += float(transport.evaluate(around_v, around_v.original.index(u)))
    return lhs / window.n, rhs / window.n


def directed_bichromatic_count(window, colours) -> int:
    """Plain double loop over adjacency entries."""
    total = 0
    for u, entries in enumerate(window.adjacency):
        for v, _ in entries:
            if colours[u] != colours[v]:
                total += 1
    return total


def exhaustive_bipartition_minimum(window, size_one: int) -> float:
    """Exact 2-part optimum over all parts of given size, via combinations."""
    best = None
    n = window.n
    for part in itertools.combinations(range(n), size_one):
        colours = np.full(n, 2, dtype=np.int64)
        colours[list(part)] = 1
        cut = directed_bichromatic_count(window, colours)
        if best is None or cut < best:
            best = cut
    assert best is not None
    return best / n


def spanning_connected(window, mask, extra_pairs) -> bool:
    """Is (induced subgraph on mask) + extra pairs connected over the mask?"""
    mask = np.asarray(mask, dtype=bool)
    members = [int(v) for v in np.flatnonzero(mask)]
    if not members:
        return True
    neigh = {u: set() for u in members}
    for u in members:
        for v, _ in window.adjacency[u]:
            if mask[v] and v != u:
                neigh[u].add(v)
    for u, v in extra_pairs:
        neigh[u].add(v)
        neigh[v].add(u)
    seen = {members[0]}
    queue = deque([members[0]])
    while queue:
        u = queue.popleft()
        for v in neigh[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(members)


def prim_tree_weight(weights) -> int:
    """Minimum spanning tree weight of a complete graph given as a square
    weight matrix, by Prim's algorithm over plain lists."""
    k = len(weights)
    if k == 0:
        return 0
    best = list(weights[0])
    in_tree = [True] + [False] * (k - 1)
    total = 0
    for _ in range(k - 1):
        nxt = min((i for i in range(k) if not in_tree[i]), key=lambda i: best[i])
        in_tree[nxt] = True
        total += best[nxt]
        best = [min(b, wt) for b, wt in zip(best, weights[nxt])]
    return total


def build_explicit(
    n: int, edges: list[tuple[int, int]], tag: str = "explicit"
) -> WindowGraph:
    """Window from an undirected simple edge list.

    Edges get a proper greedy labelling (smallest palette label free at both
    endpoints, every label self-inverse), so label paths stay unambiguous.
    """
    if n < 1:
        raise ValueError("window needs at least one vertex")
    seen = set()
    for u, v in edges:
        if u == v:
            raise ValueError("explicit windows must be loop-free")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)

    used_at: list[set[int]] = [set() for _ in range(n)]
    src, dst, label = [], [], []
    for u, v in sorted((min(a, b), max(a, b)) for a, b in edges):
        idx = 0
        while idx in used_at[u] or idx in used_at[v]:
            idx += 1
        used_at[u].add(idx)
        used_at[v].add(idx)
        src += [u, v]
        dst += [v, u]
        label += [idx, idx]
    palette = max(label, default=0) + 1  # an edgeless window still needs a nonempty label set
    gens = GeneratorSet.paired([(f"e{i + 1}", f"e{i + 1}") for i in range(palette)])
    return WindowGraph(n, src, dst, label, gens, "explicit", {"n": n, "tag": tag})


def torus_entries_window(d: int, L: int) -> WindowGraph:
    """``graphs.build_torus_window`` as a list of directed entries sorted by the generic
    ``WindowGraph`` constructor: the reference for its label-action arrays."""
    n = L**d
    u = np.arange(n, dtype=np.int64)
    dst = []
    for axis in range(d):  # label ids 2 * axis (+e) and 2 * axis + 1 (-e)
        weight = L**axis
        coord = (u // weight) % L
        dst += [u + ((coord + 1) % L - coord) * weight, u + ((coord - 1) % L - coord) * weight]
    return WindowGraph(n, np.tile(u, 2 * d), np.concatenate(dst), np.repeat(np.arange(2 * d), n),
                       torus_generators(d), "torus", {"d": d, "L": L})


def random_regular_entries_window(k: int, n: int, seed: int) -> WindowGraph:
    """``graphs.build_random_regular`` as a list of directed entries sorted by the generic
    ``WindowGraph`` constructor, from the same k permutations of the same stream."""
    rng = derive_rng(seed, "random-regular")
    v = np.tile(np.arange(n, dtype=np.int64), k)
    sigma = np.concatenate([rng.permutation(n) for _ in range(k)])
    out_label = np.repeat(2 * np.arange(k), n)  # s_{i+1} has id 2i, its inverse 2i + 1
    return WindowGraph(n, np.concatenate([v, sigma]), np.concatenate([sigma, v]),
                       np.concatenate([out_label, out_label + 1]), free_generators(k),
                       "random-regular", {"k": k, "n": n}, seed=seed)


# ----------------------------------------------------------------------
# The numpy-array annealer
# ----------------------------------------------------------------------


def brute_force_product(problem: KazhdanProblem) -> tuple[int, tuple[int, ...]]:
    """(cut count, assignment) of the first minimum over every admissible
    assignment in ``itertools.product`` order, each checked against the size
    windows; the lexicographically least minimum."""
    w, k = problem.window, problem.k
    windows = feasible_size_windows(w.n, problem.alpha, problem.eps)
    edges = list(zip(*(a.tolist() for a in w.edge_arrays)))  # a loop is never cut
    best: tuple[int, tuple[int, ...]] | None = None
    for assignment in itertools.product(range(1, k + 1), repeat=w.n):
        counts = [0] * (k + 1)
        for colour in assignment:
            counts[colour] += 1
        if any(not (lo <= counts[i + 1] <= hi) for i, (lo, hi) in enumerate(windows)):
            continue
        cut = sum(1 for u, v in edges if assignment[u] != assignment[v])
        if best is None or cut < best[0]:
            best = (cut, assignment)
    assert best is not None, "feasible size windows always admit an assignment"
    return best


def _recolour_delta(w: WindowGraph, colours: np.ndarray, u: int, new: int) -> int:
    old = colours[u]
    if new == old:
        return 0
    delta = 0
    for v in w.neighbour_rows[u]:
        if v == u:
            continue  # loops are never bichromatic
        cv = int(colours[v])
        delta += int(cv != new) - int(cv != old)
    return 2 * delta


def anneal_reference(problem: KazhdanProblem) -> KazhdanResult:
    """Heuristic minimizer: balance-preserving swaps, slack recolours, and an
    occasional cluster-merge move, under geometric cooling with restarts.

    Deterministic in the problem seed.  Restarts run one after another, each
    on its own derived stream.  The best state of a restart, and then the
    best over all restarts, is replaced only by a strictly lower count.
    """
    w, k = problem.window, problem.k
    windows = feasible_size_windows(w.n, problem.alpha, problem.eps)
    sizes0 = _initial_sizes(w.n, problem.alpha, windows)
    epoch_len = max(1, problem.budget // 50)

    best_count, best_colours = 0, np.empty(0, dtype=np.int64)  # replaced by restart 0
    trace: list[tuple[int, int, float]] = []

    for restart in range(problem.restarts):
        rng = derive_rng(problem.seed, "anneal", restart)
        colours = np.repeat(np.arange(1, k + 1, dtype=np.int64), sizes0)
        rng.shuffle(colours)
        sizes = list(sizes0)
        count = _bichromatic_count(w, colours)
        run_count, run_colours = count, colours.copy()
        temperature = float(w.degree_bound)

        for step in range(problem.budget):
            kind = rng.random()
            if k == 1:
                break
            if kind < 0.05 and step % MERGE_MOVE_PERIOD == 0:
                accepted = _try_merge_move(w, colours, sizes, windows, rng)
                if accepted is not None:
                    count += accepted
            elif kind < 0.65:
                u = int(rng.integers(w.n))
                v = int(rng.integers(w.n))
                cu, cv = int(colours[u]), int(colours[v])
                if cu != cv:
                    d1 = _recolour_delta(w, colours, u, cv)
                    colours[u] = cv
                    d2 = _recolour_delta(w, colours, v, cu)
                    delta = d1 + d2
                    if delta <= 0 or rng.random() < math.exp(-(delta / w.n) / temperature):
                        colours[v] = cu
                        count += delta
                    else:
                        colours[u] = cu
            else:
                u = int(rng.integers(w.n))
                new = int(rng.integers(1, k + 1))
                old = int(colours[u])
                if new != old and sizes[old - 1] > windows[old - 1][0] and sizes[new - 1] < windows[new - 1][1]:
                    delta = _recolour_delta(w, colours, u, new)
                    if delta <= 0 or rng.random() < math.exp(-(delta / w.n) / temperature):
                        colours[u] = new
                        sizes[old - 1] -= 1
                        sizes[new - 1] += 1
                        count += delta
            temperature *= COOLING
            if count < run_count:
                run_count, run_colours = count, colours.copy()
            if (step + 1) % epoch_len == 0:
                trace.append((restart, step + 1, run_count / w.n))

        if restart == 0 or run_count < best_count:
            best_count, best_colours = run_count, run_colours

    return _result(Colouring(w, k, best_colours), best_count, tuple(trace), certificate=False)


def _try_merge_move(w, colours, sizes, windows, rng) -> int | None:
    """Propose a full-cluster relocation; apply when balance survives.

    Returns the objective count delta when applied, else None.  The move
    recolours one source-part cluster adjacent to the target part, which
    can only delete boundary (the decrement identity), so it is always
    accepted when feasible.  Clusters come in order of smallest vertex, as
    ``decompose`` numbers them.
    """
    k = len(sizes)
    r = int(rng.integers(1, k + 1))
    b = int(rng.integers(1, k + 1))
    if r == b:
        return None
    clusters = flood_fill_clusters(w, colours == r)
    rows = w.neighbour_rows
    entries = [sum(1 for u in members for v in rows[u] if colours[v] == b) for members in clusters]
    touching = [c for c, count in enumerate(entries) if count]
    if not touching:
        return None
    cluster = touching[int(rng.integers(len(touching)))]
    members = clusters[cluster]
    moved = len(members)
    if not (
        windows[r - 1][0] <= sizes[r - 1] - moved
        and sizes[b - 1] + moved <= windows[b - 1][1]
    ):
        return None
    colours[members] = b
    sizes[r - 1] -= moved
    sizes[b - 1] += moved
    return -2 * entries[cluster]
