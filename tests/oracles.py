"""Independent oracles for the test suite.

These deliberately avoid the library's own algorithms: cluster counts come
from a BFS flood fill rather than scipy.sparse.csgraph, ball isomorphism from a
permutation backtracking search rather than canonical labelling, shortest
paths from plain BFS, exact partition optima from combinations
enumeration, and mass-transport sums from two fresh balls per directed edge
rather than one streaming pass through the window's mirror permutation.  Expected values in tests are computed (or were frozen) from
these, never from the code paths under test.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from urglab.balls import ball


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


def rooted_coloured_isomorphic(a, b) -> bool:
    """Backtracking search for a root-, colour-, and multiplicity-preserving
    isomorphism between two balls."""
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    if sorted(a.colours) != sorted(b.colours):
        return False

    def adjacency(ball):
        adj = [dict() for _ in range(ball.n)]
        for i, j in ball.edges:
            if i == j:
                adj[i][i] = adj[i].get(i, 0) + 1
            else:
                adj[i][j] = adj[i].get(j, 0) + 1
                adj[j][i] = adj[j].get(i, 0) + 1
        return adj

    adj_a, adj_b = adjacency(a), adjacency(b)
    mapping = [-1] * a.n
    used = [False] * b.n

    def compatible(i: int, j: int) -> bool:
        if a.colours[i] != b.colours[j] or a.distances[i] != b.distances[j]:
            return False
        if sum(adj_a[i].values()) != sum(adj_b[j].values()):
            return False
        for k, mult in adj_a[i].items():
            if mapping[k] >= 0 and adj_b[j].get(mapping[k], 0) != mult:
                return False
        return True

    def extend(i: int) -> bool:
        if i == a.n:
            return True
        for j in range(b.n):
            if not used[j] and compatible(i, j):
                mapping[i] = j
                used[j] = True
                if extend(i + 1):
                    return True
                mapping[i] = -1
                used[j] = False
        return False

    # roots must map to each other
    if not compatible(0, 0):
        return False
    mapping[0] = 0
    used[0] = True
    return extend(1)


def ball_is_tree(ball) -> bool:
    """Connected by construction, so a tree iff |E| = n - 1 with no loops."""
    if any(i == j for i, j in ball.edges):
        return False
    if len(set(ball.edges)) != len(ball.edges):
        return False
    return len(ball.edges) == ball.n - 1


def mtp_sums(window, colouring, transport) -> tuple[float, float]:
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
            lhs += float(transport.evaluate(around_u, around_u.local_index[v]))
            rhs += float(transport.evaluate(around_v, around_v.local_index[u]))
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
