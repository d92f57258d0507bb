"""Percolation clusters, connecting factor edges, and connection-cost
upper bounds.

A subset of window vertices (a boolean mask) decomposes into clusters:
connected components of the induced subgraph.  The cheapest way to join all
clusters into one component is a minimum spanning tree over the cluster
quotient with inter-cluster graph distances as weights; the retained witness
pairs (int64 arrays) realize those distances exactly.  From the induced
degrees plus the connecting pairs one gets an empirical upper bound on the
connection cost per vertex,

    empirical = 1 + (1/2) * (avg induced degree + 2 |extra| / n_in) * iota - iota,

to compare against the coarse ceiling 1 + iota * |S| (iota = subset
intensity, |S| = degree bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order, connected_components, minimum_spanning_tree

from .graphs import WindowGraph


class DisconnectedClustersError(ValueError):
    """Clusters sit in different window components; lists the grouping."""

    def __init__(self, components: dict[int, list[int]]):
        self.components = components
        parts = "; ".join(f"component {k}: clusters {v}" for k, v in sorted(components.items()))
        super().__init__(f"clusters span multiple window components ({parts})")


@dataclass(frozen=True, eq=False)
class ClusterDecomposition:
    """Connected components of the subset-induced subgraph.

    Cluster ids are contiguous 0..count-1, ordered by each cluster's
    smallest vertex; cluster_id is -1 outside the subset.
    """

    window: WindowGraph
    mask: np.ndarray
    cluster_id: np.ndarray
    count: int
    sizes: tuple[int, ...]

    def vertices_of(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.cluster_id == cluster)


def decompose(w: WindowGraph, mask: np.ndarray) -> ClusterDecomposition:
    """Connected components of the subgraph induced on the vertices where
    ``mask``, a boolean array of shape ``(w.n,)``, holds; the decomposition
    keeps ``mask`` itself.  Any other array raises ValueError.

    csgraph numbers components in order of their smallest vertex, and the
    in-vertices are taken in increasing order, so its labels are already
    the cluster ids.
    """
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != (w.n,):
        raise ValueError(f"subset mask must be a boolean array of shape ({w.n},)")
    inside = np.flatnonzero(mask)
    count, labels = connected_components(w.csr[inside][:, inside], directed=False)
    cluster_id = np.full(w.n, -1, dtype=np.int64)
    cluster_id[inside] = labels
    return ClusterDecomposition(
        window=w,
        mask=mask,
        cluster_id=cluster_id,
        count=int(count),
        sizes=tuple(np.bincount(labels, minlength=count).tolist()),
    )


# ----------------------------------------------------------------------
# Connecting factor edges
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FactorGraphEdges:
    """Extra vertex pairs joining distinct clusters, as int64 arrays: row i of
    ``pairs`` and of ``cluster_pairs`` (both (m, 2)) is a vertex pair and its
    two clusters, ``distances[i]`` their true inter-cluster graph distance."""

    pairs: np.ndarray
    distances: np.ndarray
    cluster_pairs: np.ndarray


def connect_clusters(dec: ClusterDecomposition) -> FactorGraphEdges:
    """Minimum spanning tree over the cluster quotient graph.

    One breadth-first search from all in-vertices at once partitions the
    window into nearest-cluster regions.  Every window edge joining two
    regions gives a candidate pair (the two region anchors, weight = path
    length through that edge); each cluster pair keeps its smallest
    candidate, and the result is a minimum spanning tree of that candidate
    graph.  Every retained pair realizes the true distance between its
    clusters: a shortest path between two clusters crosses regions only
    through candidates no heavier than its length, so by the cycle property
    no minimum spanning tree keeps an overestimate.

    The same tree decides whether the clusters can be joined at all.  Every
    vertex of a window component that holds a cluster lies in some region,
    and consecutive regions along any path are joined by a candidate, so the
    candidate graph is connected exactly when all clusters share one window
    component.  A tree with fewer than ``count - 1`` edges therefore means a
    split window, and only then are the window components computed, to
    name them in ``DisconnectedClustersError``.

    Ties: the in-vertices enter the search queue in increasing id order and
    every other vertex takes the anchor of its search predecessor (on an
    8-cycle with in-vertices 0 and 4, both 2 and 6 go to 0, since 7 is
    dequeued before 5); a cluster pair keeps its shortest candidate, the
    first in ``edge_arrays`` row order among equal ones; the tree is scipy's
    ``minimum_spanning_tree``.  Which witness pairs are kept may change with
    the tie rule, the multiset of ``distances`` cannot, since every minimum
    spanning tree has the same edge weights.  Pairs are listed in increasing
    ``cluster_pairs`` order.
    """
    if dec.count <= 1:
        return FactorGraphEdges(np.empty((0, 2), np.int64), np.empty(0, np.int64), np.empty((0, 2), np.int64))

    w = dec.window
    inside = np.flatnonzero(dec.mask)
    anchor, dist = _nearest_in_vertex(w, inside)
    # each vertex's nearest cluster, -1 where no in-vertex reaches it (anchor -1 reads the last slot)
    cluster_of = np.empty(w.n + 1, dtype=np.int32)
    cluster_of[:-1] = dec.cluster_id
    cluster_of[-1] = -1
    region = cluster_of.take(anchor)
    src, dst = w.edge_arrays
    ca, cb = region.take(src), region.take(dst)
    # each boundary edge appears once per direction; keep the one with ca < cb.  An unreached
    # vertex has only unreached neighbours, so every kept entry has ca >= 0
    keep = np.flatnonzero(ca < cb)
    src, dst, ca, cb = src.take(keep), dst.take(keep), ca.take(keep), cb.take(keep)
    d = dist.take(src) + 1 + dist.take(dst)
    order = _lex_order(ca, cb, d)
    ca, cb = ca.take(order), cb.take(order)
    # the first of each cluster pair's run is its best candidate; only these go back to int64
    first = np.flatnonzero((np.diff(ca, prepend=-1) != 0) | (np.diff(cb, prepend=-1) != 0))
    best = order.take(first)
    ca, cb = ca.take(first).astype(np.int64), cb.take(first).astype(np.int64)

    # the candidates are in cluster-pair order, so they are the quotient's CSR rows as they stand
    indptr = np.searchsorted(ca, np.arange(dec.count + 1))
    quotient = sparse.csr_array((d.take(best), cb, indptr), shape=(dec.count, dec.count))
    # scipy returns int32 indices; the pair keys below pass 2^31 once count > 46340
    rows, cols = (a.astype(np.int64) for a in minimum_spanning_tree(quotient).nonzero())
    if len(rows) < dec.count - 1:
        _, component = connected_components(w.csr, directed=False)
        cluster_component = np.empty(dec.count, dtype=np.int64)
        cluster_component[dec.cluster_id[inside]] = component[inside]
        grouping: dict[int, list[int]] = {}
        for cid, comp_id in enumerate(cluster_component.tolist()):
            grouping.setdefault(comp_id, []).append(cid)
        raise DisconnectedClustersError(grouping)
    tree_pairs = np.minimum(rows, cols) * dec.count + np.maximum(rows, cols)
    in_tree = np.sort(np.searchsorted(ca * dec.count + cb, tree_pairs))
    kept = best.take(in_tree)
    return FactorGraphEdges(
        np.stack((anchor.take(src.take(kept)), anchor.take(dst.take(kept))), axis=1),
        d.take(kept),
        np.stack((ca.take(in_tree), cb.take(in_tree)), axis=1),
    )


def _lex_order(*keys: np.ndarray) -> np.ndarray:
    """The stable order that sorts by ``keys[0]``, ties by ``keys[1]``, and so on: ``np.lexsort(keys[::-1])``.

    One in-place ``np.sort`` per key, least significant first, of the key gathered in the
    current order and shifted above each entry's rank in it, so equal keys keep their order.
    Keys must be non-negative and below 2^(63 - bits), where bits is the rank's bit length:
    ``connect_clusters`` sorts keys below 2^28 under ranks below 2^27.
    """
    m = len(keys[0])
    bits = max(m - 1, 0).bit_length()
    rank = np.arange(m, dtype=np.int64)
    order = rank
    for key in reversed(keys):
        packed = np.left_shift(key.take(order), bits, dtype=np.int64)
        packed |= rank
        packed.sort()
        packed &= (1 << bits) - 1
        order = order.take(packed)
    return order


def _nearest_in_vertex(w: WindowGraph, inside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's anchor, a nearest vertex of ``inside``, and its distance to that anchor,
    as int64 arrays; a vertex that no in-vertex reaches gets anchor -1 and distance 0.

    One breadth-first search runs from a virtual root, vertex ``w.n``, whose row lists
    ``inside``: the in-vertices enter the queue in increasing id order, and every other
    vertex takes the anchor of its search predecessor.  Pointer jumping up the predecessor
    array then finds every anchor and depth in about log2(max depth) vectorised passes.
    """
    n = w.n
    # the search graph in csgraph's own int32 index type, so scipy makes no index copy
    indptr = np.empty(n + 2, dtype=np.int32)
    indptr[:-1] = w.indptr
    indptr[-1] = w.indptr[-1] + inside.size
    indices = np.concatenate((w.indices, inside), dtype=np.int32)
    g = sparse.csr_array((np.ones(indices.size), indices, indptr), shape=(n + 1, n + 1))
    pred = breadth_first_order(g, n, directed=True, return_predecessors=True)[1][:n]
    # up[v] is the ancestor dist[v] steps up from v; in-vertices and unreached vertices are their own
    hop = (pred >= 0) & (pred < n)
    up = np.where(hop, pred, np.arange(n))
    dist = hop.astype(np.int64)
    while not np.array_equal(nxt := up[up], up):
        dist += dist[up]
        up = nxt
    up[pred < 0] = -1
    return up, dist


# ----------------------------------------------------------------------
# Cost bounds
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CostBound:
    intensity: float
    half_degree: float  # (1/2) E[factor-graph degree at a uniform root]
    lemma_bound: float  # 1 + intensity * |S|
    empirical_bound: float  # 1 + half_degree - intensity
    extra_pairs: int

    def __post_init__(self):
        if self.lemma_bound < 1.0:
            raise ValueError("ceiling bound cannot drop below 1")


def cost_upper_bound(dec: ClusterDecomposition, extra: FactorGraphEdges) -> CostBound:
    """Both cost bounds for the factor graph (induced edges + extra pairs)
    of ``dec``'s subset in its window.

    Requires ``extra`` to actually connect the decomposition; the factor
    graph degree of an in-vertex is its induced degree plus its incident
    extra pairs, and the root expectation rescales by the intensity.
    """
    w, mask = dec.window, dec.mask
    if dec.count >= 1:
        ca, cb = extra.cluster_pairs.T
        quotient = sparse.csr_array((np.ones(len(ca)), (ca, cb)), shape=(dec.count, dec.count))
        if connected_components(quotient, directed=False)[0] != 1:
            raise ValueError("extra pairs do not connect the clusters")

    n_in = int(mask.sum())
    iota = n_in / w.n
    lemma = 1.0 + iota * w.degree_bound
    if n_in == 0:
        return CostBound(0.0, 0.0, lemma, 1.0, 0)
    src, dst = w.edge_arrays
    induced_directed = int(np.count_nonzero(mask[src] & mask[dst]))
    avg_induced_degree = induced_directed / n_in
    half_degree = 0.5 * (avg_induced_degree + 2.0 * len(extra.pairs) / n_in) * iota
    empirical = 1.0 + half_degree - iota
    return CostBound(iota, half_degree, lemma, empirical, len(extra.pairs))


def gaboriau_induction(cost_restricted: float, mu_A: float) -> float:
    """Full-space cost bound from a restricted one: 1 + mu_A * (cost_restricted - 1)."""
    # written so that NaN fails both checks
    if not 0.0 < mu_A <= 1.0:
        raise ValueError("mu_A must lie in (0, 1]")
    if not 1.0 <= cost_restricted < math.inf:
        raise ValueError("restricted cost must be finite and at least 1")
    return 1.0 + mu_A * (cost_restricted - 1.0)
