"""Cluster decomposition, connecting pairs, and cost bounds."""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from oracles import (
    build_explicit,
    flood_fill_clusters,
    mutated,
    prim_tree_weight,
    set_distance,
    shortest_path_distance,
    spanning_connected,
    tie_rule_connecting_pairs,
)

import urglab.clusters
from urglab.clusters import (
    DisconnectedClustersError,
    _lex_order,
    _nearest_in_vertex,
    connect_clusters,
    cost_upper_bound,
    decompose,
    gaboriau_induction,
)
from urglab.colourings import sample, subset_mask
from urglab.graphs import build_complete, build_random_regular, build_torus_window


def cycle(n):
    return build_torus_window(1, n)


def spaced_subset(w, k):
    mask = np.zeros(w.n, dtype=bool)
    mask[::k] = True
    return mask


def test_full_subset_single_cluster():
    w = build_torus_window(2, 4)
    dec = decompose(w, np.ones(w.n, dtype=bool))
    assert dec.count == 1 and dec.sizes == (16,)


def test_empty_subset_no_clusters():
    w = cycle(8)
    dec = decompose(w, np.zeros(8, dtype=bool))
    assert dec.count == 0 and dec.sizes == ()


def test_cycle_three_in_vertices():
    w = cycle(8)
    dec = decompose(w, np.isin(np.arange(8), [0, 1, 4]))
    assert dec.count == 2
    assert sorted(dec.sizes) == [1, 2]
    assert dec.cluster_id[0] == dec.cluster_id[1] == 0
    assert dec.cluster_id[4] == 1


def test_decompose_refuses_anything_but_a_vertex_mask():
    # a Colouring once decomposed as one cluster of size 1, and a short mask was accepted
    w = build_torus_window(2, 4)
    for mask in (sample([1.0, 0.0], w, 0), np.ones(15, dtype=bool),
                 np.ones((16, 1), dtype=bool), np.ones(16, dtype=np.int64)):
        with pytest.raises(ValueError, match=r"boolean array of shape \(16,\)"):
            decompose(w, mask)


def test_decompose_matches_flood_fill_oracle():
    rng = np.random.default_rng(3)
    windows = [build_torus_window(2, 6), build_random_regular(2, 50, seed=1), cycle(30)]
    for trial in range(300):
        w = windows[trial % len(windows)]
        mask = rng.random(w.n) < rng.uniform(0.1, 0.9)
        dec = decompose(w, mask)
        oracle = flood_fill_clusters(w, mask)
        assert dec.count == len(oracle)
        assert [sorted(dec.vertices_of(i).tolist()) for i in range(dec.count)] == oracle


def summed_count_matrix(w) -> sparse.csr_array:
    """The window as a matrix of entry counts built through COO: parallel entries summed, a loop 2."""
    src, dst = w.edge_arrays
    return sparse.csr_array((np.ones(src.size), (src, dst)), shape=(w.n, w.n))


def cluster_outcome(w, mask):
    """Everything decompose and connect_clusters report, as plain values (or the split's grouping)."""
    dec = decompose(w, mask)
    try:
        extra = connect_clusters(dec)
    except DisconnectedClustersError as err:
        return dec.cluster_id.tolist(), dec.sizes, err.components
    return dec.cluster_id.tolist(), dec.sizes, [a.tolist() for a in (extra.pairs, extra.distances, extra.cluster_pairs)]


def test_csgraph_view_matches_summed_counts():
    # csgraph reads one unit entry per directed entry; the summed-count matrix, with parallel
    # entries added up and loops held as 2, must give the same clusters, pairs and splits
    multi = 0
    for k, n in [(1, 9), (2, 7), (2, 30), (3, 9)]:
        for seed in range(5):
            w, oracle = build_random_regular(k, n, seed=seed), build_random_regular(k, n, seed=seed)
            oracle.__dict__["csr"] = summed_count_matrix(oracle)  # the cached property's slot
            multi += summed_count_matrix(w).data.max() > 1
            for p in (0.05, 0.3, 0.6):
                mask = subset_mask(sample([p, 1.0 - p], w, seed=seed))
                assert cluster_outcome(w, mask) == cluster_outcome(oracle, mask), (k, n, seed, p)
    assert multi > 0  # some windows hold loops or parallel edges


def test_regions_follow_the_search_queue():
    # the in-vertices enter the queue in increasing id order and every other vertex takes its
    # predecessor's anchor: 7 is dequeued before 4's branch reaches 6, so both 2 and 6 go to 0
    anchor, dist = _nearest_in_vertex(cycle(8), np.array([0, 4]))
    assert anchor.tolist() == [0, 0, 0, 4, 4, 4, 0, 0]
    assert dist.tolist() == [0, 1, 2, 1, 0, 1, 2, 1]
    assert anchor.dtype == dist.dtype == np.int64


def test_regions_match_set_distance_oracle():
    # every reached vertex lies at its set distance from the in-vertices, from an in-vertex at
    # exactly that distance; a vertex of a component without in-vertices keeps anchor -1
    windows = [build_torus_window(2, 9), cycle(40), build_torus_window(3, 4),
               *[build_random_regular(k, 60, seed=s) for k in (1, 2) for s in range(3)]]
    assert any(summed_count_matrix(w).data.max() > 1 for w in windows)  # loops or parallel edges
    cases = [(w, subset_mask(sample([p, 1.0 - p], w, seed=i))) for i, w in enumerate(windows)
             for p in (0.05, 0.2, 0.5)]
    # {7, 8} and the isolated 9 hold no in-vertex
    split = build_explicit(10, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (7, 8)])
    cases.append((split, np.isin(np.arange(10), [0, 3, 5])))
    for i, (w, mask) in enumerate(cases):
        inside = np.flatnonzero(mask)
        anchor, dist = _nearest_in_vertex(w, inside)
        members = set(inside.tolist())
        for v in range(w.n):
            d = set_distance(w, members, {v})
            if d < 0:
                assert anchor[v] == -1, (i, v)
                continue
            assert dist[v] == d, (i, v)
            assert anchor[v] in members and shortest_path_distance(w, int(anchor[v]), v) == d, (i, v)
    assert anchor.tolist() == [0, 0, 3, 3, 5, 5, 5, -1, -1, -1]  # the split window, checked last


def test_connect_two_antipodal_vertices():
    w = cycle(8)
    dec = decompose(w, np.isin(np.arange(8), [0, 4]))
    extra = connect_clusters(dec)
    assert len(extra.pairs) == 1
    u, v = extra.pairs[0]
    assert np.array_equal(extra.distances, [4])
    assert shortest_path_distance(w, u, v) == 4


def test_connect_single_cluster_empty():
    w = cycle(8)
    dec = decompose(w, np.ones(8, dtype=bool))
    assert np.array_equal(connect_clusters(dec).pairs, np.empty((0, 2)))


# permutation-model windows carry loops and parallel edges
def test_connect_makes_subset_connected():
    for w in (build_torus_window(2, 16), build_random_regular(3, 200, seed=4),
              build_random_regular(2, 150, seed=5)):
        for seed in range(5):
            subset = subset_mask(sample([0.2, 0.8], w, seed))
            dec = decompose(w, subset)
            extra = connect_clusters(dec)
            assert len(extra.pairs) == dec.count - 1
            assert spanning_connected(w, dec.mask, extra.pairs)
            # pairs are listed in strictly increasing cluster_pairs order, ca < cb
            cluster_pairs = extra.cluster_pairs.tolist()
            assert all(ca < cb for ca, cb in cluster_pairs)
            assert all(a < b for a, b in zip(cluster_pairs, cluster_pairs[1:]))


def test_connect_returns_int64_arrays():
    w = build_torus_window(2, 16)
    for mask in (subset_mask(sample([0.2, 0.8], w, 0)), np.ones(w.n, dtype=bool)):
        dec = decompose(w, mask)
        extra = connect_clusters(dec)
        m = dec.count - 1
        assert [(a.dtype, a.shape) for a in (extra.pairs, extra.distances, extra.cluster_pairs)] == [
            (np.int64, (m, 2)), (np.int64, (m,)), (np.int64, (m, 2))]


def test_connect_success_path_skips_window_components(monkeypatch):
    # the window components are computed only to name a split window
    w = build_random_regular(3, 200, seed=4)
    dec = decompose(w, subset_mask(sample([0.2, 0.8], w, 0)))

    def unexpected(*args, **kwargs):
        raise AssertionError("connected_components ran on the success path")

    monkeypatch.setattr("urglab.clusters.connected_components", unexpected)
    assert len(connect_clusters(dec).pairs) == dec.count - 1


def test_connect_order_does_not_rest_on_tree_storage(monkeypatch):
    # the same tree stored transposed must list the same pairs in the same order
    w = build_torus_window(2, 16)
    dec = decompose(w, subset_mask(sample([0.2, 0.8], w, 0)))
    expected = connect_clusters(dec)
    monkeypatch.setattr("urglab.clusters.minimum_spanning_tree",
                        lambda graph: minimum_spanning_tree(graph).T.tocsr())
    got = connect_clusters(dec)
    for field in ("pairs", "distances", "cluster_pairs"):
        assert np.array_equal(getattr(got, field), getattr(expected, field))


def test_connect_pairs_realize_cluster_distances():
    for w in (build_torus_window(2, 12), build_random_regular(3, 150, seed=6),
              build_random_regular(2, 100, seed=7)):
        subset = subset_mask(sample([0.15, 0.85], w, 11))
        dec = decompose(w, subset)
        extra = connect_clusters(dec)
        clusters = [set(dec.vertices_of(i).tolist()) for i in range(dec.count)]
        for (u, v), d, (ca, cb) in zip(extra.pairs, extra.distances, extra.cluster_pairs):
            assert u in clusters[ca] and v in clusters[cb]
            assert shortest_path_distance(w, u, v) == d
            assert set_distance(w, clusters[ca], clusters[cb]) == d


def test_connect_total_is_minimum_spanning_weight():
    for w in (build_torus_window(2, 5), build_torus_window(2, 8),
              build_random_regular(2, 40, seed=8), build_random_regular(2, 60, seed=9)):
        for seed in range(4):
            subset = subset_mask(sample([0.2, 0.8], w, seed))
            dec = decompose(w, subset)
            clusters = [set(dec.vertices_of(i).tolist()) for i in range(dec.count)]
            weights = [[set_distance(w, a, b) for b in clusters] for a in clusters]
            assert sum(connect_clusters(dec).distances) == prim_tree_weight(weights)


def test_connect_is_tree_minimal():
    # removing any retained pair disconnects the subset again
    w = build_torus_window(2, 10)
    subset = subset_mask(sample([0.25, 0.75], w, 3))
    dec = decompose(w, subset)
    extra = connect_clusters(dec)
    for skip in range(len(extra.pairs)):
        reduced = [p for i, p in enumerate(extra.pairs) if i != skip]
        assert not spanning_connected(w, dec.mask, reduced)


def test_lex_order_matches_lexsort_of_reversed_keys():
    # heavy ties in every key, and sizes on both sides of a bit-length step of the rank
    rng = np.random.default_rng(17)
    least_first = mutated(urglab.clusters, "_lex_order", "for key in reversed(keys):", "for key in keys:")
    mutant_differs = False
    for m in (0, 1, 2, 3, 8, 9, 64, 65, 1024, 1025):
        for trial in range(4):
            keys = (rng.integers(0, 3, m).astype(np.int32), rng.integers(0, 4, m).astype(np.int32),
                    rng.integers(0, 1 << 27, m) if trial == 0 else rng.integers(0, 5, m))
            expected = np.lexsort(keys[::-1])
            got = _lex_order(*keys)
            assert got.dtype == np.int64 and np.array_equal(got, expected), (m, trial)
            mutant_differs |= not np.array_equal(least_first(*keys), expected)
    assert mutant_differs


def tie_rich_cases():
    """Windows whose cluster pairs often have several candidates at the least distance."""
    windows = [cycle(12), cycle(41), build_torus_window(2, 8), build_torus_window(2, 13),
               build_torus_window(3, 5), build_complete(9), build_complete(16),
               *[build_random_regular(k, n, seed=s) for k, n in ((1, 9), (2, 40), (3, 60)) for s in range(2)]]
    assert any(summed_count_matrix(w).data.max() > 1 for w in windows)  # loops or parallel edges
    for i, w in enumerate(windows):
        for p in (0.1, 0.3, 0.5):
            yield w, subset_mask(sample([p, 1.0 - p], w, seed=i))


def test_connect_keeps_first_equidistant_candidate():
    # each cluster pair keeps its first least-distance candidate in edge_arrays row order; a
    # copy that keeps the last of each run of equal (cluster pair, distance) keys must differ
    keeps_last = mutated(urglab.clusters, "connect_clusters", "order = _lex_order(ca, cb, d)",
                         "order = len(d) - 1 - _lex_order(ca[::-1], cb[::-1], d[::-1])")
    joined = mutant_differs = 0
    for w, mask in tie_rich_cases():
        # the k = 1 permutation windows are unions of cycles; the reference needs an in-vertex
        if connected_components(w.csr)[0] > 1 or not mask.any():
            continue
        dec = decompose(w, mask)
        expected = tie_rule_connecting_pairs(w, mask)
        got = connect_clusters(dec)
        for field in ("pairs", "distances", "cluster_pairs"):
            a, b = getattr(got, field), getattr(expected, field)
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b), (w.model, w.params, field)
        joined += dec.count > 1  # an induced subgraph of K_n is one cluster
        mutant_differs += not np.array_equal(keeps_last(dec).pairs, expected.pairs)
    assert joined >= 20 and mutant_differs >= 5, (joined, mutant_differs)


def test_connect_rejects_split_windows():
    w = build_explicit(6, [(0, 1), (2, 3), (4, 5)], tag="threepieces")
    dec = decompose(w, np.array([1, 0, 1, 0, 1, 0], dtype=bool))
    with pytest.raises(DisconnectedClustersError) as err:
        connect_clusters(dec)
    assert err.value.components == {0: [0], 1: [1], 2: [2]}
    assert str(err.value) == ("clusters span multiple window components "
                              "(component 0: clusters [0]; component 1: clusters [1]; "
                              "component 2: clusters [2])")
    # components keep the whole window's labels: the cluster-free {3, 4} is component 1
    w = build_explicit(9, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8)])
    dec = decompose(w, np.isin(np.arange(9), [0, 2, 5, 8]))
    with pytest.raises(DisconnectedClustersError) as err:
        connect_clusters(dec)
    assert err.value.components == {0: [0, 1], 2: [2, 3]}
    assert str(err.value) == ("clusters span multiple window components "
                              "(component 0: clusters [0, 1]; component 2: clusters [2, 3])")


def test_connect_ignores_cluster_free_component():
    # {4, 5} holds no cluster and is never reached; the clusters still connect
    w = build_explicit(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    dec = decompose(w, np.isin(np.arange(6), [0, 3]))
    extra = connect_clusters(dec)
    assert np.array_equal(extra.pairs, [[0, 3]])
    assert np.array_equal(extra.distances, [3])
    assert np.array_equal(extra.cluster_pairs, [[0, 1]])


def test_cost_bound_spaced_subsets_closed_form():
    # singleton clusters every k-th vertex of a cycle: no induced edges,
    # n/k - 1 connecting pairs, so the empirical bound lands on 1 - 1/n
    for k in (2, 4, 8):
        w = cycle(16 * k)
        subset = spaced_subset(w, k)
        dec = decompose(w, subset)
        extra = connect_clusters(dec)
        bound = cost_upper_bound(dec, extra)
        assert bound.intensity == pytest.approx(1.0 / k)
        assert bound.lemma_bound == pytest.approx(1.0 + 2.0 / k)
        assert bound.empirical_bound == pytest.approx(1.0 - 1.0 / w.n, abs=1e-12)
        assert bound.empirical_bound <= bound.lemma_bound


def test_connect_past_int32_pair_keys():
    # 50,000 singleton clusters: cluster-pair keys pass 2^31, which int32 tree indices once wrapped
    w = cycle(3 * 50000)
    dec = decompose(w, spaced_subset(w, 3))
    extra = connect_clusters(dec)
    assert len(extra.pairs) == dec.count - 1 == 49999
    assert np.array_equal(extra.distances, np.full(49999, 3))
    assert cost_upper_bound(dec, extra).empirical_bound == pytest.approx(1.0 - 1.0 / w.n, abs=1e-12)


def test_cost_bound_forest_subset_reads_one_minus_one_over_n():
    """A subset that induces a forest reads exactly 1 - 1/n, whatever the window.

    Four 15-vertex row paths of the 16^2 torus, four rows apart, induce a forest of four
    trees.  The induced trees and the three connecting pairs form one spanning tree of the
    60 in-vertices, so the empirical bound is 1 - 1/n on any window and any forest subset:
    this value carries no information about the cost of the window's group or action.
    Closing one path into an induced 16-cycle adds an edge, and the bound rises above it.
    """
    w = build_torus_window(2, 16)
    row, col = np.divmod(np.arange(w.n), 16)
    paths = np.isin(row, [0, 4, 8, 12]) & (col < 15)
    bounds = {}
    for name, mask in (("paths", paths), ("one cycle", paths | ((row == 0) & (col == 15)))):
        dec = decompose(w, mask)
        assert dec.count == 4
        bounds[name] = cost_upper_bound(dec, connect_clusters(dec)).empirical_bound
    assert bounds["paths"] == 1.0 - 1.0 / w.n == 0.99609375
    assert bounds["one cycle"] > 1.0 - 1.0 / w.n


def test_cost_bound_full_subset_rank_style():
    # full subset: empirical bound reduces to half the average degree
    w = cycle(10)
    dec = decompose(w, np.ones(10, dtype=bool))
    bound = cost_upper_bound(dec, connect_clusters(dec))
    assert bound.intensity == 1.0
    assert bound.empirical_bound == pytest.approx(1.0)  # half of average degree 2


def test_cost_bound_requires_connecting_pairs():
    w = cycle(8)
    dec = decompose(w, np.isin(np.arange(8), [0, 4]))
    from urglab.clusters import FactorGraphEdges

    with pytest.raises(ValueError):
        cost_upper_bound(dec, FactorGraphEdges(np.empty((0, 2), np.int64), np.empty(0, np.int64),
                                               np.empty((0, 2), np.int64)))


def test_cost_bound_empirical_at_least_one_minus_intensity():
    w = build_torus_window(2, 12)
    for seed in range(5):
        subset = subset_mask(sample([0.3, 0.7], w, seed))
        dec = decompose(w, subset)
        bound = cost_upper_bound(dec, connect_clusters(dec))
        assert bound.empirical_bound >= 1.0 - bound.intensity - 1e-12


def test_gaboriau_examples():
    assert gaboriau_induction(1.0, 0.37) == 1.0
    assert gaboriau_induction(3.0, 0.5) == 2.0
    assert gaboriau_induction(5.0, 0.1) == pytest.approx(1.4)
    with pytest.raises(ValueError):
        gaboriau_induction(2.0, 0.0)
    with pytest.raises(ValueError):
        gaboriau_induction(0.5, 0.5)


def test_gaboriau_rejects_nan_and_infinite_arguments():
    # comparisons with NaN are all False, so checks written as "reject if below" let NaN through
    for cost, mu in ((math.nan, 0.5), (2.0, math.nan), (math.inf, 0.5), (2.0, math.inf),
                     (-math.inf, 0.5), (2.0, -math.inf), (math.nan, math.nan)):
        with pytest.raises(ValueError):
            gaboriau_induction(cost, mu)


def test_gaboriau_monotone():
    costs = np.linspace(1.0, 6.0, 11)
    mus = np.linspace(0.05, 1.0, 11)
    for mu in mus:
        values = [gaboriau_induction(c, mu) for c in costs]
        assert all(a <= b for a, b in zip(values, values[1:]))
    for c in costs:
        values = [gaboriau_induction(c, mu) for mu in mus]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
