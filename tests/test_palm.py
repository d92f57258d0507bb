"""Poisson/Palm sampling, Voronoi assignment, cell volumes, the inversion
identity, local finiteness, and intensity estimation."""

import math

import numpy as np
import pytest
from scipy import stats

from urglab.clusters import connect_clusters, cost_upper_bound, decompose
from urglab.colourings import subset_colouring
from urglab.palm import (
    BUILTIN_FUNCTIONALS,
    BoundedFunctional,
    GuardViolation,
    cell_volume_mc,
    cell_volumes_shared,
    check_local_finiteness,
    palm_sample_poisson,
    pp_cost_bound,
    pp_intensity_estimate,
    sample_poisson,
    verify_mean_cell_volume,
    verify_voronoi_inversion,
    voronoi_adjacency_graph,
)
from urglab.torus import (
    FlatTorus,
    PointConfiguration,
    TorusBox,
    bulk_nearest,
    nearest_distance,
    nearest_index,
    nearest_point,
)

T2 = FlatTorus(2, 10.0)


def test_torus_metric_basics():
    t = FlatTorus(1, 8.0)
    assert t.distance(np.array([1.0]), np.array([7.0])) == pytest.approx(2.0)
    rng = np.random.default_rng(0)
    a, b, shift = rng.uniform(0, 8, (3, 1))
    assert t.distance(a, b) == pytest.approx(t.distance(b, a))
    assert t.distance(a + shift, b + shift) == pytest.approx(t.distance(a, b))


def test_wrap_stays_inside():
    t = FlatTorus(1, 20.0)
    assert 0.0 <= t.wrap(np.array([-1e-18]))[0] < 20.0
    assert t.wrap(np.array([20.0]))[0] == 0.0


def test_poisson_counts_moments():
    # mean over many seeds near t * volume, variance near the mean
    counts = np.array([len(sample_poisson(1.0, T2, seed=s)) for s in range(10**4)])
    assert abs(counts.mean() - 100.0) <= 3.0
    assert abs(counts.var() / counts.mean() - 1.0) <= 0.1


def test_poisson_determinism_and_distinctness():
    a = sample_poisson(0.5, T2, seed=5)
    b = sample_poisson(0.5, T2, seed=5)
    assert np.array_equal(a.points, b.points)


def test_configuration_rejects_duplicates():
    with pytest.raises(ValueError):
        PointConfiguration(T2, np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_palm_contains_origin():
    for seed in range(5):
        config = palm_sample_poisson(1.0, T2, seed=seed)
        assert config.rooted
        assert np.all(config.points[0] == 0.0)


def test_palm_void_probability():
    # mean count 0.5 on a tiny torus: the sample is just the origin with
    # probability exp(-0.5) ~ 0.6065
    torus = FlatTorus(1, 1.0)
    hits = sum(len(palm_sample_poisson(0.5, torus, seed=s)) == 1 for s in range(4000))
    p = hits / 4000
    assert abs(p - math.exp(-0.5)) <= 4 * math.sqrt(0.6 * 0.4 / 4000)


def test_palm_nonorigin_counts_match_poisson_chisquare():
    # added-origin construction: non-origin counts are plain Poisson counts
    t, torus = 1.0, FlatTorus(2, 6.0)
    mean = t * torus.volume
    trials = 3000
    palm_counts = np.array(
        [len(palm_sample_poisson(t, torus, seed=s)) - 1 for s in range(trials)]
    )
    edges = list(range(int(mean - 15), int(mean + 16)))
    observed = np.array(
        [np.count_nonzero(palm_counts == k) for k in edges]
        + [np.count_nonzero(palm_counts < edges[0]) + np.count_nonzero(palm_counts > edges[-1])]
    )
    expected_probs = [stats.poisson.pmf(k, mean) for k in edges]
    expected_probs.append(1.0 - sum(expected_probs))
    expected = trials * np.array(expected_probs)
    keep = expected >= 5
    chi2 = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
    p_value = stats.chi2.sf(chi2, keep.sum() - 1)
    assert p_value > 0.01


def test_palm_nearest_neighbour_ks_against_poisson():
    # with the origin removed, Palm samples are Poisson samples
    def nn_distances(config, drop_first):
        pts = config.points[1:] if drop_first else config.points
        if len(pts) < 2:
            return []
        sub = PointConfiguration(config.torus, pts)
        d, _ = sub.kdtree.query(pts, k=2)
        return d[:, 1].tolist()

    palm_nn, plain_nn = [], []
    for s in range(60):
        palm_nn.extend(nn_distances(palm_sample_poisson(1.0, T2, seed=s), True))
        plain_nn.extend(nn_distances(sample_poisson(1.0, T2, seed=10_000 + s), False))
    result = stats.ks_2samp(palm_nn, plain_nn)
    assert result.pvalue > 0.01


def test_nearest_point_single_and_exact_hit():
    config = PointConfiguration(T2, np.array([[2.0, 3.0]]))
    for g in (np.array([0.0, 0.0]), np.array([9.0, 9.0])):
        assert np.array_equal(nearest_point(config, g), np.array([2.0, 3.0]))
    multi = PointConfiguration(T2, np.array([[2.0, 3.0], [7.0, 1.0]]))
    assert np.array_equal(nearest_point(multi, np.array([7.0, 1.0])), np.array([7.0, 1.0]))


def test_nearest_point_tie_break_lexicographic():
    torus = FlatTorus(1, 4.0)
    config = PointConfiguration(torus, np.array([[3.0], [1.0]]))
    for _ in range(3):
        assert nearest_point(config, np.array([2.0]))[0] == 1.0
        assert nearest_point(config, np.array([0.0]))[0] == 1.0  # wraps: both at distance 1


def test_nearest_empty_rejected():
    empty = PointConfiguration(T2, np.zeros((0, 2)))
    with pytest.raises(ValueError):
        nearest_index(empty, np.zeros(2))
    assert nearest_distance(empty, np.zeros(2)) == math.inf


def test_bulk_assignment_minimizes_distance():
    rng = np.random.default_rng(6)
    config = sample_poisson(0.5, T2, seed=14)
    locations = rng.uniform(0, 10, (40, 2))
    dists, assigned = bulk_nearest(config, locations)
    assert dists.shape == assigned.shape == (40,)
    for g, dist, idx in zip(locations, dists, assigned):
        d_all = T2.distance_sq(config.points, g)
        assert d_all[idx] <= d_all.min() + 1e-12
        assert dist == pytest.approx(math.sqrt(d_all[idx]), abs=1e-12)


def test_translation_invariance_of_assignment():
    rng = np.random.default_rng(3)
    config = sample_poisson(1.0, T2, seed=8)
    for _ in range(25):
        g = rng.uniform(0, 10, 2)
        shift = rng.uniform(0, 10, 2)
        base = nearest_point(config, g)
        moved = nearest_point(config.shifted(shift), T2.wrap(g + shift))
        assert np.allclose(T2.delta(moved, base + shift), 0.0, atol=1e-9)


def test_cell_volume_single_point_exact():
    config = PointConfiguration(T2, np.array([[4.0, 4.0]]))
    report = cell_volume_mc(config, np.array([4.0, 4.0]), 500, seed=2)
    assert report.estimate == T2.volume
    assert report.stderr == 0.0


def test_cell_volume_antipodal_pair():
    torus = FlatTorus(1, 2.0)
    config = PointConfiguration(torus, np.array([[0.5], [1.5]]))
    report = cell_volume_mc(config, np.array([0.5]), 20000, seed=3)
    assert abs(report.estimate - 1.0) <= 3 * max(report.stderr, 1e-6)


def test_cell_volume_requires_member_point():
    config = PointConfiguration(T2, np.array([[4.0, 4.0]]))
    with pytest.raises(ValueError):
        cell_volume_mc(config, np.array([1.0, 1.0]), 100, seed=0)


def test_shared_cell_volumes_partition_exactly():
    config = sample_poisson(1.0, T2, seed=4)
    volumes = cell_volumes_shared(config, 5000, seed=5)
    assert volumes.sum() == pytest.approx(T2.volume, abs=1e-9)
    assert len(volumes) == len(config)


def test_mean_cell_volume_small_run():
    report, values = verify_mean_cell_volume(1.0, T2, trials=200, m=2000, seed=6)
    assert len(values) == 200
    assert report.target == 1.0
    assert report.abs_error <= 4 * report.stderr


def test_mean_cell_volume_guard():
    with pytest.raises(GuardViolation):
        verify_mean_cell_volume(0.01, FlatTorus(1, 10.0), trials=10, m=100, seed=0)


def test_inversion_constant_functional():
    f = BUILTIN_FUNCTIONALS["one"]()
    report, lhs_values, rhs_values = verify_voronoi_inversion(f, 1.0, T2, 200, 4000, seed=7)
    assert np.all(lhs_values == 1.0)
    assert report.lhs == 1.0
    assert report.diff <= 4 * max(report.combined_stderr, 1e-12)


def test_inversion_radial_functionals_small():
    for name in ("capped-nearest-distance", "ball-occupied"):
        f = BUILTIN_FUNCTIONALS[name]()
        report, _, _ = verify_voronoi_inversion(f, 1.0, T2, 300, 4000, seed=8)
        assert report.diff <= 4 * report.combined_stderr


def test_inversion_generic_path_agrees_with_radial():
    # drop the fast path and make sure the generic shifted-configuration
    # evaluation estimates the same quantity
    radial = BUILTIN_FUNCTIONALS["ball-occupied"]()
    generic = BoundedFunctional("ball-occupied-generic", 1.0, radial.value, radial=None)
    torus = FlatTorus(2, 6.0)
    rep_r, _, _ = verify_voronoi_inversion(radial, 1.0, torus, 150, 800, seed=9)
    rep_g, _, _ = verify_voronoi_inversion(generic, 1.0, torus, 150, 800, seed=9)
    assert rep_g.rhs == pytest.approx(rep_r.rhs, abs=1e-12)  # same draws, same estimate


def test_inversion_rejects_unbounded():
    with pytest.raises(ValueError):
        BoundedFunctional("bad", math.inf, lambda c: 1.0)


def test_local_finiteness_single_point():
    config = PointConfiguration(T2, np.array([[1.0, 1.0]]))
    report = check_local_finiteness(config, np.array([5.0, 5.0]), 200, seed=1)
    assert report.minimizer_count == 1
    assert report.holds


def test_local_finiteness_poisson():
    rng = np.random.default_rng(12)
    for s in range(5):
        config = sample_poisson(1.0, FlatTorus(2, 20.0), seed=s)
        h = rng.uniform(0, 20, 2)
        report = check_local_finiteness(config, h, 1000, seed=s)
        assert report.violations == 0


def test_local_finiteness_constructed_tie():
    # two points at distance R from h, a third at R + 0.5: eps must be 0.5
    torus = FlatTorus(2, 20.0)
    h = np.array([10.0, 10.0])
    pts = np.array([[12.0, 10.0], [8.0, 10.0], [10.0, 12.5]])
    config = PointConfiguration(torus, pts)
    report = check_local_finiteness(config, h, 500, seed=3)
    assert report.minimizer_count == 2
    assert report.eps == pytest.approx(0.5)
    assert report.holds


def test_intensity_poisson():
    configs = [sample_poisson(2.0, T2, seed=s) for s in range(300)]
    report = pp_intensity_estimate(configs, T2, master_seed=0)
    assert abs(report.estimate - 2.0) <= 3 * report.stderr


def test_intensity_lattice_exact():
    torus = FlatTorus(2, 5.0)
    grid = np.array([[x, y] for x in range(5) for y in range(5)], dtype=float)
    config = PointConfiguration(torus, grid)
    report = pp_intensity_estimate([config], torus)
    assert report.estimate == 1.0
    boxed = pp_intensity_estimate([config], torus, region=TorusBox((3.0, 3.0)))
    assert boxed.estimate == 1.0


def test_intensity_empty_process():
    empty = PointConfiguration(T2, np.zeros((0, 2)))
    report = pp_intensity_estimate([empty, empty], T2)
    assert report.estimate == 0.0
    with pytest.raises(ValueError):
        pp_intensity_estimate([empty], T2, region=TorusBox((0.0, 1.0)))


def test_pp_cost_bound_arithmetic():
    assert pp_cost_bound(1.0, 0.0) == 1.0
    assert pp_cost_bound(0.1, 0.5) == pytest.approx(1.05)
    with pytest.raises(ValueError):
        pp_cost_bound(1.0, -0.1)


def test_pp_cost_pipeline_smoke():
    # cell-adjacency graph of a rooted sample -> cluster cost machinery
    config = palm_sample_poisson(1.0, FlatTorus(2, 8.0), seed=10)
    graph = voronoi_adjacency_graph(config, 20000, seed=11)
    subset = subset_colouring(graph, np.ones(graph.n, dtype=bool))
    dec = decompose(graph, subset)
    bound = cost_upper_bound(graph, subset, dec, connect_clusters(graph, dec))
    value = pp_cost_bound(1.0, max(bound.empirical_bound - 1.0, 0.0))
    assert math.isfinite(value) and value >= 1.0
