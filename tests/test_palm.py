"""Poisson/Palm sampling, Voronoi assignment, cell volumes, the inversion
identity, local finiteness, and the cost composition."""

import hashlib
import itertools
import math
import time

import numpy as np
import pytest
from oracles import mutated
from scipy import stats

from urglab.cli import ExperimentConfig, run
from urglab.palm import (
    BUILTIN_FUNCTIONALS,
    BoundedFunctional,
    GuardViolation,
    cell_volume_mc,
    check_local_finiteness,
    palm_sample_poisson,
    pp_cost_bound,
    sample_poisson,
    verify_mean_cell_volume,
    verify_voronoi_inversion,
)
from urglab.torus import (
    FlatTorus,
    PointConfiguration,
    bulk_nearest,
    cell_members,
    nearest_distance,
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


def _wrap_reference(arr, side):
    arr = np.mod(arr, side)
    return np.where(arr >= side, arr - side, arr)


def _wrap_mismatches(wrap):
    """Names of the inputs on which ``wrap(torus, points)`` differs from the
    np.mod + seam reference in any bit, or returns the caller's array."""
    torus = FlatTorus(2, 20.0)
    rng = np.random.default_rng(5)
    cases = {
        "in range": rng.uniform(0.0, 20.0, (300, 2)),
        "-0.0": np.array([[-0.0, 3.0], [1.0, -0.0], [0.0, 19.5]]),
        "exactly side": np.array([[20.0, 1.0], [0.0, 20.0]]),
        "negatives": np.array([[-1e-18, -3.5], [-20.0, -41.0]]),
        "above side": np.array([[20.5, 63.0], [1e6, 7.0]]),
        "nan": np.array([[np.nan, 1.0], [2.0, 3.0]]),
        "empty": np.zeros((0, 2)),
    }
    wrong = []
    for name, arr in cases.items():
        got, want = wrap(torus, arr), _wrap_reference(arr, torus.side)
        if (got.dtype != want.dtype or got.shape != want.shape or got.tobytes() != want.tobytes()
                or np.shares_memory(got, arr)):
            wrong.append(name)
    return wrong


def _fast_wrap_mutant(in_range):
    def wrap(torus, points):
        arr = np.asarray(points, dtype=float)
        if arr.size and arr.min() >= 0.0 and arr.max() < torus.side:
            return in_range(arr)
        return _wrap_reference(arr, torus.side)

    return wrap


def test_wrap_matches_mod_reference_bit_for_bit():
    assert _wrap_mismatches(FlatTorus.wrap) == []
    # a fast path must copy, and must turn -0.0 into +0.0 as np.mod does
    assert _wrap_mismatches(_fast_wrap_mutant(lambda arr: arr)) != []
    assert _wrap_mismatches(_fast_wrap_mutant(lambda arr: arr.copy())) == ["-0.0"]


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


def _near_pair(dim, first, second):
    """Two points equal to 3.0 in every coordinate but the first."""
    points = np.full((2, dim), 3.0)
    points[:, 0] = first, second
    return points


def _distinctness_cases(dim, side):
    """(name, points, distinct, exact): configurations around the 1e-12 rule.

    ``exact`` says whether construction must hand the points to the exact
    pair query (and so build the KD-tree): True for first coordinates within
    the prefilter's bound, False for a random crowd, None where either is
    right.  Rejected configurations have no tree to look at.
    """
    rng = np.random.default_rng(dim)
    crowd = rng.uniform(0.0, side, (400, dim))
    cases = [
        ("5e-13 apart", _near_pair(dim, 1.0, 1.0 + 5e-13), False, None),
        ("4e-13 apart across the seam", _near_pair(dim, 0.0, side - 4e-13), False, None),
        ("5e-13 apart across the seam, neither at 0", _near_pair(dim, side - 3e-13, 2e-13), False, None),
        ("1e-11 apart", _near_pair(dim, 1.0, 1.0 + 1e-11), True, None),
        ("random crowd", crowd, True, False),
        ("duplicate hidden in the crowd", np.insert(crowd, 123, crowd[301], axis=0), False, None),
        ("empty", np.zeros((0, dim)), True, False),
        ("one point", np.full((1, dim), 2.0), True, False),
    ]
    if side >= 1e3:
        # first coordinates 5e-12 apart lie inside the rounding margin that grows with side
        cases += [
            ("5e-12 apart", _near_pair(dim, 1.0, 1.0 + 5e-12), True, True),
            ("5e-12 apart across the seam", _near_pair(dim, 0.0, side - 5e-12), True, True),
        ]
    if dim > 1:
        # rows of a lattice share first coordinates, so only the exact query can clear them
        axis = np.linspace(0.0, side, 7, endpoint=False)
        lattice = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
        hidden = np.insert(lattice, 40, lattice[17] + np.eye(dim)[-1] * 3e-13, axis=0)
        cases += [("lattice", lattice, True, True), ("near-duplicate hidden in a lattice", hidden, False, None)]
    return cases


def _misjudged(dim, side):
    """Names of the cases whose verdict, or whose route to the exact query, is wrong."""
    torus = FlatTorus(dim, side)
    wrong = []
    for name, points, distinct, exact in _distinctness_cases(dim, side):
        try:
            config = PointConfiguration(torus, points)
        except ValueError as exc:
            assert "pairwise distinct" in str(exc)
            if distinct:
                wrong.append(name)
            continue
        if not distinct or exact not in (None, "kdtree" in config.__dict__):
            wrong.append(name)
    return wrong


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_distinctness_rule_at_the_1e12_threshold(dim):
    for side in (10.0, 1e3):
        assert _misjudged(dim, side) == [], side


def _gaps_mutant(seam=True, margin=True):
    def suspected(points, side):
        xs = np.sort(points[:, 0])
        gaps = np.diff(xs, append=xs[0] + side) if seam else np.diff(xs)
        return bool(gaps.min() <= 2e-12 + (1e-14 * side if margin else 0.0))

    return suspected


@pytest.mark.parametrize(
    "mutant",
    [_gaps_mutant(seam=False), _gaps_mutant(margin=False), lambda points, side: False],
    ids=["no-seam-gap", "zero-margin", "never-suspect"],
)
def test_distinctness_cases_reject_broken_prefilters(monkeypatch, mutant):
    import urglab.torus

    monkeypatch.setattr(urglab.torus, "_close_pair_suspected", mutant)
    assert any(_misjudged(dim, side) for dim in (1, 2, 3) for side in (10.0, 1e3))


def test_trees_are_built_by_their_first_query(monkeypatch):
    import scipy.spatial

    # ``PointConfiguration.kdtree`` imports the class at each build, so it reads this patch
    built = []
    tree = scipy.spatial.cKDTree
    monkeypatch.setattr(scipy.spatial, "cKDTree", lambda *args, **kw: built.append(1) or tree(*args, **kw))
    f = BUILTIN_FUNCTIONALS["capped-nearest-distance"]
    config = sample_poisson(1.0, T2, seed=3)
    f.value(config)
    moved = config.shifted(-config.points[0])
    f.value(moved)
    assert "kdtree" not in config.__dict__ and "kdtree" not in moved.__dict__ and built == []
    palm = palm_sample_poisson(1.0, T2, seed=3)
    locations = np.random.default_rng(3).uniform(0.0, 10.0, (500, 2))
    for idx in (0, 1, 2):
        cell_members(palm, idx, locations)
    assert built == []  # exact distances decide cells without ties
    bulk_nearest(palm, locations)
    assert len(built) == 1
    # none for the Palm cells, the lhs samples or the translates
    built.clear()
    generic = BoundedFunctional("generic", f.value)
    verify_voronoi_inversion(generic, 1.0, FlatTorus(2, 6.0), 4, 300, seed=2)
    verify_mean_cell_volume(1.0, FlatTorus(2, 6.0), 4, 300, seed=2)
    assert built == []


def test_palm_contains_origin():
    for seed in range(5):
        config = palm_sample_poisson(1.0, T2, seed=seed)
        assert config.rooted
        assert np.all(config.points[0] == 0.0)


def test_palm_sample_is_the_plain_sample_plus_origin():
    for torus in (T2, FlatTorus(1, 30.0), FlatTorus(3, 4.0)):
        for seed in range(4):
            palm = palm_sample_poisson(1.0, torus, seed=seed)
            plain = sample_poisson(1.0, torus, seed=seed)
            assert np.array_equal(palm.points[1:], plain.points)


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


def test_nearest_empty_rejected():
    empty = PointConfiguration(T2, np.zeros((0, 2)))
    with pytest.raises(ValueError):
        bulk_nearest(empty, np.zeros((1, 2)))
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


def _cell_members_by_full_query(config, idx, locations):
    dists, assigned = bulk_nearest(config, locations)
    hit = assigned == idx
    return np.flatnonzero(hit), dists[hit]


def _prefilter_cases():
    """(config, idx, locations): Palm samples in d = 1, 2, 3 and 9, a
    non-origin site, a single point, small configurations, exact ties, and
    locations outside [0, side)^d."""
    rng = np.random.default_rng(17)
    cases = []
    for seed, (t, side, dim) in enumerate(((1.0, 20.0, 2), (4.0, 20.0, 2), (1.0, 50.0, 1), (1.0, 6.0, 3))):
        torus = FlatTorus(dim, side)
        config = palm_sample_poisson(t, torus, seed=seed)
        locations = rng.uniform(0.0, side, (4000, dim))
        cases.append((config, 0, locations))
        cases.append((config, 5, locations))
    for n in (1, 5, 17, 18):
        config = PointConfiguration(T2, rng.uniform(0.0, 10.0, (n, 2)))
        cases.append((config, n - 1, rng.uniform(0.0, 10.0, (2000, 2))))
    antipodal = PointConfiguration(FlatTorus(1, 2.0), np.array([[0.5], [1.5]]))
    ties = np.vstack([np.array([[0.0], [1.0]]), rng.uniform(0.0, 2.0, (500, 1))])
    cases += [(antipodal, 0, ties), (antipodal, 1, ties)]
    pair = PointConfiguration(FlatTorus(1, 8.0), np.array([[0.0], [2.0]]))
    ties = np.array([[1.0], [5.0], [0.5], [3.0]])  # 1 and 5 are equidistant from both
    cases += [(pair, 0, ties), (pair, 1, ties)]
    lattice = PointConfiguration(T2, np.array([[i, j] for i in (1.0, 3.5, 6.0, 8.5) for j in (1.0, 3.5, 6.0, 8.5)]))
    steps = np.arange(1.0, 11.0, 1.25) % 10.0  # sites, edge midpoints (2-way ties), corners (4-way)
    cases += [(lattice, i, np.array([[x, y] for x in steps for y in steps])) for i in (0, 5, 15)]
    nine = palm_sample_poisson(1.0, FlatTorus(9, 1.8), seed=4)
    locations = rng.uniform(0.0, 1.8, (4000, 9))
    cases += [(nine, 0, locations), (nine, 5, locations)]
    config, _, locations = cases[0]
    cases.append((config, 0, locations + 20.0 * rng.integers(-2, 3, locations.shape)))
    return cases


PREFILTER_CASES = _prefilter_cases()


def test_cell_members_equal_full_query_filtered(monkeypatch):
    import urglab.torus

    # one bisector at a time throughout, the default switch, and one product from the start; and
    # every survivor to the tree, the default exact-check cap, and the exact check on every survivor
    for settled, cap in itertools.product((0, urglab.torus.SETTLED_LOCATIONS, 10**9),
                                          (0, urglab.torus._EXACT_BLOCK, 10**9)):
        monkeypatch.setattr(urglab.torus, "SETTLED_LOCATIONS", settled)
        monkeypatch.setattr(urglab.torus, "_EXACT_BLOCK", cap)
        for config, idx, locations in PREFILTER_CASES:
            members, dists = cell_members(config, idx, locations)
            want_members, want_dists = _cell_members_by_full_query(config, idx, locations)
            assert np.array_equal(members, want_members), (settled, cap)
            assert np.array_equal(dists, want_dists), (settled, cap)


def test_cell_members_rejects_out_of_range_index():
    config = palm_sample_poisson(1.0, T2, seed=3)
    locations = np.random.default_rng(0).uniform(0.0, 10.0, (100, 2))
    for idx in (-1, len(config)):
        with pytest.raises(ValueError, match=f"point {idx} out of range"):
            cell_members(config, idx, locations)


def _inputs_changed():
    """Dimensions in which ``cell_members`` edits its locations or the points."""
    changed = []
    for dim in (1, 2, 3):
        config = palm_sample_poisson(1.0, FlatTorus(dim, 6.0), seed=dim)
        locations = np.random.default_rng(dim).uniform(0.0, 6.0, (3000, dim))
        before = locations.copy(), config.points.copy()
        cell_members(config, 1, locations)
        if not (np.array_equal(locations, before[0]) and np.array_equal(config.points, before[1])):
            changed.append(dim)
    return changed


def test_cell_members_leaves_inputs_unchanged(monkeypatch):
    import urglab.torus

    assert _inputs_changed() == []

    # a (m, 1) array's transpose is already contiguous, so this edits the caller's array in d = 1
    def in_place_rows(torus, locations, site):
        rows = np.ascontiguousarray(locations.T)
        rows -= site[:, None]
        rows -= torus.side * np.rint(rows / torus.side)
        return rows

    monkeypatch.setattr(urglab.torus, "_offset_rows", in_place_rows)
    assert _inputs_changed() == [1]


def test_cell_members_query_few_locations(monkeypatch):
    import urglab.torus

    queried, checked = [], []
    full, exact = urglab.torus.bulk_nearest, urglab.torus._wrapped_differences
    monkeypatch.setattr(urglab.torus, "bulk_nearest", lambda c, locs: queried.append(len(locs)) or full(c, locs))
    monkeypatch.setattr(urglab.torus, "_wrapped_differences", lambda t, a, b: checked.append(len(a)) or exact(t, a, b))
    config = palm_sample_poisson(1.0, FlatTorus(2, 20.0), seed=3)
    locations = np.random.default_rng(4).uniform(0.0, 20.0, (10**4, 2))
    members, _ = cell_members(config, 0, locations)
    # the last exact check takes the survivors; the cell is about 1/400 of the torus
    assert len(members) <= checked[-1] <= len(locations) // 100
    assert queried == []  # a sample without ties asks the tree nothing


def _filtered_members(config, idx, locations, bound):
    """The tree-k-NN bisector prefilter in its plain form, one pass per
    bisector over ``(m, d)`` offsets, with its exclusion bound written as
    ``bound(|p|^2, side)``; the broken bounds below are tried on this form,
    not on ``cell_members`` itself."""
    torus = config.torus
    site = config.points[idx]
    _, near = config.kdtree.query(site, k=min(17, len(config)))
    near = np.atleast_1d(near)
    offsets = torus.delta(config.points[near[near != idx]], site)
    rel = torus.delta(locations, site)
    where = np.arange(len(locations))
    for p in offsets:
        where = where[rel[where] @ p <= bound(p @ p, torus.side)]
    dists, assigned = bulk_nearest(config, locations[where])
    return where[assigned == idx], dists[assigned == idx]


def _matches_full_query(members_of):
    """Whether ``members_of(config, idx, locations)`` equals the filtered full
    query, members and distances, on every prefilter case."""
    for config, idx, locations in PREFILTER_CASES:
        members, dists = members_of(config, idx, locations)
        want_members, want_dists = _cell_members_by_full_query(config, idx, locations)
        if not (np.array_equal(members, want_members) and np.array_equal(dists, want_dists)):
            return False
    return True


def _prefilter_matches(bound):
    return _matches_full_query(lambda config, idx, locations: _filtered_members(config, idx, locations, bound))


def test_prefilter_equivalence_rejects_broken_bisectors():
    assert _prefilter_matches(lambda sq, side: sq / 2 + 1e-9 * side**2)
    # a margin of the wrong sign drops exact ties the KD-tree assigns here
    assert not _prefilter_matches(lambda sq, side: sq / 2 - 1e-9 * side**2)
    # a half-space cut at a quarter of |p|^2 instead of half drops cell locations
    assert not _prefilter_matches(lambda sq, side: sq / 4 + 1e-9 * side**2)
    # |p|^2 in place of |p|^2 / 2 only lets more locations through to the KD-tree
    assert _prefilter_matches(lambda sq, side: sq + 1e-9 * side**2)


@pytest.mark.parametrize(
    "old, new",
    [("4.0 * float(", "float("), ("(own == best) | outside", "outside"),
     ("np.flatnonzero(site_sq <= reach)", "np.flatnonzero(site_sq <= reach)[:0]")],
    ids=["rivals-within-one-radius", "ties-without-the-tree", "no-rivals"],
)
def test_exact_check_equivalence_rejects_broken_mutants(old, new):
    import urglab.torus

    # rivals up to |x - s| rather than 2|x - s| from the site, exact ties read as
    # non-members, and no rivals at all each change some cell
    assert not _matches_full_query(mutated(urglab.torus, "cell_members", old, new))


def test_exact_check_equivalence_rejects_another_summation_order(monkeypatch):
    import urglab.torus

    # the tree adds the squares in coordinate order 0..d-1; the reverse order changes some bits
    reversed_sums = mutated(urglab.torus, "_squared_lengths", "total = diff[0] * diff[0]\n    for row in diff[1:]:",
                            "total = diff[-1] * diff[-1]\n    for row in diff[-2::-1]:")
    monkeypatch.setattr(urglab.torus, "_squared_lengths", reversed_sums)
    assert not _matches_full_query(cell_members)


def test_translation_invariance_of_assignment():
    rng = np.random.default_rng(3)
    config = sample_poisson(1.0, T2, seed=8)
    for _ in range(25):
        g = rng.uniform(0, 10, 2)
        shift = rng.uniform(0, 10, 2)
        _, (base,) = bulk_nearest(config, g[None])
        _, (moved,) = bulk_nearest(config.shifted(shift), T2.wrap(g + shift)[None])
        assert moved == base  # ``shifted`` keeps the point order


def test_cell_volume_single_point_exact():
    config = PointConfiguration(T2, np.array([[4.0, 4.0]]))
    report = cell_volume_mc(config, 0, 500, seed=2)
    assert report.estimate == T2.volume
    assert report.stderr == 0.0


def test_cell_volume_antipodal_pair():
    torus = FlatTorus(1, 2.0)
    config = PointConfiguration(torus, np.array([[0.5], [1.5]]))
    report = cell_volume_mc(config, 0, 20000, seed=3)
    assert abs(report.estimate - 1.0) <= 3 * max(report.stderr, 1e-6)


def test_cell_volume_requires_member_point():
    config = PointConfiguration(T2, np.array([[4.0, 4.0]]))
    for idx in (1, -1):
        with pytest.raises(ValueError):
            cell_volume_mc(config, idx, 100, seed=0)


def test_mean_cell_volume_small_run():
    report, values = verify_mean_cell_volume(1.0, T2, trials=200, m=2000, seed=6)
    assert len(values) == 200
    assert report.target == 1.0
    assert report.abs_error <= 4 * report.stderr


def test_mean_cell_volume_guard():
    with pytest.raises(GuardViolation):
        verify_mean_cell_volume(0.01, FlatTorus(1, 10.0), trials=10, m=100, seed=0)


def test_inversion_constant_functional():
    report, lhs_values, rhs_values = verify_voronoi_inversion(BUILTIN_FUNCTIONALS["one"], 1.0, T2, 200, 4000, seed=7)
    assert np.all(lhs_values == 1.0)
    assert report.lhs == 1.0
    assert report.diff <= 4 * max(report.combined_stderr, 1e-12)


def test_inversion_radial_functionals_small():
    for name in ("capped-nearest-distance", "ball-occupied"):
        report, _, _ = verify_voronoi_inversion(BUILTIN_FUNCTIONALS[name], 1.0, T2, 300, 4000, seed=8)
        assert report.diff <= 4 * report.combined_stderr


def test_inversion_generic_path_agrees_with_radial():
    # drop the fast path and make sure the generic shifted-configuration
    # evaluation estimates the same quantity
    radial = BUILTIN_FUNCTIONALS["ball-occupied"]
    generic = BoundedFunctional("ball-occupied-generic", radial.value)
    torus = FlatTorus(2, 6.0)
    rep_r, _, _ = verify_voronoi_inversion(radial, 1.0, torus, 150, 800, seed=9)
    rep_g, lhs_values, rhs_values = verify_voronoi_inversion(generic, 1.0, torus, 150, 800, seed=9)
    assert rep_g.rhs == pytest.approx(rep_r.rhs, abs=1e-12)  # same draws, same estimate
    # golden digest of the generic path's per-trial values
    digest = hashlib.sha256(lhs_values.tobytes() + rhs_values.tobytes()).hexdigest()
    assert digest == "4070898333e296a8dd97b13d0425037a1067f90b76536f3da4ba75fa4a430cf9"


# sha256 of the palm outputs that the benchmark's seed-0 digests do not
# cover (it pins only the d=2 inversion run); any change to the sampled
# configurations, the in-cell sets or their distances alters them; locfin
# writes no sampled location, so its row pins the configurations, nearest
# distances and eps, and the ball sampler has its own radial-law test
PALM_GOLDEN_RUNS = [
    (
        {"t": 1.0, "L": 8.0, "d": 2, "m": 2000, "check": "cellvol"}, 20, 2,
        "148bba1c7e5e1f0916436bbd4eb224ed91cfa1c6eb752efaf7cb99310b1abee5",
        "d69cb28f8112ffc51cb7ea0d1e654b631e6a3e2c2a903d1eaaf1f2b7e6e8dac1",
    ),
    (
        {"t": 1.0, "L": 30.0, "d": 1, "m": 1000, "check": "inversion"}, 20, 3,
        "b9712f682c0aa948508116533e80096d23c2d747a8336e74fa34e8d8b41472b7",
        "4b58c2f099c8be7dc2d82a66a52df1214041c8e7d1ae55b0aef4c2f9ac0cd4e2",
    ),
    (
        {"t": 1.0, "L": 4.0, "d": 3, "m": 1000, "check": "inversion"}, 20, 4,
        "670fdaa9f6c1e05c03db4cc62c98eb35274cbfa9985e1bc8042ea5f1786ce242",
        "10229e300524ca6dd4f17d2b172f0c28658762f7d4a69f543e098f85c5938cdc",
    ),
    (
        {"t": 1.0, "L": 10.0, "d": 2, "m": 500, "check": "locfin"}, 20, 5,
        "87b994ce4a2ba087d86f98b4f8565b9a0ea278d56fd918d86a9639f43a3ebd79",
        "817773f1d548c0a52104da690fa5b63476a066d17c42fe182e53623674cb4658",
    ),
]


@pytest.mark.parametrize(
    "params, trials, seed, report_sha, trials_sha",
    PALM_GOLDEN_RUNS,
    ids=["cellvol-d2", "inversion-d1", "inversion-d3", "locfin-d2"],
)
def test_palm_outputs_match_golden_digests(tmp_path, params, trials, seed, report_sha, trials_sha):
    run(ExperimentConfig("palm", params, trials=trials, seed=seed, out_dir=str(tmp_path)))
    assert hashlib.sha256((tmp_path / "palm_report.json").read_bytes()).hexdigest() == report_sha
    assert hashlib.sha256((tmp_path / "palm_trials.csv").read_bytes()).hexdigest() == trials_sha


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


def test_local_finiteness_reports_violations_beyond_eps(monkeypatch):
    import urglab.palm

    # the constructed tie again, sampled out to radius 2 * eps in place of eps / 2
    ball = urglab.palm._uniform_ball
    monkeypatch.setattr(urglab.palm, "_uniform_ball", lambda rng, radius, count, dim: ball(rng, 4 * radius, count, dim))
    config = PointConfiguration(FlatTorus(2, 20.0), np.array([[12.0, 10.0], [8.0, 10.0], [10.0, 12.5]]))
    report = check_local_finiteness(config, np.array([10.0, 10.0]), 500, seed=3)
    assert report.violations > 0 and not report.holds


def test_local_finiteness_high_dimension_is_fast(tmp_path):
    # rejection from the bounding cube keeps about 2.5e-8 of its draws at d = 20
    start = time.perf_counter()
    run(ExperimentConfig("palm", {"t": 1e-4, "L": 2.0, "d": 20, "m": 10, "check": "locfin"},
                         trials=1, seed=0, out_dir=str(tmp_path)))
    assert time.perf_counter() - start < 1.0


def _radial_law_rejected(sampler):
    """Dimensions in which (r / radius)^d of the sampled points is not uniform (KS test)."""
    rejected = []
    for dim in (1, 2, 5, 20):
        points = sampler(np.random.default_rng(dim), 1.5, 4000, dim)
        u = (np.linalg.norm(points, axis=1) / 1.5) ** dim
        if points.shape != (4000, dim) or stats.kstest(u, "uniform").pvalue < 1e-3:
            rejected.append(dim)
    return rejected


def test_ball_sampler_radial_law():
    import urglab.palm

    assert _radial_law_rejected(urglab.palm._uniform_ball) == []

    def linear_radius(rng, radius, count, dim):
        directions = rng.standard_normal((count, dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        return directions * (radius * rng.uniform(size=(count, 1)))

    assert _radial_law_rejected(linear_radius) == [2, 5, 20]  # right only on a line


def test_pp_cost_bound_arithmetic():
    assert pp_cost_bound(1.0, 0.0) == 1.0
    assert pp_cost_bound(0.1, 0.5) == pytest.approx(1.05)
    with pytest.raises(ValueError):
        pp_cost_bound(1.0, -0.1)
