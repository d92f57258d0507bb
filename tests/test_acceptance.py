"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); a failing criterion fails its test.  Criteria and tolerances:

 1. outflow/inflow identity exact to 1e-9 relative on 1000 random
    (window, colouring, transport) triples, under 30 s; the library's
    built-in transports and the gradients of three of the tests' ball-form
    vertex functions (``oracles.gradient_transport``)
 2. gradient norm bound never violated over 10^4 fuzzed instances of a
    ball-form vertex function, and attained within 5% by at least one of
    them, under 60 s
 3. orthant closed form within 4 MC standard errors at five correlations
    (independent case pinned to 0.25 analytically), under 20 s
 4. mean origin-cell volume within 4 stderr of 1/t at three (t, L, d)
    settings, 10^3 trials x 10^4 volume samples, under 5 min
 5. inversion identity within 4 combined stderr for the three bounded
    functionals at t=1, L=20, d=2, under 5 min
 6. annealer matches certified optima on cycles and paths up to 12
    vertices and on the 4-clique at exact balance; the 8-cycle optimum
    is 0.5 exactly, under 2 min
 7. the annealer's merge move returns exactly the recounted change of the
    objective, never an increase, and its undo log restores the colours;
    three proposals on each of 100 random 2- and 3-part instances and 40
    2-part ones, at least 150 of them applied
 8. spaced-subset cost pipeline: empirical bound below the 1 + 2/k
    ceiling and approaching 1 monotonically over k in {2,4,8}; on a torus
    and a random-regular window, every connecting pair at its clusters'
    distance and the total at the minimum spanning weight; the induction
    utility reproduces 1 + eps (D - 1)
 9. csgraph connected-components decomposition agrees with a BFS flood
    fill on 1000 random instances, bit-exact
10. reruns with the same master seed produce byte-identical data outputs
    (gauss-check, percolation, palm, kazhdan, cost-bound, mtp-check)

Criteria 2, 3, 4, 5, 7, 8 and 9 each have a negative control: the same test must
reject a ceiling of D ||f||_1 in place of 2 D ||f||_1 (2), a wrong closed form,
a size-biased sampler in place of the Palm one, single-vertex clusters in
place of the true decomposition or a move that counts each removed entry
once, without its mirror (7), a cost bound that counts each connecting pair
at one end only or a region search one step too deep (8), or the whole
window's components restricted to the subset in place of the subset's own
(9), and accept the true input.  Criterion 2 also checks its tightness:
some instance comes within 5% of the bound, so a bound 5% too loose, or a
fuzz that no longer reaches the tight cases, fails it.
"""

import math
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components
from oracles import (
    ball_feature_mix,
    ball_neighbour_colour_count,
    ball_root_colour,
    directed_bichromatic_count,
    flood_fill_clusters,
    gradient_norm_bound,
    gradient_transport,
    mutated,
    prim_tree_weight,
    set_distance,
)

from urglab import clusters, kazhdan, palm
from urglab.cli import ExperimentConfig, run
from urglab.clusters import (
    ClusterDecomposition,
    CostBound,
    connect_clusters,
    cost_upper_bound,
    decompose,
    gaboriau_induction,
)
from urglab.colourings import sample, sample_constant, subset_mask
from urglab.gaussian import orthant_probability, orthant_probability_mc
from urglab.graphs import build_complete, build_path, build_random_regular, build_torus_window
from urglab.kazhdan import KazhdanProblem, anneal_kazhdan, brute_force_kazhdan, uniform_weights
from urglab.palm import BUILTIN_FUNCTIONALS, verify_mean_cell_volume, verify_voronoi_inversion
from urglab.rng import derive_rng, scalar_draws
from urglab.torus import FlatTorus, PointConfiguration, bulk_nearest
from urglab.transport import (
    bichromatic_indicator,
    constant_transport,
    degree_weighted_indicator,
    mtp_check,
    source_colour_indicator,
)


def report(criterion: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {criterion:2d}] PASS: {name}{suffix}", flush=True)


WINDOW_POOL = None


def window_pool():
    global WINDOW_POOL
    if WINDOW_POOL is None:
        WINDOW_POOL = [
            build_torus_window(1, 16),
            build_torus_window(2, 4),
            build_torus_window(2, 6),
            build_torus_window(3, 3),
            *[build_random_regular(2, 30, seed=s) for s in range(3)],
            *[build_random_regular(1, 12, seed=s) for s in range(3)],
        ]
    return WINDOW_POOL


def test_criterion_1_mass_transport_exactness():
    start = time.time()
    transports = [
        constant_transport(1.0),
        constant_transport(2.5),
        source_colour_indicator(1),
        bichromatic_indicator(),
        degree_weighted_indicator(1),
        gradient_transport(ball_root_colour(1)),
        gradient_transport(ball_neighbour_colour_count(2)),
        gradient_transport(ball_feature_mix((1.0, 2.0, 1.0, 0.0), name="mix")),
    ]
    pool = window_pool()
    draws = [partial(sample, [0.5, 0.5]), partial(sample, [1.0 / 3] * 3), partial(sample_constant, 2)]
    worst = 0.0
    for i in range(1000):
        w = pool[i % len(pool)]
        c = draws[i % len(draws)](w, seed=i)
        f = transports[i % len(transports)]
        rep = mtp_check(w, c, f)
        tolerance = 1e-9 * max(rep.lhs, 1.0)
        assert rep.abs_diff <= tolerance, (w.window_id, f.name, rep)
        worst = max(worst, rep.abs_diff / max(rep.lhs, 1.0))
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(1, "mass transport identity exact on 1000 triples",
           f"worst relative gap {worst:.2e}, {elapsed:.1f}s")


def norm_bound_failures(ceiling_factor: float) -> tuple[int, int, float]:
    """Criterion 2's fuzz with ``ceiling_factor * D * ||f||_1`` as the ceiling of the gradient
    norm: 1 if an instance exceeds it (the fuzz stops there) else 0, the instances checked,
    and the largest ratio of norm to ceiling among them."""
    rng = np.random.default_rng(42)
    pool = window_pool()
    checked = 0
    tightest = 0.0
    for i in range(10**4):
        w = pool[i % len(pool)]
        d = int(rng.integers(2, 4))
        c = sample([1.0 / d] * d, w, seed=i)
        coeffs = tuple(int(x) for x in rng.integers(-4, 5, size=4))
        lhs, bound = gradient_norm_bound(w, c, ball_feature_mix(coeffs, name=f"fuzz{i}"))
        ceiling = bound * ceiling_factor / 2  # at factor 2, exactly the bound 2 D ||f||_1
        checked += 1
        if ceiling > 0:
            tightest = max(tightest, lhs / ceiling)
        if lhs > ceiling + 1e-12:
            return 1, checked, tightest
    return 0, checked, tightest


def test_criterion_2_norm_bound_never_violated():
    start = time.time()
    failures, checked, tightest = norm_bound_failures(2)
    elapsed = time.time() - start
    assert failures == 0
    assert checked == 10**4 and elapsed < 60.0
    assert tightest >= 0.95, tightest  # the fuzz reaches the bound: a looser one fails here
    report(2, "gradient norm bound holds on 10^4 fuzzed instances",
           f"tightest lhs/bound {tightest:.3f}, {elapsed:.1f}s")


def test_criterion_2_rejects_the_degree_ceiling():
    # D ||f||_1 in place of 2 D ||f||_1: the fuzz's tight instances exceed it
    failures, _, _ = norm_bound_failures(1)
    assert failures == 1


def test_criterion_3_gaussian_orthant():
    start = time.time()
    assert orthant_probability(0.0) == 0.25  # pinned analytically
    for i, rho in enumerate((-0.9, -0.5, 0.0, 0.5, 0.9)):
        mc = orthant_probability_mc(rho, 10**6, seed=300 + i)
        gap = abs(orthant_probability(rho) - mc.estimate)
        assert gap < 4.0 * mc.stderr, (rho, gap, mc.stderr)
    elapsed = time.time() - start
    assert elapsed < 20.0
    report(3, "orthant identity matches MC at five correlations", f"{elapsed:.1f}s")


def test_criterion_3_rejects_wrong_closed_forms():
    # both wrong forms give 1/4 at rho = 0, so the control sits at rho = +-0.5
    forms = {
        "arccos(rho)/(2 pi)": orthant_probability,
        "(1 - rho)/4": lambda rho: (1.0 - rho) / 4.0,
        "arccos(rho)/pi": lambda rho: math.acos(rho) / math.pi,
    }
    for rho in (-0.5, 0.5):
        mc = orthant_probability_mc(rho, 10**6, seed=3)
        accepted = {name for name, form in forms.items() if abs(form(rho) - mc.estimate) < 4.0 * mc.stderr}
        assert accepted == {"arccos(rho)/(2 pi)"}, (rho, accepted)


def test_criterion_4_mean_cell_volume():
    start = time.time()
    details = []
    for t, L, d in ((1.0, 20.0, 2), (4.0, 20.0, 2), (1.0, 50.0, 1)):
        rep, _ = verify_mean_cell_volume(t, FlatTorus(d, L), trials=10**3, m=10**4, seed=404)
        assert rep.abs_error <= 4.0 * rep.stderr, rep
        details.append(f"t={t:g}: {rep.estimate:.4f} vs {rep.target:g}")
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(4, "mean origin-cell volume hits 1/t", "; ".join(details) + f", {elapsed:.0f}s")


def size_biased_zero_cell(t: float, torus: FlatTorus, seed: int) -> PointConfiguration:
    """A broken Palm sampler: the plain sample translated so that its point
    nearest the origin sits at the origin, listed first.  Its origin cell is
    the stationary zero cell, whose volume is size-biased (mean about 1.28/t
    in the plane, against the typical cell's 1/t)."""
    config = palm.sample_poisson(t, torus, seed)
    _, nearest = bulk_nearest(config, np.zeros((1, torus.dim)))
    points = np.roll(config.points, -int(nearest[0]), axis=0)
    return PointConfiguration(torus, points - points[0], rooted=True)


@pytest.mark.parametrize("broken", [False, True], ids=["palm", "zero-cell"])
def test_criterion_4_rejects_the_zero_cell(broken, monkeypatch):
    if broken:
        monkeypatch.setattr(palm, "palm_sample_poisson", size_biased_zero_cell)
    rep, _ = verify_mean_cell_volume(1.0, FlatTorus(2, 8.0), trials=200, m=2000, seed=6)
    assert (rep.abs_error > 4.0 * rep.stderr) == broken, rep


def test_criterion_5_voronoi_inversion():
    start = time.time()
    torus = FlatTorus(2, 20.0)
    details = []
    for j, name in enumerate(sorted(BUILTIN_FUNCTIONALS)):
        rep, _, _ = verify_voronoi_inversion(BUILTIN_FUNCTIONALS[name], 1.0, torus, trials=10**3, m=10**4, seed=500 + j)
        assert rep.diff <= 4.0 * max(rep.combined_stderr, 1e-12), rep
        details.append(f"{name}: |{rep.lhs:.4f}-{rep.rhs:.4f}|")
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(5, "inversion identity holds for all three functionals",
           "; ".join(details) + f", {elapsed:.0f}s")


@pytest.mark.parametrize("broken", [False, True], ids=["palm", "zero-cell"])
def test_criterion_5_rejects_the_zero_cell(broken, monkeypatch):
    if broken:
        monkeypatch.setattr(palm, "palm_sample_poisson", size_biased_zero_cell)
    rep, _, _ = verify_voronoi_inversion(BUILTIN_FUNCTIONALS["one"], 1.0, FlatTorus(2, 8.0), trials=200, m=2000, seed=7)
    assert (rep.diff > 4.0 * max(rep.combined_stderr, 1e-12)) == broken, rep


def test_criterion_6_annealer_matches_certificates():
    start = time.time()
    instances = [build_torus_window(1, n) for n in range(3, 13)]
    instances += [build_path(n) for n in range(2, 13)]
    instances += [build_complete(4)]
    for w in instances:
        problem = KazhdanProblem(
            window=w, k=2, alpha=uniform_weights(2), eps=0.0, budget=2500, restarts=8, seed=6
        )
        certified = brute_force_kazhdan(problem)
        found = anneal_kazhdan(problem)
        assert found.value == certified.value, (w.window_id, certified.value, found.value)
        if w.model == "torus" and w.n == 8:
            assert certified.value == 0.5
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(6, "annealer matches certified optima (8-cycle at 0.5)", f"{elapsed:.1f}s")


def merge_decrement_failures(move=kazhdan._try_merge_move) -> tuple[int, int]:
    """Failed proposals of criterion 7 with ``move`` as the annealer's merge move, and the moves it applied.

    Each instance proposes a few moves on a colour list under permissive size windows, as the
    annealer holds it.  An applied move must return the recounted change of the directed cut
    count, never positive, and its undo log must write back the colours it started from; a
    refused one must leave colours, sizes and log as they were."""
    pool = [build_torus_window(2, 6), build_torus_window(1, 20), build_random_regular(2, 24, seed=1)]
    instances = [(pool[i % 3], 2 if i % 2 == 0 else 3, 1000 + i) for i in range(100)]
    instances += [(pool[i % 3], 2, 2000 + i) for i in range(40)]
    failures = applied = 0
    for i, (w, k, seed) in enumerate(instances):
        colours = sample([1.0 / k] * k, w, seed=seed).colours.tolist()
        sizes = [colours.count(c) for c in range(1, k + 1)]
        (_, draws), saved = scalar_draws(derive_rng(i, "criterion-7")), {}
        for _ in range(3):
            before, sizes_before = list(colours), list(sizes)
            delta = move(w, colours, sizes, [(0, w.n)] * k, draws, saved)
            if delta is None:
                failures += (colours, sizes, saved) != (before, sizes_before, {})
                continue
            applied += 1
            recount = directed_bichromatic_count(w, np.array(colours)) - directed_bichromatic_count(w, np.array(before))
            restored = [saved.get(v, c) for v, c in enumerate(colours)] == before
            failures += delta != recount or delta > 0 or not restored
            saved.clear()  # the next proposal starts from the moved colours, as after an annealer snapshot
    return failures, applied


def test_criterion_7_merge_decrement_exact():
    failures, applied = merge_decrement_failures()
    assert failures == 0
    assert applied >= 150
    report(7, "merge decrement equals recomputation", f"{applied} moves applied on 140 instances")


def singleton_clusters(w, mask: np.ndarray) -> ClusterDecomposition:
    """A broken decomposition: every subset vertex is its own cluster, so a
    flipped "cluster" leaves its same-part neighbours behind and the move
    creates boundary that the decrement does not count."""
    inside = np.flatnonzero(mask)
    cluster_id = np.full(w.n, -1, dtype=np.int64)
    cluster_id[inside] = np.arange(inside.size)
    return ClusterDecomposition(w, mask, cluster_id, int(inside.size), (1,) * int(inside.size))


def halved_decrement():
    """The annealer's merge move reporting each removed entry once, not with its mirror."""
    return mutated(kazhdan, "_try_merge_move", "-2 * int(entries[cluster])", "-int(entries[cluster])")


@pytest.mark.parametrize("broken", [None, "singletons", "halved"], ids=["clusters", "singletons", "halved"])
def test_criterion_7_rejects_singleton_clusters(broken, monkeypatch):
    move = halved_decrement() if broken == "halved" else kazhdan._try_merge_move
    if broken == "singletons":
        monkeypatch.setattr(kazhdan, "decompose", singleton_clusters)
    failures, _ = merge_decrement_failures(move)
    assert (failures > 0) == (broken is not None)


def cost_pipeline_failures(bound=cost_upper_bound) -> tuple[int, list[float]]:
    """Failed checks of criterion 8 with ``bound`` as the cost bound, and the spaced subsets'
    gaps to 1.  The checks: the ceiling and the monotone approach to 1 on spaced subsets of
    cycles; on a torus and a random-regular window, every witness distance equal to the
    distance between its clusters and the total equal to the minimum spanning weight."""
    failures, gaps = 0, []
    for k in (2, 4, 8):
        w = build_torus_window(1, 16 * k)
        mask = np.zeros(w.n, dtype=bool)
        mask[::k] = True
        dec = decompose(w, mask)
        cost = bound(dec, connect_clusters(dec))
        lemma = 1.0 + 2.0 / k
        failures += cost.lemma_bound != pytest.approx(lemma)
        failures += cost.empirical_bound > lemma + 1e-12
        gaps.append(abs(cost.empirical_bound - 1.0))
    failures += not gaps[0] > gaps[1] > gaps[2]  # monotone approach to 1 as k grows
    failures += gaps[2] > 1.0 / 100.0
    for w in (build_torus_window(2, 12), build_random_regular(3, 150, seed=6)):
        dec = decompose(w, subset_mask(sample([0.15, 0.85], w, seed=11)))
        extra = connect_clusters(dec)
        members = [set(dec.vertices_of(i).tolist()) for i in range(dec.count)]
        weights = [[0 if a is b else set_distance(w, a, b) for b in members] for a in members]
        failures += sum(d != weights[ca][cb] for d, (ca, cb) in
                        zip(extra.distances.tolist(), extra.cluster_pairs.tolist()))
        failures += sum(extra.distances.tolist()) != prim_tree_weight(weights)
    return failures, gaps


def test_criterion_8_cost_bound_pipeline():
    failures, gaps = cost_pipeline_failures()
    assert failures == 0
    assert gaboriau_induction(5.0, 0.1) == pytest.approx(1.4)
    report(8, "cost pipeline bounded by the ceiling and approaching 1, witnesses at cluster distance",
           f"gaps to 1: {[f'{g:.4f}' for g in gaps]}")


def one_end_cost_bound(dec: ClusterDecomposition, extra) -> CostBound:
    """A broken bound: each extra pair raises the factor-graph degree of one end only, so on
    spaced subsets the gap to 1 stays near 1/(2k)."""
    true = cost_upper_bound(dec, extra)
    half_degree = true.half_degree - 0.5 * true.extra_pairs / int(dec.mask.sum()) * true.intensity
    return replace(true, half_degree=half_degree, empirical_bound=1.0 + half_degree - true.intensity)


NEAREST_IN_VERTEX = clusters._nearest_in_vertex


def deeper_regions(w, inside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A broken region search: every vertex reported one step further from its anchor."""
    anchor, dist = NEAREST_IN_VERTEX(w, inside)
    return anchor, dist + 1


@pytest.mark.parametrize("broken", [None, "one-end-bound", "deeper-regions"],
                         ids=["pipeline", "one-end-bound", "deeper-regions"])
def test_criterion_8_rejects_broken_pipelines(broken, monkeypatch):
    if broken == "deeper-regions":
        monkeypatch.setattr(clusters, "_nearest_in_vertex", deeper_regions)
    failures, _ = cost_pipeline_failures(one_end_cost_bound if broken == "one-end-bound" else cost_upper_bound)
    assert (failures > 0) == (broken is not None)


def flood_fill_mismatches(decompose) -> int:
    """Instances of criterion 9 where ``decompose(w, mask)`` disagrees with the BFS flood fill."""
    rng = np.random.default_rng(9)
    pool = window_pool()
    mismatches = 0
    for i in range(1000):
        w = pool[i % len(pool)]
        p = float(rng.uniform(0.05, 0.95))
        subset = sample([p, 1.0 - p], w, seed=3000 + i)
        dec = decompose(w, subset_mask(subset))
        oracle = flood_fill_clusters(w, dec.mask)
        mismatches += [sorted(dec.vertices_of(cid).tolist()) for cid in range(dec.count)] != oracle
    return mismatches


def test_criterion_9_decompose_matches_flood_fill():
    assert flood_fill_mismatches(decompose) == 0
    report(9, "csgraph components agree with flood fill on 1000 instances")


def whole_window_components(w, mask: np.ndarray) -> ClusterDecomposition:
    """A broken decomposition: the whole window's components restricted to the subset, so
    subset vertices joined only through vertices outside it share a cluster."""
    inside = np.flatnonzero(mask)
    _, labels = np.unique(connected_components(w.csr, directed=False)[1][inside], return_inverse=True)
    cluster_id = np.full(w.n, -1, dtype=np.int64)
    cluster_id[inside] = labels
    sizes = np.bincount(labels)
    return ClusterDecomposition(w, mask, cluster_id, sizes.size, tuple(sizes.tolist()))


@pytest.mark.parametrize("broken", [False, True], ids=["decompose", "whole-window-components"])
def test_criterion_9_rejects_whole_window_components(broken):
    assert (flood_fill_mismatches(whole_window_components if broken else decompose) > 0) == broken


def test_criterion_10_byte_identical_reruns(tmp_path):
    configs = [
        ExperimentConfig("gauss-check", {"rho": [0.0, 0.5], "n": 10**5}, seed=10),
        ExperimentConfig(
            "percolation", {"model": "torus", "d": 2, "L": 16, "p": 0.2}, trials=25, seed=10
        ),
        ExperimentConfig(
            "palm", {"t": 1.0, "L": 8.0, "d": 2, "m": 400, "check": "cellvol"}, trials=25, seed=10
        ),
        ExperimentConfig(
            "kazhdan",
            {"model": "random-regular", "k_rank": 2, "n": 60, "k": 3, "eps": 0.05,
             "budget": 300, "restarts": 2},
            seed=10,
        ),
        ExperimentConfig(
            "cost-bound", {"model": "random-regular", "k_rank": 2, "n": 400, "p": 0.3}, seed=10
        ),
        ExperimentConfig(
            "mtp-check",
            {"model": "torus", "d": 2, "L": 16, "transport": "bichromatic", "colours": 3},
            seed=10,
        ),
    ]
    for idx, config in enumerate(configs):
        digests = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{idx}-{attempt}"
            config.out_dir = str(out)
            manifest = run(config)
            digests.append(manifest.outputs)
            for name in manifest.outputs:
                assert (out / name).exists()
        assert digests[0] == digests[1], config.kind
    report(10, "identical master seed reproduces identical bytes")
