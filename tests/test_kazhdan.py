"""Partition objective, exact optima, annealer agreement, and the annealer's merge move."""

import hashlib
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    anneal_reference,
    brute_force_product,
    build_explicit,
    directed_bichromatic_count,
    exhaustive_bipartition_minimum,
)

from urglab.colourings import Colouring, expansion, sample
from urglab.graphs import (
    build_complete,
    build_path,
    build_random_regular,
    build_torus_window,
    window_from_dict,
    window_to_dict,
)
from urglab.kazhdan import (
    MOVE_KINDS,
    InfeasibleBalanceError,
    InstanceTooLargeError,
    KazhdanProblem,
    WeightVector,
    _try_merge_move,
    _write,
    anneal_kazhdan,
    brute_force_kazhdan,
    feasible_size_windows,
    uniform_weights,
)
from urglab.rng import derive_rng, scalar_draws


def arcs_partition(n):
    w = build_torus_window(1, n)
    colours = np.where(np.arange(n) < n // 2, 1, 2)
    return w, Colouring(w, 2, colours)


def test_uniform_weights_needs_a_part():
    with pytest.raises(ValueError, match="at least one part"):
        uniform_weights(0)


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector((0.5, 0.6))
    with pytest.raises(ValueError):
        WeightVector((-0.1, 1.1))


# the partition objective (the Kazhdan value) is the colouring expansion
def test_kazhdan_value_monochromatic():
    w = build_torus_window(1, 8)
    assert expansion(Colouring(w, 2, np.ones(8, dtype=np.int64))) == 0.0


def test_kazhdan_value_two_arcs():
    w, partition = arcs_partition(8)
    assert expansion(partition) == 0.5


def test_kazhdan_value_complete_graph():
    w = build_complete(4)
    partition = Colouring(w, 2, np.array([1, 1, 2, 2]))
    assert expansion(partition) == 2.0


def test_kazhdan_value_invariant_under_relabelling():
    w = build_torus_window(2, 4)
    partition = sample([1.0 / 3] * 3, w, 8)
    perm = np.array([3, 1, 2])
    relabelled = Colouring(w, 3, perm[partition.colours - 1])
    assert expansion(relabelled) == expansion(partition)


def test_feasible_windows_integrality_allowance():
    assert feasible_size_windows(9, uniform_weights(2), 0.0) == [(4, 5), (4, 5)]
    assert feasible_size_windows(8, uniform_weights(2), 0.0) == [(4, 4), (4, 4)]


def test_feasible_windows_strict_rejection():
    with pytest.raises(InfeasibleBalanceError) as err:
        feasible_size_windows(9, uniform_weights(2), 0.01)
    assert "class-size windows" in str(err.value)


def test_brute_force_cycle8():
    # exhaustive over the 70 exactly balanced bipartitions: two arcs win
    w = build_torus_window(1, 8)
    result = brute_force_kazhdan(KazhdanProblem(window=w, k=2, alpha=uniform_weights(2), eps=0.0))
    assert result.certificate
    assert result.value == 0.5
    assert result.weights.values == (0.5, 0.5)
    assert result.moves == {kind: (0, 0) for kind in MOVE_KINDS}
    assert exhaustive_bipartition_minimum(w, 4) == 0.5


def test_brute_force_path4():
    w = build_path(4)
    result = brute_force_kazhdan(KazhdanProblem(window=w, k=2, alpha=uniform_weights(2), eps=0.0))
    assert result.value == 0.5


def test_brute_force_single_part():
    w = build_torus_window(1, 8)
    result = brute_force_kazhdan(KazhdanProblem(window=w, k=1, alpha=uniform_weights(1), eps=0.0))
    assert result.value == 0.0


def test_brute_force_single_part_on_a_long_window():
    # the guard admits every n at k = 1, so a per-vertex walk would exceed the recursion limit
    w = build_torus_window(1, 2000)
    result = brute_force_kazhdan(KazhdanProblem(window=w, k=1, alpha=uniform_weights(1), eps=0.0))
    assert result.value == 0.0
    assert result.certificate
    assert np.all(result.partition.colours == 1)


def test_brute_force_guard():
    w = build_torus_window(2, 5)  # 2**25 > 10**7
    with pytest.raises(InstanceTooLargeError):
        brute_force_kazhdan(KazhdanProblem(window=w, k=2, alpha=uniform_weights(2), eps=0.0))


def test_brute_force_guard_matches_the_power(monkeypatch):
    # the guard's verdict is that of k**n > 10**7 on a grid through its boundary
    # (10**7 at k = 10, n = 7; 2**23 < 10**7 < 2**24), and it never runs the search
    import urglab.kazhdan as kazhdan

    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(kazhdan, "feasible_size_windows", admitted)
    for k in (1, 2, 3, 9, 10, 11, 3162, 3163, 10**6):
        alpha = uniform_weights(k)
        for n in range(1, 31):
            problem = KazhdanProblem(window=SimpleNamespace(n=n), k=k, alpha=alpha, eps=0.0)
            with pytest.raises(InstanceTooLargeError if k**n > 10**7 else Admitted):
                brute_force_kazhdan(problem)
    problem = KazhdanProblem(window=SimpleNamespace(n=10**6), k=10**6, alpha=uniform_weights(10**6), eps=0.0)
    start = time.perf_counter()
    with pytest.raises(InstanceTooLargeError):
        brute_force_kazhdan(problem)
    assert time.perf_counter() - start < 0.1  # k**n itself has six million digits


def test_brute_force_monotone_in_eps():
    w = build_torus_window(1, 10)
    values = []
    for eps in (0.0, 0.1, 0.2, 0.3):
        problem = KazhdanProblem(window=w, k=2, alpha=uniform_weights(2), eps=eps)
        values.append(brute_force_kazhdan(problem).value)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def small_irregular_window():
    # a star and a triangle on 9 vertices, with one self-inverse loop
    data = window_to_dict(build_explicit(9, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 4), (6, 7),
                                             (7, 8)], tag="star-triangle"))
    data["edges"] += [[8, 8, "loop"]]
    return window_from_dict(data)


# windows and part counts small enough for the product enumeration (k**n <= 65536)
BRUTE_FORCE_CASES = {
    "cycle8-k2": (lambda: build_torus_window(1, 8), 2),
    "cycle8-k3": (lambda: build_torus_window(1, 8), 3),
    "cycle9-k3": (lambda: build_torus_window(1, 9), 3),
    "cycle13-k2": (lambda: build_torus_window(1, 13), 2),
    "torus3x3-k2": (lambda: build_torus_window(2, 3), 2),
    "torus3x3-k3": (lambda: build_torus_window(2, 3), 3),
    "torus4x4-k2": (lambda: build_torus_window(2, 4), 2),
    "irregular-loops-k2": (lambda: irregular_window_with_loops(), 2),
    "irregular9-k2": (small_irregular_window, 2),
    "irregular9-k3": (small_irregular_window, 3),
}


@pytest.mark.parametrize("make_window,k", BRUTE_FORCE_CASES.values(), ids=BRUTE_FORCE_CASES.keys())
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.2])
def test_brute_force_matches_product_enumeration(make_window, k, eps):
    # the pruned walk reports the product order's first minimum, ties included;
    # at k = 3, eps = 0.2 the upper sizes alone admit a part under its lower
    # size (1 + 4 + 4 = 9 on the 9-vertex windows), so the lower-size prune counts
    w = make_window()
    problem = KazhdanProblem(window=w, k=k, alpha=uniform_weights(k), eps=eps)
    cut, assignment = brute_force_product(problem)
    result = brute_force_kazhdan(problem)
    assert result.value == cut / w.n
    assert result.partition.colours.tolist() == list(assignment)


def test_problem_validation():
    w = build_torus_window(1, 8)
    with pytest.raises(ValueError):
        KazhdanProblem(window=w, k=2, alpha=uniform_weights(2), eps=0.5)
    with pytest.raises(ValueError):
        KazhdanProblem(window=w, k=3, alpha=uniform_weights(2), eps=0.0)


def test_anneal_reaches_cycle_optimum():
    w = build_torus_window(1, 8)
    problem = KazhdanProblem(window=w, k=2, alpha=uniform_weights(2), eps=0.0, seed=3)
    result = anneal_kazhdan(problem)
    assert not result.certificate
    assert result.value == 0.5
    assert result.weights.values == (0.5, 0.5)


def test_anneal_deterministic():
    w = build_torus_window(1, 16)
    problem = KazhdanProblem(window=w, k=2, alpha=uniform_weights(2), eps=0.0, seed=11)
    a = anneal_kazhdan(problem)
    b = anneal_kazhdan(problem)
    assert a.value == b.value
    assert np.array_equal(a.partition.colours, b.partition.colours)
    assert a.trace == b.trace


@settings(max_examples=200)
@given(data=st.data(), n=st.integers(1, 8), k=st.integers(2, 4))
def test_undo_log_restores_the_snapshot(data, n, k):
    # random writes, some back to the snapshot colour, with snapshots taken
    # at random steps, as the annealer takes them at each new lowest count
    colours = data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    snapshot, saved = list(colours), {}
    for _ in range(data.draw(st.integers(1, 20))):
        v = data.draw(st.integers(0, n - 1))
        new = data.draw(st.sampled_from([snapshot[v], *range(1, k + 1)]))
        _write(colours, saved, v, new)
        assert colours[v] == new
        assert [saved.get(u, c) for u, c in enumerate(colours)] == snapshot
        if data.draw(st.booleans()):
            snapshot = list(colours)
            saved.clear()


def irregular_window_with_loops():
    # a star, a path and a triangle joined into one irregular window, with
    # self-inverse loops at three vertices
    edges = [(0, i) for i in range(1, 6)] + [(3, 4), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10),
                                               (10, 11), (11, 9), (11, 12), (12, 13), (13, 0)]
    data = window_to_dict(build_explicit(14, edges, tag="star-path-triangle"))
    data["edges"] += [[2, 2, "loop"], [7, 7, "loop"], [12, 12, "loop"]]
    return window_from_dict(data)


def assert_matches_reference(problem):
    result = anneal_kazhdan(problem)
    reference = anneal_reference(problem)
    assert result.value == reference.value
    assert result.trace == reference.trace
    assert result.partition.colours.tobytes() == reference.partition.colours.tobytes()
    return result


def assert_move_counts(result, problem):
    proposed = [result.moves[kind][0] for kind in MOVE_KINDS]
    if problem.k == 1:
        assert result.moves == {kind: (0, 0) for kind in MOVE_KINDS}
    else:
        assert sum(proposed) == problem.budget * problem.restarts
    assert all(0 <= result.moves[kind][1] <= result.moves[kind][0] for kind in MOVE_KINDS)


ORACLE_WINDOWS = {
    "cycle9": lambda: build_torus_window(1, 9),
    "cycle40": lambda: build_torus_window(1, 40),
    "torus6x6": lambda: build_torus_window(2, 6),
    "random-regular-k2": lambda: build_random_regular(2, 64, seed=3),  # carries loops
    "random-regular-k3": lambda: build_random_regular(3, 48, seed=1),  # carries loops
    "irregular-loops": irregular_window_with_loops,
}


@pytest.mark.parametrize("make_window", ORACLE_WINDOWS.values(), ids=ORACLE_WINDOWS.keys())
def test_anneal_matches_numpy_reference(make_window):
    w = make_window()
    for k in (1, 2, 3, 4):
        for eps in (0.0, 0.1):
            problem = KazhdanProblem(window=w, k=k, alpha=uniform_weights(k), eps=eps,
                                     budget=400, restarts=3, seed=k)
            assert_move_counts(assert_matches_reference(problem), problem)


def test_anneal_matches_numpy_reference_across_block_refills():
    # every step draws at least one 64-bit word, so each 4000-step restart
    # refills the decoder's 1024-word block at least three times
    problem = KazhdanProblem(window=build_random_regular(2, 1000, seed=5), k=3, alpha=uniform_weights(3),
                             eps=0.1, budget=4000, restarts=2, seed=2)
    result = assert_matches_reference(problem)
    assert result.moves["merge"][0] > 0
    assert_move_counts(result, problem)


def test_anneal_matches_numpy_reference_through_merge_moves():
    problem = KazhdanProblem(window=build_random_regular(2, 64, seed=3), k=4, alpha=uniform_weights(4),
                             eps=0.1, budget=400, restarts=3, seed=4)
    result = assert_matches_reference(problem)
    assert result.moves["merge"][1] > 0


# Annealer output pinned byte for byte.  The cycle has many optimal
# bipartitions, so its partition digest depends on the tie rule (the first
# state to reach the lowest count is kept).
ANNEAL_GOLDEN = [
    (
        lambda: KazhdanProblem(window=build_torus_window(1, 16), k=2, alpha=uniform_weights(2),
                               eps=0.0),
        0.25,
        500,
        "16591155e4bf0667fb4c66193c9f252fd4381a06518b6cd611d4373f055a4cce",
        "adb708665c505b324b5a9494d1fb4ca06dc79048fb23b19aa93fc3362616b9d7",
    ),
    (
        lambda: KazhdanProblem(window=build_random_regular(2, 256, seed=0), k=3,
                               alpha=uniform_weights(3), eps=0.05, budget=2000, restarts=3),
        1.5390625,
        150,
        "5e9868cd644fd9eb10a9f921eb954f23d87594f321c8ad5f979f728adecbb1ac",
        "8d06e4059de3f83112157390ae2f2d5c0c78de8c1bcde80cbe6db79e55cba008",
    ),
]


@pytest.mark.parametrize("make_problem,value,trace_len,trace_sha,colours_sha", ANNEAL_GOLDEN,
                         ids=["cycle16", "random-regular256"])
def test_anneal_golden_output(make_problem, value, trace_len, trace_sha, colours_sha):
    problem = make_problem()
    result = anneal_kazhdan(problem)
    assert_move_counts(result, problem)
    assert result.value == value
    assert directed_bichromatic_count(problem.window, result.partition.colours) / problem.window.n == value
    assert len(result.trace) == trace_len
    assert hashlib.sha256(repr(result.trace).encode()).hexdigest() == trace_sha
    assert hashlib.sha256(result.partition.colours.tobytes()).hexdigest() == colours_sha


def test_anneal_never_beats_certificates():
    rng = np.random.default_rng(0)
    for trial in range(6):
        n = int(rng.integers(6, 11))
        w = build_random_regular(2, max(n, 5), seed=trial) if trial % 2 else build_torus_window(1, n)
        problem = KazhdanProblem(window=w, k=2, alpha=uniform_weights(2), eps=0.0,
                                 budget=800, restarts=4, seed=trial)
        exact = brute_force_kazhdan(problem).value
        found = anneal_kazhdan(problem).value
        assert found >= exact - 1e-12


def test_anneal_respects_balance():
    w = build_torus_window(1, 12)
    alpha = WeightVector((0.25, 0.75))
    problem = KazhdanProblem(window=w, k=2, alpha=alpha, eps=0.05, seed=2)
    result = anneal_kazhdan(problem)
    assert all(abs(x - a) <= 0.05 + 1e-12 for x, a in zip(result.weights.values, alpha.values))


def test_anneal_infeasible_balance_message():
    w = build_torus_window(1, 9)
    problem = KazhdanProblem(window=w, k=2, alpha=uniform_weights(2), eps=0.01)
    with pytest.raises(InfeasibleBalanceError):
        anneal_kazhdan(problem)


def scripted(*values):
    """Stands in for ``scalar_draws``'s ``bounded``: its draws hand out the given integers in turn, each checked
    against its span."""
    values = iter(values)

    def bounded(span):
        def draw():
            value = next(values)
            assert 0 <= value < span
            return value

        return draw

    return bounded


def arcs_state(n):
    """The arcs partition of the n-cycle as the annealer holds it: colours, part sizes, an empty undo log."""
    w, partition = arcs_partition(n)
    return w, partition.colours.tolist(), [n // 2, n - n // 2], {}


def test_merge_move_arcs_full_collapse():
    w, colours, sizes, saved = arcs_state(8)
    delta = _try_merge_move(w, colours, sizes, [(0, 8)] * 2, scripted(0, 1, 0), saved)
    assert delta == -4
    assert colours == [2] * 8 and sizes == [0, 8]
    assert expansion(Colouring(w, 2, colours)) == 0.0
    assert [saved.get(v, c) for v, c in enumerate(colours)] == [1] * 4 + [2] * 4


def test_merge_move_no_adjacent_flagged():
    w = build_torus_window(1, 12)
    colours = [1, 1, 3, 3, 3, 3, 2, 2, 3, 3, 3, 3]  # parts 1 and 2 are separated by part 3 on both sides
    sizes, saved = [2, 2, 8], {}
    assert _try_merge_move(w, colours, sizes, [(0, 12)] * 3, scripted(0, 1), saved) is None
    assert colours == [1, 1, 3, 3, 3, 3, 2, 2, 3, 3, 3, 3] and sizes == [2, 2, 8] and saved == {}


def test_merge_move_size_window_refusal_writes_nothing():
    w, colours, sizes, saved = arcs_state(8)
    # moving either arc would leave part 1 below its lower size 4
    assert _try_merge_move(w, colours, sizes, [(4, 4)] * 2, scripted(0, 1, 0), saved) is None
    assert colours == [1] * 4 + [2] * 4 and sizes == [4, 4] and saved == {}


def neighbours_counted_once(w):
    """``w``'s matrix with parallel entries summed and set to 1: a neighbour counts once, however many entries."""
    once = w.csr.copy()
    once.sum_duplicates()
    once.data[:] = 1.0
    return once


@pytest.mark.parametrize("broken", [None, "once"], ids=["entries", "neighbours-once"])
@pytest.mark.parametrize("cluster", [0, 1])
def test_merge_move_counts_parallel_entries(cluster, broken, monkeypatch):
    # criterion 7's random-regular window: 0-8 and 7-21 are doubled, and 2 carries a loop
    w = build_random_regular(2, 24, seed=1)
    if broken == "once":
        monkeypatch.setitem(w.__dict__, "csr", neighbours_counted_once(w))
    before = [1 if v in (0, 2, 7, 10) else 2 for v in range(w.n)]  # part 1's clusters are {0, 2} and {7, 10}
    assert w.neighbour_rows[0].count(8) == 2 and w.neighbour_rows[7].count(21) == 2 and 2 in w.neighbour_rows[2]
    colours, sizes = list(before), [4, 20]
    delta = _try_merge_move(w, colours, sizes, [(0, w.n)] * 2, scripted(0, 1, cluster), {})
    moved = {v for v in range(w.n) if colours[v] != before[v]}
    assert moved == ({0, 2}, {7, 10})[cluster]
    src, dst = w.edge_arrays
    entries = sum(1 for u, v in zip(src.tolist(), dst.tolist()) if u in moved and before[v] == 2)
    assert entries == (4, 6)[cluster]  # the doubled edge twice, the loop never
    assert (delta == -2 * entries) == (broken is None)


def test_merge_move_decrement_matches_recount_k3():
    w = build_torus_window(2, 6)
    applied = 0
    for trial in range(50):
        colours = sample([1.0 / 3] * 3, w, trial).colours
        sizes = np.bincount(colours, minlength=4)[1:].tolist()
        moved = colours.tolist()
        delta = _try_merge_move(w, moved, sizes, [(0, w.n)] * 3, scalar_draws(derive_rng(trial, "merge-k3"))[1], {})
        if delta is None:
            assert moved == colours.tolist()
            continue
        applied += 1
        assert delta == directed_bichromatic_count(w, np.array(moved)) - directed_bichromatic_count(w, colours)
        assert delta <= 0
        assert sizes == np.bincount(moved, minlength=4)[1:].tolist()
    assert applied >= 20


def anneal_uniform(windows, k, eps, budget, restarts, seed):
    """One annealer run per window at uniform target weights, as scripts/kazhdan_profile.py runs them."""
    return [anneal_kazhdan(KazhdanProblem(w, k, uniform_weights(k), eps, budget, restarts, seed)) for w in windows]


def test_profile_cycles_closed_form():
    # best balanced bipartition of a cycle cuts two edges: value 4/n
    windows = [build_torus_window(1, n) for n in (8, 16, 32)]
    results = anneal_uniform(windows, k=2, eps=0.0, budget=4000, restarts=10, seed=1)
    assert [r.value for r in results] == [0.5, 0.25, 0.125]
    assert all(r.weights.values == (0.5, 0.5) for r in results)


def test_profile_single_part_all_zero():
    windows = [build_torus_window(1, n) for n in (8, 16)]
    results = anneal_uniform(windows, k=1, eps=0.0, budget=10, restarts=1, seed=0)
    assert [r.value for r in results] == [0.0, 0.0]


def test_profile_random_regular_stays_positive():
    # expander-ish windows should not be cut cheaply; report, assert > 0 only
    windows = [build_random_regular(2, 64, seed=0), build_random_regular(2, 128, seed=0)]
    results = anneal_uniform(windows, k=2, eps=0.05, budget=1500, restarts=4, seed=3)
    assert all(r.value > 0.0 for r in results)
    assert all(abs(x - 0.5) <= 0.05 + 1e-12 for r in results for x in r.weights.values)
