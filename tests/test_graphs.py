"""Window builders, their invariants, and serialization."""

import hashlib
import itertools
import json
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    build_explicit,
    label_table,
    random_regular_entries_window,
    torus_entries_window,
    word_fixed_points,
)

from urglab.balls import ball
from urglab.graphs import (
    GeneratorSet,
    WindowGraph,
    build_complete,
    build_path,
    build_random_regular,
    build_torus_window,
    free_generators,
    torus_generators,
    window_from_dict,
    window_to_dict,
    window_to_json,
)


def girth(w) -> int:
    """Shortest cycle length by BFS from every vertex (simple graphs)."""
    best = None
    for root in range(w.n):
        dist = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, _ in w.adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    cycle = dist[u] + dist[v] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def test_cycle_window():
    w = build_torus_window(1, 8)
    assert w.n == 8
    assert np.diff(w.indptr).tolist() == [2] * 8
    assert {v for v, _ in w.adjacency[0]} == {1, 7}


def test_torus_4x4_regular():
    w = build_torus_window(2, 4)
    assert w.n == 16
    assert (np.diff(w.indptr) == 4).all()


def test_torus_3x3_neighbours_and_girth():
    w = build_torus_window(2, 3)
    for u in range(w.n):
        neighbours = [v for v, _ in w.adjacency[u]]
        assert len(set(neighbours)) == 4
    assert girth(w) == 3


def test_torus_rejects_small_side():
    with pytest.raises(ValueError):
        build_torus_window(2, 2)


def test_torus_edge_symmetry_exhaustive():
    for d, L in [(1, 8), (2, 3), (2, 5), (3, 3)]:
        w = build_torus_window(d, L)
        entries = Counter()
        for u, adj in enumerate(w.adjacency):
            for v, s in adj:
                entries[(u, v, s)] += 1
        for (u, v, s), count in entries.items():
            assert entries[(v, u, w.gens.inverse[s])] == count


def test_random_regular_k1_is_cycle_cover():
    w = build_random_regular(1, 5, seed=0)
    assert np.diff(w.indptr).tolist() == [2] * 5


def test_random_regular_determinism():
    a = build_random_regular(2, 10, seed=123)
    b = build_random_regular(2, 10, seed=123)
    assert a.adjacency == b.adjacency
    c = build_random_regular(2, 10, seed=124)
    assert a.adjacency != c.adjacency


def test_random_regular_degree_counts_loops():
    # loops add two to the degree, so 2k-regularity holds with multiplicity
    for seed in range(5):
        w = build_random_regular(2, 30, seed=seed)
        assert (np.diff(w.indptr) == 4).all()


def test_random_regular_rejects_tiny():
    with pytest.raises(ValueError):
        build_random_regular(2, 4, seed=0)


def test_random_regular_mostly_tree_like():
    # short cycles contaminate a window-size-independent number of radius-2
    # balls (a few hundred vertex slots), so the tree-like fraction climbs
    # toward 1 only once n clears that; at n = 2000 it sits near 0.87
    from oracles import ball_is_tree

    from urglab.balls import ball

    fractions = []
    for seed in range(3):
        w = build_random_regular(2, 2000, seed=seed)
        tree_like = sum(1 for u in range(w.n) if ball_is_tree(ball(w, None, u, 2)))
        fractions.append(tree_like / w.n)
    assert all(f >= 0.8 for f in fractions)


def test_explicit_path_and_complete():
    p4 = build_path(4)
    assert np.diff(p4.indptr).tolist() == [1, 2, 2, 1]
    k4 = build_complete(4)
    assert np.diff(k4.indptr).tolist() == [3] * 4
    # proper labelling: no label repeats at a vertex
    for w in (p4, k4):
        for entries in w.adjacency:
            labels = [s for _, s in entries]
            assert len(labels) == len(set(labels))


@pytest.mark.parametrize("name, build, edges", [
    ("path", build_path, lambda n: [(i, i + 1) for i in range(n - 1)]),
    ("complete", build_complete, lambda n: [(i, j) for i in range(n) for j in range(i + 1, n)]),
], ids=["path", "complete"])
def test_closed_form_labels_equal_greedy_oracle(name, build, edges):
    for n in [*range(2, 101), 128, 129, 300]:
        w, oracle = build(n), build_explicit(n, edges(n), tag=f"{name}{n}")
        for field in ("indptr", "indices", "label_id", "mirror"):
            assert np.array_equal(getattr(w, field), getattr(oracle, field)), (n, field)
        assert (w.gens, w.params, w.window_id) == (oracle.gens, oracle.params, oracle.window_id), n


def test_explicit_rejects_loops_and_duplicates():
    with pytest.raises(ValueError):
        build_explicit(3, [(0, 0)])
    with pytest.raises(ValueError):
        build_explicit(3, [(0, 1), (1, 0)])


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet(("a",), {"a": "b", "b": "a"})
    gens = GeneratorSet.paired([("a", "b")])
    assert gens.size == 2 and gens.inverse["a"] == "b"


def test_window_serialization_round_trip():
    for w in (
        build_torus_window(2, 4),
        build_random_regular(2, 15, seed=3),
        build_path(5),
        build_complete(4),
    ):
        data = window_to_dict(w)
        assert set(data) == {"model", "params", "seed", "n", "edges"}
        back = window_from_dict(json.loads(window_to_json(w)))
        assert back.adjacency == w.adjacency
        assert back.n == w.n
        for name in ("indptr", "indices", "label_id", "mirror"):
            assert np.array_equal(getattr(back, name), getattr(w, name)), name
        assert all(np.array_equal(a, b) for a, b in zip(back.edge_arrays, w.edge_arrays))


def test_round_trip_holds_past_a_packed_sort_key():
    # labels * n^2 = 2e5 * 4.9e13 is far past 2^63: one int64 key packing (src, label name, dst)
    # wraps here and misorders the rows; each row's (label name, dst) key stays below labels * n
    data = {"model": "random-regular", "params": {"k": 100_000}, "seed": None, "n": 7_000_000,
            "edges": [[5, 6, "s2"], [6999999, 0, "s1"], [6999999, 6999998, "s99999"]]}
    assert window_to_dict(window_from_dict(data)) == data


def test_label_ids_equal_list_index_definition():
    mixed = GeneratorSet.paired([("a", "b"), ("c", "c"), ("d", "e")])
    for gens in (torus_generators(3), free_generators(2), build_complete(40).gens, mixed):
        assert gens.id_of == {s: gens.labels.index(s) for s in gens.labels}
        assert gens.inverse_id.tolist() == [gens.labels.index(gens.inverse[s]) for s in gens.labels]


@pytest.mark.parametrize("n", [12, 40])
def test_complete_window_round_trip_keeps_entry_label_names(n):
    # a window file sorts its 2^ceil(log2 n) - 1 names as text (e1, e10, e11, ..., e2, ...),
    # so the label ids differ from build_complete's; the name on every entry must not
    w = build_complete(n)
    back = window_from_dict(json.loads(window_to_json(w)))
    assert back.gens.labels != w.gens.labels
    assert back.adjacency == w.adjacency
    for name in ("indptr", "indices", "mirror"):
        assert np.array_equal(getattr(back, name), getattr(w, name)), name


LOOP_FILE = {"model": "explicit", "params": {"n": 3, "tag": "t"}, "seed": None, "n": 3,
             "edges": [[0, 0, "e1"], [0, 1, "e2"], [1, 2, "e1"], [2, 2, "e3"]]}


def test_window_serialization_keeps_self_inverse_loops():
    # a loop under a self-inverse label is two equal entries of its row, one file row
    w = window_from_dict(LOOP_FILE)
    assert w.adjacency[0] == ((0, "e1"), (0, "e1"), (1, "e2"))
    assert np.diff(w.indptr).tolist() == [3, 2, 3]
    assert window_to_dict(w) == LOOP_FILE


def test_window_serialization_edge_count():
    w = build_torus_window(2, 4)
    data = window_to_dict(w)
    # one row per unordered edge: n * degree / 2
    assert len(data["edges"]) == w.n * 4 // 2
    for u, v, s in data["edges"]:
        assert s <= w.gens.inverse[s]


@settings(max_examples=20)
@given(d=st.integers(1, 3), L=st.integers(3, 6))
def test_torus_degree_bound_property(d, L):
    w = build_torus_window(d, L)
    assert w.n == L**d
    assert w.degree_bound == 2 * d
    assert (np.diff(w.indptr) == 2 * d).all()


@settings(max_examples=20)
@given(k=st.integers(1, 3), n=st.integers(8, 40), seed=st.integers(0, 10**6))
def test_random_regular_property(k, n, seed):
    if n < 2 * k + 1:
        n = 2 * k + 1
    w = build_random_regular(k, n, seed=seed)
    assert (np.diff(w.indptr) == 2 * k).all()
    entries = Counter()
    for u, adj in enumerate(w.adjacency):
        for v, s in adj:
            entries[(u, v, s)] += 1
    assert all(entries[(v, u, w.gens.inverse[s])] == c for (u, v, s), c in entries.items())


# Recorded from the tuple-of-tuples window representation before the CSR
# arrays replaced it: sha256 of window_to_json, of the edge_arrays bytes
# (src then dst) and of repr(adjacency), and the discovery order of radius-2
# balls.  Each row's (label name, neighbour) order drives all of them.
GOLDEN_WINDOWS = {
    "torus(2,5)": (
        lambda: build_torus_window(2, 5),
        "aaa8b7106a37120233bbac98c24753952005969a38c3e053262a21134d3489c6",
        "cebe035bc2193cb4836b3ed0d91248e2440bd73fcaadab9fa4a6dbf97a55aa97",
        "f82450e86dc62523d2d6f29537626850c33e3ea2825c3e83b2bdc42a4d1a66a5",
        {0: (0, 1, 5, 4, 20, 2, 6, 21, 10, 9, 3, 24, 15),
         24: (24, 20, 4, 23, 19, 21, 0, 15, 9, 3, 22, 18, 14)},
    ),
    "torus(3,3)": (
        lambda: build_torus_window(3, 3),
        "ca7ae4085ca77eddeb540433b890cfaf87bf3abda8da06430eab997032fa7e0d",
        "7c12ac1ea202c6e3b241446809535c25afedcdf1ead66c1a8b3178b0cee0e52e",
        "4dc6e75f431a7e7be63cc452e0052a1890d1cdf89c9f5d615436b577f7fb9b88",
        {0: (0, 1, 3, 9, 2, 6, 18, 4, 10, 7, 19, 12, 5, 21, 11, 15, 8, 20, 24),
         26: (26, 24, 20, 8, 25, 23, 17, 18, 6, 21, 15, 2, 19, 11, 7, 5, 22, 16, 14)},
    ),
    "random_regular(2,64,0)": (
        lambda: build_random_regular(2, 64, seed=0),
        "62a2b2e11e5c3d63227a70c2d95e31b8bb1ac3bfad0bc934594c99d7e68f18bf",
        "75b3540faad76e1771ac5f8e9ca66f9a70c80afd3a792440fda7cb6ae8ac4716",
        "467c52646ae42c1e37089d8a6b646ba5971f374d4cac82e2628bfa098869c6e4",
        {0: (0, 34, 22, 55, 56, 31, 47, 43, 44, 16, 57, 39, 10, 3, 41),
         1: (1, 27, 61, 8, 44, 21, 5, 16, 18, 60, 50, 24, 22),
         63: (63, 26, 14, 36, 33, 6, 11, 54, 18, 15, 25, 23, 16, 7)},
    ),
    "complete(5)": (
        lambda: build_complete(5),
        "5bb9619b7d326dd6b838324227485e11b6834a3a2208beb55ed3d751759fbd7e",
        "73ff07be4379f1f1cf50d6c69e5afdfc9dee146fbbf353261700a7d3be717b08",
        "2dc58911447eecb196ae277c493a0439c49b156426733d06b4c4dfaa13c476bf",
        {0: (0, 1, 2, 3, 4), 1: (1, 0, 3, 2, 4), 4: (4, 0, 1, 2, 3)},
    ),
    # loops and parallel edges
    "random_regular(3,7,1)": (
        lambda: build_random_regular(3, 7, seed=1),
        "776776b780a3454af5884ae9ab5d788e21789ad572795086d2c85df689e3c6f9",
        "9b7d957a6dbc621189f821ff62807623f4a93f4765d49ad66ff8854981fa1354",
        "ba96436f61b0fdc44a48abf6fc517b3d20624e1a39b32053d0853bd21071ce88",
        {},
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", GOLDEN_WINDOWS)
def test_window_row_order_golden(name):
    build, json_digest, edge_digest, adjacency_digest, balls = GOLDEN_WINDOWS[name]
    w = build()
    assert sha256(window_to_json(w).encode()) == json_digest
    src, dst = w.edge_arrays
    assert sha256(src.tobytes() + dst.tobytes()) == edge_digest
    assert sha256(repr(w.adjacency).encode()) == adjacency_digest
    for root, original in balls.items():
        assert ball(w, None, root, 2).original == original


def test_rows_ordered_by_label_name_then_neighbour():
    # label names sort as strings: s10 before s2, e10 before e2
    for w in (build_torus_window(3, 4), build_random_regular(10, 25, seed=0), build_complete(12)):
        for entries in w.adjacency:
            assert list(entries) == sorted(entries, key=lambda e: (e[1], e[0]))


@pytest.mark.parametrize("build", [
    lambda: build_torus_window(2, 5),
    lambda: build_random_regular(1, 6, seed=2),
    lambda: build_random_regular(3, 7, seed=1),  # loops and parallel edges
    lambda: build_explicit(5, [(0, 1), (1, 2), (2, 0), (3, 4), (0, 4)]),
    lambda: window_from_dict(LOOP_FILE),  # loops under self-inverse labels
], ids=["torus", "random-regular-k1", "random-regular-multi", "explicit", "self-inverse-loop-file"])
def test_mirror_pairs_each_entry_with_its_reverse(build):
    w = build()
    src, dst = w.edge_arrays
    mirror = w.mirror
    assert np.array_equal(np.sort(mirror), np.arange(src.size))  # a permutation
    assert np.array_equal(src[mirror], dst) and np.array_equal(dst[mirror], src)
    assert np.array_equal(w.label_id[mirror], w.gens.inverse_id[w.label_id])
    assert np.array_equal(mirror[mirror], np.arange(src.size))
    assert not mirror.flags.writeable


@pytest.mark.parametrize("build", [
    lambda: build_torus_window(2, 5),
    lambda: build_random_regular(3, 7, seed=1),  # loops and parallel edges
    lambda: window_from_dict(LOOP_FILE),
], ids=["torus", "random-regular-multi", "self-inverse-loop-file"])
def test_csr_is_a_view_of_the_window_arrays(build):
    # csgraph reads the window's own indices and indptr: one unit entry per directed entry, unsummed
    w = build()
    m = w.csr
    assert np.shares_memory(m.indices, w.indices) and np.shares_memory(m.indptr, w.indptr)
    assert m.shape == (w.n, w.n) and np.array_equal(m.data, np.ones(w.indices.size))
    assert not m.data.flags.writeable and not m.indices.flags.writeable and not m.indptr.flags.writeable


def cycle_entries():
    """Directed entries of the 4-cycle torus(1, 4): label 0 is +e1, label 1 is -e1."""
    u = np.arange(4)
    return np.concatenate([u, u]), np.concatenate([(u + 1) % 4, (u - 1) % 4]), np.repeat([0, 1], 4)


def test_window_arrays_constructor_accepts_the_cycle():
    src, dst, label = cycle_entries()
    order = np.random.default_rng(0).permutation(src.size)  # entry order is free
    w = WindowGraph(4, src[order], dst[order], label[order], torus_generators(1), "torus", {"d": 1, "L": 4})
    assert w.adjacency == build_torus_window(1, 4).adjacency


def _missing_mirror(src, dst, label, gens):
    return src[1:], dst[1:], label[1:], gens


def _wrong_inverse(src, dst, label, gens):
    label = label.copy()
    label[4] = 0  # the mirror of 0 -> 1 (+e1) must be 1 -> 0 (-e1), not +e1
    return src, dst, label, gens


def _neighbour_out_of_range(src, dst, label, gens):
    dst = dst.copy()
    dst[0] = 4
    return src, dst, label, gens


def _unknown_label(src, dst, label, gens):
    label = label.copy()
    label[0] = 2
    return src, dst, label, gens


def _above_degree_bound(src, dst, label, gens):
    # a symmetric extra edge 0 -+e1-> 2, so only the degree bound is broken
    return np.append(src, [0, 2]), np.append(dst, [2, 0]), np.append(label, [0, 1]), gens


def _lone_self_inverse_loop(src, dst, label, gens):
    # one entry (2, 2, f) under a self-inverse label f: its own mirror, but half of an undirected loop
    gens = GeneratorSet.paired([("+e1", "-e1"), ("f", "f")])
    return np.append(src, 2), np.append(dst, 2), np.append(label, gens.id_of["f"]), gens


@pytest.mark.parametrize("breakage, message", [
    (_missing_mirror, "not symmetric"),
    (_wrong_inverse, "not symmetric"),
    (_neighbour_out_of_range, "neighbour 4 out of range"),
    (_unknown_label, "label id 2 out of range"),
    (_above_degree_bound, "vertex 0 exceeds the degree bound 2"),
    (_lone_self_inverse_loop, "unpaired loop at vertex 2 under self-inverse label 'f'"),
])
def test_window_arrays_constructor_rejects(breakage, message):
    src, dst, label, gens = breakage(*cycle_entries(), torus_generators(1))
    with pytest.raises(ValueError, match=message):
        WindowGraph(4, src, dst, label, gens, "torus", {"d": 1, "L": 4})


@pytest.mark.parametrize("build, oracle, cases", [
    (build_torus_window, torus_entries_window, [(d, L) for d in (1, 2, 3) for L in (3, 4, 5, 7, 16)]),
    (build_torus_window, torus_entries_window, [(10, 3)]),  # +e10 sorts before +e2
    # n = 2k + 1 gives loops and parallel edges
    (build_random_regular, random_regular_entries_window,
     [(k, n, seed) for k in (1, 2, 3, 10, 12) for n in (2 * k + 1, 2 * k + 2, 64) for seed in (0, 1, 2)]),
], ids=["torus", "torus-d10", "random-regular"])
def test_label_action_windows_equal_the_entry_list_oracle(build, oracle, cases):
    loops = parallel = 0
    for args in cases:
        w, expected = build(*args), oracle(*args)
        for field in ("indptr", "indices", "label_id", "mirror"):
            a = getattr(w, field)
            assert a.dtype == np.int64 and not a.flags.writeable, (args, field)
            assert np.array_equal(a, getattr(expected, field)), (args, field)
        assert (w.gens, w.params, w.seed, w.window_id) == (expected.gens, expected.params, expected.seed,
                                                           expected.window_id), args
        rows = np.sort(w.indices.reshape(w.n, -1), axis=1)
        other = rows != np.arange(w.n)[:, None]
        loops += int((~other).sum())
        parallel += int(((rows[:, 1:] == rows[:, :-1]) & other[:, 1:]).sum())
    if build is build_random_regular:
        assert loops > 0 and parallel > 0  # the cases cover both


def cycle_perms():
    """Label action of the 4-cycle torus(1, 4): row 0 is +e1, row 1 is -e1."""
    u = np.arange(4)
    return np.stack([(u + 1) % 4, (u - 1) % 4])


def _entry_out_of_range(perms, gens):
    perms[0, 2] = 4
    return perms, gens


def _negative_entry(perms, gens):
    perms[1, 0] = -1
    return perms, gens


def _not_inverse(perms, gens):
    perms[1] = perms[0]  # -e1 repeats +e1, so -e1 after +e1 moves by two
    return perms, gens


def _missing_label(perms, gens):
    return perms[:1], gens


def _lone_self_inverse_loop(perms, gens):
    # two involutions that both fix vertex 2: each gives it one entry (2, 2, s), half of a loop
    return np.array([[1, 0, 2], [1, 0, 2]]), GeneratorSet.paired([("e1", "e1"), ("e2", "e2")])


@pytest.mark.parametrize("breakage, message", [
    (_entry_out_of_range, "neighbour 4 out of range"),
    (_negative_entry, "neighbour -1 out of range"),
    (_not_inverse, "label '\\+e1' is not undone by '-e1'"),
    (_missing_label, r"shape \(1, 4\), not \(2, n\)"),
    (_lone_self_inverse_loop, "unpaired loop at vertex 2 under self-inverse label 'e1'"),
])
def test_label_action_constructor_rejects(breakage, message):
    perms, gens = breakage(cycle_perms(), torus_generators(1))
    with pytest.raises(ValueError, match=message):
        WindowGraph._from_permutations(perms, gens, "torus", {"d": 1, "L": 4})


@pytest.mark.parametrize("build", [
    lambda: build_torus_window(2, 256),
    lambda: build_random_regular(2, 65536, 1),
], ids=["torus", "random-regular"])
def test_window_build_peak_bytes_per_entry(build):
    # the finished arrays hold about 26 B per directed entry; sorting an entry list peaks near
    # 110 B, the label-action route near 40 B
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        w = build()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak / w.indices.size <= 56


# ----------------------------------------------------------------------
# Word fixed-point certificates of label-action windows
# ----------------------------------------------------------------------


def _reduced_words(gens, length):
    """Every word of ``length`` label ids in which no letter is followed by its inverse."""
    inverse = gens.inverse_id
    return [word for word in itertools.product(range(gens.size), repeat=length)
            if all(inverse[a] != b for a, b in zip(word, word[1:]))]


def _abelianisation(gens, word, d):
    """Net steps along each axis of a torus word: +e(i+1) adds 1 to coordinate i, -e(i+1) subtracts it."""
    steps = np.zeros(d, dtype=np.int64)
    for s in word:
        name = gens.labels[s]
        steps[int(name[2:]) - 1] += 1 if name[0] == "+" else -1
    return steps


@pytest.mark.parametrize("d, L", [(1, 5), (2, 7), (3, 4)])
def test_torus_words_fix_all_or_no_vertices_by_abelianisation(d, L):
    w = build_torus_window(d, L)
    table = label_table(w)
    rng = np.random.default_rng(L)
    for _ in range(60):
        word = list(rng.integers(w.gens.size, size=int(rng.integers(1, 12))))
        # the word followed by its inverse letters in another order nets zero on every axis
        for trial in (word, word + [w.gens.inverse_id[s] for s in rng.permutation(word)]):
            closed = not (_abelianisation(w.gens, trial, d) % L).any()
            assert word_fixed_points(table, trial) == (w.n if closed else 0), trial


def test_torus_word_certificates_on_the_7x7_torus():
    w = build_torus_window(2, 7)
    table = label_table(w)
    e1, e1_inv, e2, e2_inv = (w.gens.id_of[s] for s in ("+e1", "-e1", "+e2", "-e2"))
    commutator = [e1, e2, e1_inv, e2_inv]
    assert word_fixed_points(table, [e1] * 7) == 49
    assert word_fixed_points(table, commutator) == 49
    assert word_fixed_points(table, [e1] * 6) == 0
    # +e2 relabelled through a random vertex permutation is still a label action whose rows
    # are bijections paired with their mirrors, and it still has order 7, but it no longer
    # commutes with +e1
    relabel = np.random.default_rng(0).permutation(w.n)
    perms = table.copy()
    perms[e2][relabel] = relabel[table[e2]]
    perms[e2_inv][relabel] = relabel[table[e2_inv]]
    broken = label_table(WindowGraph._from_permutations(perms, w.gens, "torus", {"d": 2, "L": 7}))
    assert word_fixed_points(broken, [e2] * 7) == 49
    assert word_fixed_points(broken, commutator) < 49


def _sattolo_window(k, n, rng):
    """A permutation-model window whose k permutations are uniform n-cycles, from Sattolo's
    shuffle (each position swaps with a uniform earlier one): no vertex is fixed."""
    perms = np.empty((2 * k, n), dtype=np.int64)
    for i in range(k):
        sigma = list(range(n))
        for position, other in zip(range(n - 1, 0, -1), rng.random(n - 1) * np.arange(n - 1, 0, -1)):
            other = int(other)
            sigma[position], sigma[other] = sigma[other], sigma[position]
        perms[2 * i] = sigma
        perms[2 * i + 1][perms[2 * i]] = np.arange(n)
    return WindowGraph._from_permutations(perms, free_generators(k), "random-regular", {"k": k, "n": n})


def _word_totals(windows, gens, lengths):
    """Per window (rows), the fixed-point total over all reduced words of each length (columns)."""
    words = [_reduced_words(gens, length) for length in lengths]
    return np.array([[sum(word_fixed_points(table, word) for word in group) for group in words]
                     for table in map(label_table, windows)], dtype=float)


def _mean_and_stderr(totals):
    return totals.mean(axis=0), totals.std(axis=0, ddof=1) / np.sqrt(len(totals))


def test_permutation_model_word_totals_match_their_exact_means():
    # each uniform permutation fixes 1 vertex on average and its square 2; the product of two
    # independent ones is uniform, so the 4 words of length 1 total 4 and the 12 of length 2
    # (4 squares and 8 products) total 16, exactly at every n
    gens = free_generators(2)
    totals = _word_totals((build_random_regular(2, 4096, seed) for seed in range(200)), gens, (1, 2))
    mean, stderr = _mean_and_stderr(totals)
    assert (np.abs(mean - [4.0, 16.0]) <= 4 * stderr).all(), (mean, stderr)
    # uniform n-cycles pass the bijection and mirror checks but fix nothing, nor do their squares:
    # their length <= 2 total falls far below 20
    rng = np.random.default_rng(0)
    totals = _word_totals((_sattolo_window(2, 4096, rng) for _ in range(50)), gens, (1, 2))
    mean, stderr = _mean_and_stderr(totals.sum(axis=1))
    assert abs(mean - 20.0) > 4 * stderr, (mean, stderr)
