"""Ball extraction and rooted-coloured isomorphism."""

import numpy as np
import pytest
from oracles import bfs_ball, rooted_coloured_isomorphic

from urglab.balls import ball, balls_isomorphic
from urglab.colourings import sample, subset_colouring, uniform_bernoulli_model
from urglab.graphs import build_random_regular, build_torus_window


def all_ones(w):
    return subset_colouring(w, np.ones(w.n, dtype=bool))


def test_ball_radius_zero():
    w = build_torus_window(1, 8)
    c = subset_colouring(w, np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=bool))
    b = ball(w, c, 0, 0)
    assert b.n == 1 and b.edges == () and b.colours == (1,)


def test_cycle_ball_is_path():
    w = build_torus_window(1, 8)
    b = ball(w, None, 3, 2)
    assert b.n == 5
    assert sorted(b.distances) == [0, 1, 1, 2, 2]
    assert len(b.edges) == 4  # a path on five vertices


def test_torus_ball_radius_one():
    w = build_torus_window(2, 6)
    b = ball(w, None, 0, 1)
    assert b.n == 5
    # no edges among the four neighbours at spacing >= 2
    assert all(0 in (i, j) for i, j in b.edges)
    assert len(b.edges) == 4


@pytest.mark.parametrize("w", [
    build_torus_window(2, 5),
    build_torus_window(1, 7),  # radius 3 covers the whole cycle
    build_random_regular(3, 7, seed=1),  # loops and parallel edges of multiplicity up to 4
], ids=["torus", "cycle", "random-regular-multi"])
def test_ball_matches_bfs_oracle(w):
    for colouring in (None, sample(uniform_bernoulli_model(3), w, 5)):
        for u in range(w.n):
            for r in range(4):
                b = ball(w, colouring, u, r)
                expected = bfs_ball(w, colouring, u, r)
                assert {f: getattr(b, f) for f in expected} == expected, (u, r)
                assert all(type(x) is int for x in b.colours + b.original)


@pytest.mark.parametrize("w", [
    build_torus_window(2, 6),
    build_random_regular(2, 40, seed=3),
    build_random_regular(1, 6, seed=2),
    build_random_regular(3, 7, seed=1),  # loops and parallel edges of multiplicity up to 4
], ids=["torus", "random-regular", "random-regular-k1", "random-regular-multi"])
def test_ball_cut_inside_a_ball_is_the_direct_ball(w):
    c = sample(uniform_bernoulli_model(2), w, 4)
    fields = ("original", "colours", "distances", "edges")
    checked = 0
    for u in range(w.n):
        big = ball(w, c, u, 2)
        for x in range(big.n):
            if big.distances[x] <= 1:
                cut, direct = big.ball(x, 1), ball(w, c, big.original[x], 1)
                assert [getattr(cut, f) for f in fields] == [getattr(direct, f) for f in fields]
                checked += 1
    assert checked > w.n


def test_ball_cut_refuses_to_reach_past_its_ball():
    w = build_torus_window(2, 6)
    big = ball(w, None, 0, 2)
    leaf = big.distances.index(2)
    assert big.ball(leaf, 0).original == (big.original[leaf],)
    with pytest.raises(ValueError):
        big.ball(leaf, 1)


def test_identical_balls_isomorphic():
    w = build_torus_window(2, 5)
    c = sample(uniform_bernoulli_model(3), w, 9)
    a = ball(w, c, 7, 2)
    b = ball(w, c, 7, 2)
    assert balls_isomorphic(a, b)


def test_leaf_colour_flip_breaks_isomorphism():
    w = build_torus_window(1, 9)
    mask = np.zeros(9, dtype=bool)
    a = ball(w, subset_colouring(w, mask), 0, 2)
    flipped = mask.copy()
    flipped[2] = True  # a leaf of the radius-2 ball around 0
    b = ball(w, subset_colouring(w, flipped), 0, 2)
    assert not balls_isomorphic(a, b)


def test_radius_mismatch_rejected():
    w = build_torus_window(1, 8)
    with pytest.raises(ValueError):
        balls_isomorphic(ball(w, None, 0, 1), ball(w, None, 0, 2))


def test_tree_like_balls_in_random_regular_isomorphic():
    # two tree-like same-colour balls agree regardless of which vertices they
    # came from; verified against the backtracking oracle
    w = build_random_regular(2, 200, seed=4)
    c = all_ones(w)
    tree_roots = []
    for u in range(w.n):
        b = ball(w, c, u, 2)
        if b.n == 1 + 4 + 12 and len(b.edges) == b.n - 1:
            tree_roots.append(u)
        if len(tree_roots) == 2:
            break
    assert len(tree_roots) == 2
    b1, b2 = (ball(w, c, u, 2) for u in tree_roots)
    assert rooted_coloured_isomorphic(b1, b2)
    assert balls_isomorphic(b1, b2)


def test_canonical_form_matches_bruteforce_oracle():
    rng = np.random.default_rng(20)
    windows = [build_torus_window(2, 4), build_random_regular(2, 24, seed=1)]
    colours = [sample(uniform_bernoulli_model(2), w, 5) for w in windows]
    checked = 0
    for radius in (0, 1, 2):
        pool = [
            ball(w, c, int(rng.integers(w.n)), radius)
            for w, c in zip(windows, colours)
            for _ in range(10)
        ]
        for a, b in zip(pool[::2], pool[1::2]):
            assert balls_isomorphic(a, b) == rooted_coloured_isomorphic(a, b)
            checked += 1
    assert checked >= 30


def test_isomorphism_is_equivalence_on_sampled_triples():
    rng = np.random.default_rng(77)
    w = build_random_regular(2, 60, seed=2)
    c = sample(uniform_bernoulli_model(2), w, 3)
    pool = [ball(w, c, int(rng.integers(w.n)), 1) for _ in range(40)]
    triples = [(pool[int(rng.integers(40))], pool[int(rng.integers(40))], pool[int(rng.integers(40))])
               for _ in range(100)]
    for a, b, d in triples:
        assert balls_isomorphic(a, a)
        assert balls_isomorphic(a, b) == balls_isomorphic(b, a)
        if balls_isomorphic(a, b) and balls_isomorphic(b, d):
            assert balls_isomorphic(a, d)


def test_balls_isomorphic_detects_girth():
    c8 = build_torus_window(1, 8)
    c6 = build_torus_window(1, 6)
    # C6 closes up at radius 3, C8 does not
    for r in range(5):
        assert balls_isomorphic(ball(c8, all_ones(c8), 0, r), ball(c6, all_ones(c6), 0, r)) == (r <= 2)
