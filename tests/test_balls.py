"""Ball extraction: the BFS cut against a BFS oracle, and cuts inside a ball."""

import numpy as np
import pytest
from oracles import bfs_ball, subset_colouring

from urglab.balls import ball
from urglab.colourings import sample
from urglab.graphs import build_random_regular, build_torus_window


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
    for colouring in (None, sample([1.0 / 3] * 3, w, 5)):
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
    c = sample([0.5, 0.5], w, 4)
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
