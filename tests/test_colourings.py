"""Samplers, expansion, and serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import directed_bichromatic_count, subset_colouring

from urglab.colourings import (
    Colouring,
    colouring_from_dict,
    colouring_to_dict,
    expansion,
    sample,
    sample_constant,
)
from urglab.graphs import build_random_regular, build_torus_window


def test_constant_model_is_constant():
    w = build_torus_window(2, 5)
    for seed in range(5):
        c = sample_constant(4, w, seed)
        assert len(set(c.colours.tolist())) == 1


def test_degenerate_bernoulli_all_one_colour():
    w = build_torus_window(1, 12)
    c = sample([1.0, 0.0], w, 3)
    assert np.all(c.colours == 1)


def test_bernoulli_frequencies_within_binomial_band():
    # n = 3000, p = 1/3: the band [0.30, 0.3667] sits ~3.9 sigma out, so
    # fixed seeds clear it comfortably
    w = build_torus_window(1, 3000)
    p = [1.0 / 3] * 3
    for seed in (0, 1, 2, 3):
        c = sample(p, w, seed)
        freqs = c.counts() / w.n
        assert np.all(freqs >= 0.30) and np.all(freqs <= 0.3667)


def test_sampling_is_deterministic():
    w = build_torus_window(2, 6)
    p = [1.0 / 3] * 3
    assert np.array_equal(sample(p, w, 9).colours, sample(p, w, 9).colours)


@pytest.mark.parametrize("p", [[], [0.5, 0.6], [1.5, -0.5]])
def test_sample_refuses_a_non_probability_vector(p):
    with pytest.raises(ValueError):
        sample(p, build_torus_window(1, 5), 0)


def test_sample_constant_refuses_zero_colours():
    with pytest.raises(ValueError):
        sample_constant(0, build_torus_window(1, 5), 0)


def test_intensity_large_bernoulli():
    w = build_torus_window(1, 10**5)
    c = sample([0.3, 0.7], w, 5)
    assert abs(c.counts()[0] / w.n - 0.3) <= 0.015


def test_expansion_constant_is_zero():
    w = build_torus_window(2, 6)
    assert expansion(sample_constant(3, w, 2)) == 0.0


def test_expansion_two_arcs():
    w = build_torus_window(1, 8)
    arcs = subset_colouring(w, np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=bool))
    assert expansion(arcs) == 0.5


def test_expansion_matches_direct_count():
    w = build_random_regular(2, 40, seed=8)
    for seed in range(5):
        c = sample([1.0 / 3] * 3, w, seed)
        assert expansion(c) == directed_bichromatic_count(w, c.colours) / w.n


def test_expansion_iid_expectation():
    # D-regular window, uniform d colours: each directed incidence is
    # bichromatic with probability 1 - 1/d, so E[expansion] = D (1 - 1/d)
    w = build_torus_window(2, 5)
    d = 3
    trials = 400
    values = [expansion(sample([1.0 / d] * d, w, s)) for s in range(trials)]
    target = 4 * (1 - 1 / d)
    stderr = np.std(values, ddof=1) / math.sqrt(trials)
    assert abs(np.mean(values) - target) <= 3 * stderr


def test_expansion_bounded_by_degree():
    w = build_random_regular(2, 30, seed=1)
    for seed in range(10):
        c = sample([1.0 / 2] * 2, w, seed)
        assert expansion(c) <= w.degree_bound + 1e-12


@settings(max_examples=30)
@given(seed=st.integers(0, 10**6), perm_seed=st.integers(0, 10**6))
def test_expansion_invariant_under_colour_permutation(seed, perm_seed):
    w = build_torus_window(2, 4)
    d = 3
    c = sample([1.0 / d] * d, w, seed)
    perm = np.random.default_rng(perm_seed).permutation(d) + 1
    permuted = Colouring(w, d, perm[c.colours - 1])
    assert expansion(permuted) == expansion(c)


def test_expansion_root_average_equals_vertex_average():
    # on any window both readings are the same sum; make them explicit
    w = build_torus_window(2, 5)
    c = sample([1.0 / 3] * 3, w, 13)
    per_vertex = [
        sum(1 for v, _ in w.adjacency[u] if c.colours[v] != c.colours[u]) for u in range(w.n)
    ]
    assert expansion(c) == sum(per_vertex) / w.n == np.mean(per_vertex)


def test_bernoulli_intensity_across_seeds():
    # mean of the in-class intensity over many seeds vs p, within 4 stderr
    w = build_torus_window(1, 500)
    p = 0.37
    values = [sample([p, 1 - p], w, s).counts()[0] / w.n for s in range(120)]
    stderr = np.std(values, ddof=1) / math.sqrt(len(values))
    assert abs(np.mean(values) - p) <= 4 * stderr


def test_colouring_serialization_round_trip():
    w = build_torus_window(2, 5)
    c = sample([1.0 / 3] * 3, w, 6)
    data = colouring_to_dict(c)
    assert set(data) == {"window_id", "d", "colours"}
    back = colouring_from_dict(data, w)
    assert np.array_equal(back.colours, c.colours)
