"""Outflow/inflow identity, edge differences, and the gradient norm bound."""

import numpy as np
import pytest
from oracles import directed_bichromatic_count, mtp_sums

from urglab.balls import ball
from urglab.colourings import sample, subset_colouring, uniform_bernoulli_model
from urglab.graphs import build_explicit, build_random_regular, build_torus_window, window_from_dict
from urglab.transport import (
    TransportFunction,
    bichromatic_indicator,
    constant_transport,
    degree_weighted_indicator,
    f_arrow,
    feature_mix_function,
    mtp_check,
    neighbour_colour_count,
    norm_bound_check,
    root_colour_function,
    source_colour_indicator,
    vertex_values,
)


def bern(w, seed=0, d=2):
    return sample(uniform_bernoulli_model(d), w, seed)


def test_constant_transport_gives_average_degree():
    w = build_torus_window(1, 8)
    report = mtp_check(w, bern(w), constant_transport(1.0))
    assert report.lhs == report.rhs == 2.0
    assert report.exact


def test_source_indicator_exact():
    w = build_torus_window(2, 5)
    report = mtp_check(w, bern(w, 3), source_colour_indicator(1))
    assert report.exact
    assert report.abs_diff <= 1e-12 * max(report.lhs, 1.0)


def test_degree_weighted_on_torus_against_double_sum_oracle():
    w = build_torus_window(2, 16)
    c = bern(w, 7)
    report = mtp_check(w, c, degree_weighted_indicator(1))
    # direct double sums over an independently built edge list
    pairs = [(u, v) for u, entries in enumerate(w.adjacency) for v, _ in entries]
    lhs = sum(4.0 if c.colours[u] == 1 else 0.0 for u, v in pairs) / w.n
    rhs = sum(4.0 if c.colours[v] == 1 else 0.0 for u, v in pairs) / w.n
    assert report.lhs == pytest.approx(lhs, abs=1e-12)
    assert report.rhs == pytest.approx(rhs, abs=1e-12)
    assert report.abs_diff < 1e-9 * max(report.lhs, 1.0)


def test_negative_transport_rejected():
    w = build_torus_window(1, 8)
    negative = TransportFunction("bad", 0, lambda b, v: -1.0)
    with pytest.raises(ValueError):
        mtp_check(w, bern(w), negative)


def test_f_arrow_of_constant_vanishes():
    w = build_torus_window(2, 4)
    const = root_colour_function(1)  # on an all-1 colouring this is constant 1
    c = subset_colouring(w, np.ones(w.n, dtype=bool))
    values = vertex_values(w, c, const)
    assert np.all(values == 1.0)
    report = mtp_check(w, c, f_arrow(const))
    assert report.lhs == report.rhs == 0.0


def test_f_arrow_colour_indicator_edges():
    w = build_torus_window(1, 8)
    c = subset_colouring(w, np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=bool))
    grad = f_arrow(root_colour_function(1))
    b = ball(w, c, 1, 1)  # vertices 0,1,2; edge (1,2) is bichromatic
    assert grad.evaluate(b, b.local_index[2]) == 1.0
    assert grad.evaluate(b, b.local_index[0]) == 0.0


def test_f_arrow_mtp_matches_expansion():
    # |1_[c=1](u) - 1_[c=1](v)| summed over directed edges equals the
    # bichromatic incidence count for 2-colourings
    w = build_torus_window(2, 6)
    c = bern(w, 5)
    report = mtp_check(w, c, f_arrow(root_colour_function(1)))
    assert report.exact
    assert report.lhs == pytest.approx(directed_bichromatic_count(w, c.colours) / w.n)


def test_f_arrow_signed_sums_to_zero():
    # the signed difference is antisymmetric, so its directed-edge sum
    # telescopes away exactly
    w = build_torus_window(2, 5)
    c = bern(w, 6)
    grad = f_arrow(neighbour_colour_count(1), signed=True)
    total = 0.0
    for u in range(w.n):
        b = ball(w, c, u, grad.radius)
        for v, _ in w.adjacency[u]:
            total += grad.evaluate(b, b.local_index[v])
    assert total == pytest.approx(0.0, abs=1e-9)


def test_norm_bound_zero_function():
    w = build_torus_window(1, 8)
    c = subset_colouring(w, np.zeros(8, dtype=bool))
    report = norm_bound_check(w, c, root_colour_function(1))
    assert report.lhs_norm == 0.0 and report.rhs_bound == 0.0 and report.holds


def test_norm_bound_single_vertex_indicator_tight():
    # indicator of one cycle vertex: gradient mass 4/8 equals the ceiling
    w = build_torus_window(1, 8)
    mask = np.zeros(8, dtype=bool)
    mask[3] = True
    c = subset_colouring(w, mask)
    report = norm_bound_check(w, c, root_colour_function(1))
    assert report.lhs_norm == pytest.approx(0.5)
    assert report.rhs_bound == pytest.approx(0.5)
    assert report.holds


def test_norm_bound_random_integer_functions():
    w = build_torus_window(2, 8)
    rng = np.random.default_rng(17)
    for trial in range(100):
        c = bern(w, trial)
        coeffs = tuple(int(x) for x in rng.integers(-3, 4, size=4))
        report = norm_bound_check(w, c, feature_mix_function(coeffs, name=f"mix{trial}"))
        assert report.holds


def test_gradient_triangle_inequality():
    w = build_torus_window(2, 5)
    c = bern(w, 2, d=3)
    f = root_colour_function(1)
    g = neighbour_colour_count(2)
    fv = vertex_values(w, c, f)
    gv = vertex_values(w, c, g)
    src, dst = w.edge_arrays

    def grad_norm(values):
        return float(np.abs(values[src] - values[dst]).sum()) / w.n

    assert grad_norm(fv + gv) <= grad_norm(fv) + grad_norm(gv) + 1e-12


def test_mtp_exact_on_random_regular_with_multiedges():
    # loops and parallel edges must not break the reindexing identity
    w = build_random_regular(1, 6, seed=2)  # tiny: loops are likely
    c = bern(w, 1)
    for transport in (constant_transport(2.0), bichromatic_indicator(),
                      f_arrow(neighbour_colour_count(1))):
        report = mtp_check(w, c, transport)
        assert report.exact


SUM_WINDOWS = {
    "torus": lambda: build_torus_window(2, 5),
    "random-regular-k1": lambda: build_random_regular(1, 6, seed=2),
    "random-regular-multi": lambda: build_random_regular(3, 7, seed=1),  # loops, parallel edges
    "explicit": lambda: build_explicit(5, [(0, 1), (1, 2), (2, 0), (3, 4), (0, 4)]),
    # loops under self-inverse labels: each such entry is its own mirror
    "self-inverse-loop-file": lambda: window_from_dict(
        {"model": "explicit", "params": {"n": 3, "tag": "t"}, "seed": None, "n": 3,
         "edges": [[0, 0, "e1"], [0, 1, "e2"], [1, 2, "e1"], [2, 2, "e3"]]}),
}


def inexact_transport() -> TransportFunction:
    """deg(u) / 3 + colour(v) / 10: its float sums round differently in another order."""
    return TransportFunction("inexact", 1, lambda b, v: b.degree(0) / 3 + b.colours[v] / 10)


@pytest.mark.parametrize("name", SUM_WINDOWS)
def test_mtp_sums_equal_fresh_ball_oracle_exactly(name):
    w = SUM_WINDOWS[name]()
    for seed in range(3):
        c = bern(w, seed)
        for transport in (degree_weighted_indicator(1), bichromatic_indicator(),
                          f_arrow(neighbour_colour_count(1)), inexact_transport()):
            report = mtp_check(w, c, transport)
            assert (report.lhs, report.rhs) == mtp_sums(w, c, transport), (seed, transport.name)
