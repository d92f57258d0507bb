"""Outflow/inflow identity, edge differences, and the gradient norm bound.

Every edge transport is checked against its ball form in ``oracles``: the
entry arrays must equal the fresh-ball values bit for bit.  Vertex functions
exist only as ball forms; their edge differences, the gradient transports,
are held to ``ball_f_arrow`` the same way.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from oracles import (
    BALL_BUILTINS,
    ball_bichromatic,
    ball_constant,
    ball_degree_weighted,
    ball_entries,
    ball_f_arrow,
    ball_feature_mix,
    ball_inexact,
    ball_neighbour_colour_count,
    ball_root_colour,
    ball_source_colour,
    ball_spike,
    ball_vertex_values,
    build_explicit,
    directed_bichromatic_count,
    gradient_norm_bound,
    gradient_transport,
    mtp_sums,
    subset_colouring,
)

from urglab.cli import ExperimentConfig, run
from urglab.colourings import sample
from urglab.graphs import build_random_regular, build_torus_window, window_from_dict
from urglab.transport import (
    BUILTIN_TRANSPORTS,
    TransportFunction,
    bichromatic_indicator,
    constant_transport,
    degree_weighted_indicator,
    mtp_check,
    source_colour_indicator,
)


def bern(w, seed=0, d=2):
    return sample([1.0 / d] * d, w, seed)


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
    # a negative or non-finite entry is refused naming its window pair
    w = build_torus_window(2, 5)
    src, dst = w.edge_arrays
    assert (src[37], dst[37]) == (9, 14)  # in the radius-1 ball around 9, vertex 14 has a local id below 5
    for bad in (-1.0, math.nan, math.inf):
        values = np.ones(w.indices.size)
        values[37] = bad
        with pytest.raises(ValueError, match=rf"returned {bad!r} at \(9, 14\)"):
            mtp_check(w, bern(w), TransportFunction("bad", 0, lambda w, c: values))
    with pytest.raises(ValueError, match=r"returned \(99,\) values for 100 entries"):
        mtp_check(w, bern(w), TransportFunction("short", 0, lambda w, c: np.ones(99)))


def test_overflowing_sums_rejected():
    # every value is finite, but 100 of them sum past the largest float
    w = build_torus_window(2, 5)
    huge = TransportFunction("huge", 0, lambda w, c: np.full(w.indices.size, 1e308))
    # the error alone: a warning escaping the summation fails the test
    with warnings.catch_warnings(), pytest.raises(ValueError, match="'huge' sums to inf out and inf in"):
        warnings.simplefilter("error")
        mtp_check(w, bern(w), huge)


def test_constant_transport_refuses_negative_and_non_finite():
    for value in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            constant_transport(value)


def test_f_arrow_of_constant_vanishes():
    w = build_torus_window(2, 4)
    const = ball_root_colour(1)  # on an all-1 colouring this is constant 1
    c = subset_colouring(w, np.ones(w.n, dtype=bool))
    values = ball_vertex_values(w, c, const)
    assert np.all(values == 1.0)
    report = mtp_check(w, c, gradient_transport(const))
    assert report.lhs == report.rhs == 0.0


def test_f_arrow_colour_indicator_edges():
    w = build_torus_window(1, 8)
    c = subset_colouring(w, np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=bool))
    g = gradient_transport(ball_root_colour(1)).entries(w, c)
    src, dst = w.edge_arrays
    assert g[(src == 1) & (dst == 2)].tolist() == [1.0]  # edge (1,2) is bichromatic
    assert g[(src == 1) & (dst == 0)].tolist() == [0.0]


def test_f_arrow_mtp_matches_expansion():
    # |1_[c=1](u) - 1_[c=1](v)| summed over directed edges equals the
    # bichromatic incidence count for 2-colourings
    w = build_torus_window(2, 6)
    c = bern(w, 5)
    report = mtp_check(w, c, gradient_transport(ball_root_colour(1)))
    assert report.exact
    assert report.lhs == pytest.approx(directed_bichromatic_count(w, c.colours) / w.n)


def test_f_arrow_signed_sums_to_zero():
    # the signed difference on an entry is minus the one on its mirror, so
    # its directed-edge sum telescopes away exactly
    w = build_torus_window(2, 5)
    c = bern(w, 6)
    g = gradient_transport(ball_neighbour_colour_count(1), signed=True).entries(w, c)
    assert np.any(g != 0)
    assert np.array_equal(g, -g[w.mirror])


def test_norm_bound_zero_function():
    w = build_torus_window(1, 8)
    c = subset_colouring(w, np.zeros(8, dtype=bool))
    assert gradient_norm_bound(w, c, ball_root_colour(1)) == (0.0, 0.0)


def test_norm_bound_single_vertex_indicator_tight():
    # indicator of one cycle vertex: gradient mass 4/8 equals the ceiling
    w = build_torus_window(1, 8)
    mask = np.zeros(8, dtype=bool)
    mask[3] = True
    c = subset_colouring(w, mask)
    lhs, ceiling = gradient_norm_bound(w, c, ball_root_colour(1))
    assert lhs == pytest.approx(0.5)
    assert ceiling == pytest.approx(0.5)
    assert lhs <= ceiling + 1e-12


def test_norm_bound_random_integer_functions():
    w = build_torus_window(2, 8)
    rng = np.random.default_rng(17)
    for trial in range(100):
        c = bern(w, trial)
        coeffs = tuple(int(x) for x in rng.integers(-3, 4, size=4))
        lhs, ceiling = gradient_norm_bound(w, c, ball_feature_mix(coeffs, name=f"mix{trial}"))
        assert lhs <= ceiling + 1e-12


def test_gradient_triangle_inequality():
    w = build_torus_window(2, 5)
    c = bern(w, 2, d=3)
    fv = ball_vertex_values(w, c, ball_root_colour(1))
    gv = ball_vertex_values(w, c, ball_neighbour_colour_count(2))
    src, dst = w.edge_arrays

    def grad_norm(values):
        return float(np.abs(values[src] - values[dst]).sum()) / w.n

    assert grad_norm(fv + gv) <= grad_norm(fv) + grad_norm(gv) + 1e-12


def test_mtp_exact_on_random_regular_with_multiedges():
    # loops and parallel edges must not break the reindexing identity
    w = build_random_regular(3, 7, seed=1)
    rows = w.neighbour_rows
    assert any(u in row for u, row in enumerate(rows)), "window has no loop"
    assert any(len(set(row) - {u}) < len(row) - row.count(u) for u, row in enumerate(rows)), \
        "window has no parallel edge"
    c = bern(w, 1)
    for transport in (constant_transport(2.0), bichromatic_indicator(),
                      gradient_transport(ball_neighbour_colour_count(1))):
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

    def entries(w, c):
        src, dst = w.edge_arrays
        return np.diff(w.indptr)[src] / 3 + c.colours[dst] / 10

    return TransportFunction("inexact", 1, entries)


def spike_transport() -> TransportFunction:
    """2**53 on the entries out of colour-1 vertices, 1.0 elsewhere."""
    return TransportFunction("spike", 0, lambda w, c: np.where(c.colours[w.edge_arrays[0]] == 1, 2.0**53, 1.0))


def ball_vertex_functions(d: int):
    """Each vertex function at every colour parameter 1..d, and feature_mix at
    integer and float coefficients."""
    for colour in range(1, d + 1):
        yield ball_root_colour(colour)
        yield ball_neighbour_colour_count(colour)
    for coeffs in ((1, -2, 3, -4), (0.1, -1.5, 1 / 3, 0.7)):
        yield ball_feature_mix(coeffs)


def transport_pairs(d: int):
    """(entry-array form, ball form) of each built-in at every colour parameter
    1..d, of the gradient signed and unsigned of every vertex function, and of
    the tests' own transports."""
    assert set(BALL_BUILTINS) == set(BUILTIN_TRANSPORTS)
    yield constant_transport(2.5), ball_constant(2.5)
    yield bichromatic_indicator(), ball_bichromatic()
    for colour in range(1, d + 1):
        yield source_colour_indicator(colour), ball_source_colour(colour)
        yield degree_weighted_indicator(colour), ball_degree_weighted(colour)
    for f_vertex in ball_vertex_functions(d):
        for signed in (False, True):
            yield gradient_transport(f_vertex, signed), ball_f_arrow(f_vertex, signed)
    yield inexact_transport(), ball_inexact()
    yield spike_transport(), ball_spike()


@pytest.mark.parametrize("name", SUM_WINDOWS)
def test_entries_equal_ball_oracle_bit_for_bit(name):
    w = SUM_WINDOWS[name]()
    for d in (1, 2, 3):
        for seed in range(2):
            c = bern(w, seed, d)
            for transport, oracle in transport_pairs(d):
                assert transport.name == oracle.name and transport.radius == oracle.radius
                values = transport.entries(w, c)
                assert values.dtype == np.float64, transport.name
                assert values.tobytes() == ball_entries(w, c, oracle).tobytes(), (d, seed, transport.name)


@pytest.mark.parametrize("name", SUM_WINDOWS)
def test_mtp_sums_equal_fresh_ball_oracle_exactly(name):
    w = SUM_WINDOWS[name]()
    for seed in range(3):
        c = bern(w, seed)
        for transport, oracle in transport_pairs(2):
            if transport.name.endswith(":signed"):
                continue  # not a transport: mtp_check refuses its negative entries
            report = mtp_check(w, c, transport)
            assert (report.lhs, report.rhs) == mtp_sums(w, c, oracle), (seed, transport.name)


def test_mtp_sums_add_left_to_right():
    # a 2**53 outflow at vertex 0 among 1.0s: added one at a time, the 1.0s after a
    # large partial sum are rounded away, while pairwise summation (np.sum) keeps
    # groups of them, so the two orders give different floats
    w = build_torus_window(2, 5)
    c = subset_colouring(w, np.arange(w.n) == 0)
    report = mtp_check(w, c, spike_transport())
    values = [2.0**53 if u == 0 else 1.0 for u in w.edge_arrays[0].tolist()]  # per entry, in row order
    lhs = rhs = 0.0
    for val in values:
        lhs += val
    for e in w.mirror.tolist():
        rhs += values[e]
    assert (report.lhs, report.rhs) == (lhs / w.n, rhs / w.n)
    # the values tell the orders apart
    assert float(np.sum(values)) / w.n != report.lhs
    assert float(np.sum(np.array(values)[w.mirror])) / w.n != report.rhs


# sha256 of mtp_report.json at master seed 0, recorded while mtp_check summed
# with Python float loops; the gradient transport is no CLI built-in, so it is
# registered under the degree-weighted name (the report's "transport" field)
MTP_REPORT_GOLDENS = {
    "bichromatic-torus16": (
        {"model": "torus", "d": 2, "L": 16, "transport": "bichromatic"}, None,
        "c3fb5867f75e264c75e1dd2c1e4e67e74b6c56e856bcd9360b28cf3aac82a818"),
    "grad-random-regular-multi": (
        {"model": "random-regular", "k_rank": 3, "n": 7, "window_seed": 1, "transport": "degree-weighted"},
        lambda colour=1: gradient_transport(ball_neighbour_colour_count(colour)),
        "51099bc4914c5541da8bdb3afe6cbb69a595ce86d9c90e48a27348ae8bf404c5"),
}


@pytest.mark.parametrize("name", MTP_REPORT_GOLDENS)
def test_mtp_report_matches_golden_digest(name, tmp_path, monkeypatch):
    params, factory, digest = MTP_REPORT_GOLDENS[name]
    if factory is not None:
        monkeypatch.setitem(BUILTIN_TRANSPORTS, params["transport"], factory)
    run(ExperimentConfig("mtp-check", params, trials=1, seed=0, out_dir=str(tmp_path)))
    assert hashlib.sha256((tmp_path / "mtp_report.json").read_bytes()).hexdigest() == digest
