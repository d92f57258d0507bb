"""Orthant identity against its sampling oracle."""

import math

import numpy as np
import pytest

from urglab.gaussian import (
    correlated_pair,
    orthant_probability,
    orthant_probability_mc,
)


def test_independent_case_pinned():
    assert orthant_probability(0.0) == 0.25


def test_perfectly_correlated_cases():
    assert orthant_probability(1.0) == 0.0
    assert orthant_probability(-1.0) == 0.5


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        orthant_probability(1.5)
    with pytest.raises(ValueError):
        orthant_probability_mc(-1.01, 10, 0)


def test_mc_oracle_matches_closed_form():
    for i, rho in enumerate((-0.9, -0.5, 0.0, 0.5, 0.9)):
        report = orthant_probability_mc(rho, 10**6, seed=100 + i)
        assert abs(orthant_probability(rho) - report.estimate) < 4 * report.stderr


def test_half_correlation_is_one_sixth():
    assert orthant_probability(0.5) == pytest.approx(1.0 / 6.0)
    report = orthant_probability_mc(0.5, 10**6, seed=3)
    assert abs(report.estimate - 1.0 / 6.0) <= 3 * report.stderr


def test_reflection_symmetry():
    for rho in np.linspace(-1.0, 1.0, 21):
        total = orthant_probability(rho) + orthant_probability(-rho)
        assert total == pytest.approx(0.5, abs=1e-12)


def test_monotone_and_continuous_on_grid():
    grid = np.linspace(-1.0, 1.0, 101)
    values = [orthant_probability(r) for r in grid]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    steps = np.abs(np.diff(values))
    assert steps.max() <= 0.05  # no jumps on a 101-point grid


def test_pair_moments():
    x, y = correlated_pair(0.6, 200_000, seed=4)
    n = len(x)
    for arr in (x, y):
        assert abs(arr.mean()) <= 4 / math.sqrt(n)
        assert abs((arr**2).mean() - 1.0) <= 4 * math.sqrt(2.0 / n)
    corr = float((x * y).mean())
    assert abs(corr - 0.6) <= 4 * np.std(x * y) / math.sqrt(n)
