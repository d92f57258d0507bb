"""The bivariate Gaussian orthant identity.

For standard normals X, Y with correlation rho,

    P(X >= 0, Y < 0) = arccos(rho) / (2 pi),

pinned by the independent case (rho = 0 forces 1/4) and verified here by a
direct Monte Carlo oracle over the construction Y = rho X + sqrt(1-rho^2) Z,
which ``correlated_pair`` samples.
"""

from __future__ import annotations

import math

import numpy as np

from .reporting import EstimateReport, binomial_stderr
from .rng import derive_rng


def correlated_pair(rho: float, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n draws of (X, Y), standard normal marginals with E[XY] = rho."""
    if abs(rho) > 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    rng = derive_rng(seed, "gaussian-pair")
    x = rng.standard_normal(n)
    z = rng.standard_normal(n)
    return x, rho * x + math.sqrt(max(0.0, 1.0 - rho**2)) * z


def orthant_probability(rho: float) -> float:
    """P(X >= 0, Y < 0) = arccos(rho) / (2 pi)."""
    if abs(rho) > 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    return math.acos(rho) / (2.0 * math.pi)


def orthant_probability_mc(rho: float, n: int, seed: int) -> EstimateReport:
    """Sampling oracle for the orthant probability (frequency of X>=0, Y<0)."""
    if n < 1:
        raise ValueError("need at least one trial")
    x, y = correlated_pair(rho, n, seed)
    p_hat = float(np.count_nonzero((x >= 0.0) & (y < 0.0))) / n
    return EstimateReport(estimate=p_hat, stderr=binomial_stderr(p_hat, n))
