"""Poisson sampling, root-conditioned (Palm) sampling, Voronoi cell volume
estimation, and Monte Carlo verification of the exchange identities that
relate stationary averages to root-conditioned ones.

Two identities are checked numerically:

* mean origin-cell volume: under Palm sampling of a rate-t Poisson process
  the expected volume of the cell of the origin point is 1/t;
* the inversion identity: for bounded f,
      E[f(w)]  =  t * E_Palm[ integral over V_0(w) of f(w - u) du ],
  whose inner integral is estimated by uniform torus samples filtered to
  the origin cell (numerator and cell volume share the same draws).  The
  built-in f are the ``BoundedFunctional`` values of ``BUILTIN_FUNCTIONALS``.

A Palm sample lists the origin first, so both read the origin cell as the
cell of point 0.  Both filter their uniform locations with
``torus.cell_members``: an exact bisector prefilter discards the locations
that provably lie in another cell, and the survivors are checked against
the nearby points with the KD-tree's own squared distances, so the in-cell
sets and distances are those of a full ``bulk_nearest`` query.  That query
builds the Palm sample's tree, which ``cell_members`` asks only about an
exact tie, so a sample without ties builds none; the plain samples of the
lhs and the translates of the generic rhs path only feed ``f.value``, and
build none either.

For a rate-t Poisson process the root-conditioned law is the process plus
an added origin point, which is how ``palm_sample_poisson`` constructs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .reporting import EstimateReport, binomial_stderr, mean_and_stderr
from .rng import derive_rng, derive_seed
from .torus import (
    FlatTorus,
    PointConfiguration,
    bulk_nearest,
    cell_members,
    nearest_distance,
)


class GuardViolation(RuntimeError):
    """A numerical guard refused the run (e.g. too few expected points)."""


MIN_EXPECTED_POINTS = 20.0
# a sample holds 8*d bytes per point plus, once queried, a KD-tree over them, so 1e8 points take
# gigabytes (numpy's Poisson sampler itself fails above a mean of about 9.2e18)
MAX_EXPECTED_POINTS = 1e8


def _check_point_guard(t: float, torus: FlatTorus) -> None:
    if t * torus.volume < MIN_EXPECTED_POINTS:
        raise GuardViolation(
            f"expected point count t*L^d = {t * torus.volume:.3g} is below the "
            f"guard {MIN_EXPECTED_POINTS:g}; empty or near-empty samples would dominate"
        )


def check_point_budget(t: float, torus: FlatTorus) -> None:
    """Refuse a sample above MAX_EXPECTED_POINTS expected points, or above as many
    coordinates: t*L^d*d, and at least the d of a Palm sample's origin row."""
    expected = t * torus.volume
    if expected > MAX_EXPECTED_POINTS:
        raise GuardViolation(f"expected point count t*L^d = {expected:.3g} is above the guard "
                             f"{MAX_EXPECTED_POINTS:g}; one sample would take gigabytes")
    coordinates = max(expected, 1.0) * torus.dim
    if coordinates > MAX_EXPECTED_POINTS:
        raise GuardViolation(f"d: a sample of dimension {torus.dim} holds about {coordinates:.3g} coordinates, "
                             f"above the guard {MAX_EXPECTED_POINTS:g}; one sample would take gigabytes")


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------


def _poisson_points(t: float, torus: FlatTorus, seed: int) -> np.ndarray:
    """Poisson(t * volume) iid uniform points in [0, side)^d."""
    if t <= 0:
        raise ValueError("intensity t must be positive")
    check_point_budget(t, torus)
    rng = derive_rng(seed, "poisson")
    count = int(rng.poisson(t * torus.volume))
    return rng.uniform(0.0, torus.side, size=(count, torus.dim))


def sample_poisson(t: float, torus: FlatTorus, seed: int) -> PointConfiguration:
    """Rate-t Poisson sample: Poisson(t * volume) points, iid uniform."""
    return PointConfiguration(torus, _poisson_points(t, torus, seed))


def palm_sample_poisson(t: float, torus: FlatTorus, seed: int) -> PointConfiguration:
    """Root-conditioned Poisson sample: the plain sample's points plus the
    origin, listed first, in one configuration."""
    sample = _poisson_points(t, torus, seed)  # guarded before the origin row exists
    return PointConfiguration(torus, np.vstack([np.zeros((1, torus.dim)), sample]), rooted=True)


# ----------------------------------------------------------------------
# Cell volumes
# ----------------------------------------------------------------------


def cell_volume_mc(config: PointConfiguration, idx: int, m: int, seed: int) -> EstimateReport:
    """Volume of the cell of point ``idx``: volume * (fraction of m uniform
    locations assigned to it), with the binomial standard error."""
    if m < 1:
        raise ValueError("need at least one volume sample")
    if not 0 <= idx < len(config):
        raise ValueError(f"point {idx} out of range")
    rng = derive_rng(seed, "cell-volume")
    locations = rng.uniform(0.0, config.torus.side, size=(m, config.torus.dim))
    members, _ = cell_members(config, idx, locations)
    p_hat = float(len(members)) / m
    vol = config.torus.volume
    return EstimateReport(estimate=vol * p_hat, stderr=vol * binomial_stderr(p_hat, m))


@dataclass(frozen=True)
class CellVolumeReport:
    estimate: float
    stderr: float
    target: float  # 1 / t
    abs_error: float
    trials: int
    samples_per_trial: int
    master_seed: int


def verify_mean_cell_volume(
    t: float, torus: FlatTorus, trials: int, m: int, seed: int
) -> tuple[CellVolumeReport, np.ndarray]:
    """Mean origin-cell volume over Palm samples against the 1/t target."""
    _check_point_guard(t, torus)

    def one_trial(i: int) -> float:
        config = palm_sample_poisson(t, torus, derive_seed(seed, "cellvol-config", i))
        report = cell_volume_mc(config, 0, m, derive_seed(seed, "cellvol-mc", i))
        return report.estimate

    values = np.asarray([one_trial(i) for i in range(trials)])
    estimate, stderr = mean_and_stderr(values)
    return (
        CellVolumeReport(
            estimate=estimate,
            stderr=stderr,
            target=1.0 / t,
            abs_error=abs(estimate - 1.0 / t),
            trials=trials,
            samples_per_trial=m,
            master_seed=seed,
        ),
        values,
    )


# ----------------------------------------------------------------------
# Inversion identity
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BoundedFunctional:
    """A bounded test functional on configurations.

    ``radial`` is an optional fast path for functionals that depend only on
    the distance from the origin to the configuration; it receives an array
    of such distances and returns the values.
    """

    name: str
    value: Callable[[PointConfiguration], float]
    radial: Callable[[np.ndarray], np.ndarray] | None = None


def _origin_distance(config: PointConfiguration) -> float:
    return nearest_distance(config, np.zeros(config.torus.dim))


# the built-in functionals, each bounded by 1, keyed by name
BUILTIN_FUNCTIONALS: dict[str, BoundedFunctional] = {f.name: f for f in (
    BoundedFunctional("one", lambda config: 1.0, radial=np.ones_like),
    BoundedFunctional("capped-nearest-distance", lambda config: min(1.0, _origin_distance(config)),
                      radial=lambda d: np.minimum(1.0, d)),
    BoundedFunctional("ball-occupied", lambda config: 1.0 if _origin_distance(config) <= 1.0 else 0.0,
                      radial=lambda d: (d <= 1.0).astype(float)),
)}


@dataclass(frozen=True)
class InversionReport:
    functional: str
    lhs: float
    lhs_stderr: float
    rhs: float
    rhs_stderr: float
    diff: float
    combined_stderr: float
    trials: int
    samples_per_trial: int
    master_seed: int


def verify_voronoi_inversion(
    f: BoundedFunctional, t: float, torus: FlatTorus, trials: int, m: int, seed: int
) -> tuple[InversionReport, np.ndarray, np.ndarray]:
    """Stationary average of f vs the root-conditioned cell integral.

    lhs: mean of f over plain Poisson samples.  rhs: t times the mean over
    Palm samples of  volume * mean_j [ 1{u_j in origin cell} * f(w - u_j) ]
    with u_j uniform on the torus, an unbiased one-pass estimate of the
    cell integral in which the indicator and the integrand share draws.
    """
    _check_point_guard(t, torus)

    def lhs_trial(i: int) -> float:
        config = sample_poisson(t, torus, derive_seed(seed, "inversion-lhs", i))
        return float(f.value(config))

    lhs_values = np.asarray([lhs_trial(i) for i in range(trials)])
    lhs, lhs_stderr = mean_and_stderr(lhs_values)

    vol = torus.volume

    def inner_trial(i: int) -> float:
        config = palm_sample_poisson(t, torus, derive_seed(seed, "inversion-palm", i))
        rng = derive_rng(seed, "inversion-inner", i)
        locations = rng.uniform(0.0, torus.side, size=(m, torus.dim))
        in_cell, dists = cell_members(config, 0, locations)
        if f.radial is not None:
            # for u in the origin cell, the nearest point of (w - u) to the
            # origin is the shifted root, at distance |u|
            return vol * float(f.radial(dists).sum()) / m
        total = 0.0
        for u in locations[in_cell]:
            total += f.value(config.shifted(-u))
        return vol * total / m

    rhs_values = t * np.asarray([inner_trial(i) for i in range(trials)])
    rhs, rhs_stderr = mean_and_stderr(rhs_values)

    combined = math.hypot(lhs_stderr, rhs_stderr)
    return (
        InversionReport(
            functional=f.name,
            lhs=lhs,
            lhs_stderr=lhs_stderr,
            rhs=rhs,
            rhs_stderr=rhs_stderr,
            diff=abs(lhs - rhs),
            combined_stderr=combined,
            trials=trials,
            samples_per_trial=m,
            master_seed=seed,
        ),
        lhs_values,
        rhs_values,
    )


# ----------------------------------------------------------------------
# Local finiteness of the tessellation
# ----------------------------------------------------------------------


def _uniform_ball(rng: np.random.Generator, radius: float, count: int, dim: int) -> np.ndarray:
    """``count`` uniform points of the centred ``dim``-ball of ``radius``.

    A normalised Gaussian direction times ``radius * U**(1/dim)``: the
    radius's law makes ``(r / radius)**dim`` uniform, as the ball's volume
    requires.  Rejection from the bounding cube keeps a share of draws that
    falls faster than exponentially in ``dim`` (about 2.5e-8 at dim = 20);
    this costs the same few draws per point in every dimension.
    """
    directions = rng.standard_normal((count, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return directions * (radius * rng.uniform(size=(count, 1)) ** (1.0 / dim))


@dataclass(frozen=True)
class LocalFinitenessReport:
    nearest_distance: float  # R = d(h, w)
    minimizer_count: int
    eps: float
    trials: int
    violations: int
    holds: bool


def check_local_finiteness(
    config: PointConfiguration, h, trials: int, seed: int = 0
) -> LocalFinitenessReport:
    """Constructive check that a small ball around h meets only the cells of
    h's nearest points.

    With R = d(h, w) and minimizers g_1..g_k, pick eps so that the ball of
    radius R + eps holds no further points; every location within eps/2 of
    h must then be assigned to one of g_1..g_k, which is verified on
    ``trials`` sampled locations.
    """
    if len(config) == 0:
        raise ValueError("empty configuration")
    if trials < 1:
        raise ValueError("need at least one sampled location")
    torus = config.torus
    h = np.asarray(h, dtype=float)
    d2 = torus.distance_sq(config.points, h)
    r_sq = float(d2.min())
    minimizers = np.flatnonzero(d2 <= r_sq + 1e-12)
    k = len(minimizers)
    if k == len(config):
        eps = torus.side / 2.0
    else:
        eps = float(math.sqrt(np.partition(d2, k)[k]) - math.sqrt(r_sq))  # nearest non-minimizer

    offsets = _uniform_ball(derive_rng(seed, "local-finiteness"), eps / 2.0, trials, torus.dim)
    locations = torus.wrap(h + offsets)
    _, assigned = bulk_nearest(config, locations)
    violations = int(np.count_nonzero(~np.isin(assigned, minimizers)))
    return LocalFinitenessReport(
        nearest_distance=math.sqrt(r_sq),
        minimizer_count=k,
        eps=eps,
        trials=trials,
        violations=violations,
        holds=violations == 0,
    )


# ----------------------------------------------------------------------
# Cost composition
# ----------------------------------------------------------------------


def pp_cost_bound(t: float, palm_cost_minus_one_bound: float) -> float:
    """Compose a root-conditioned connection-cost bound into the process
    cost bound 1 + t * bound."""
    if t <= 0:
        raise ValueError("intensity t must be positive")
    if palm_cost_minus_one_bound < 0:
        raise ValueError("bound must be nonnegative")
    return 1.0 + t * palm_cost_minus_one_bound
