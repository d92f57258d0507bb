"""Poisson sampling, root-conditioned (Palm) sampling, Voronoi cell volume
estimation, and Monte Carlo verification of the exchange identities that
relate stationary averages to root-conditioned ones.

Two identities are checked numerically:

* mean origin-cell volume: under Palm sampling of a rate-t Poisson process
  the expected volume of the cell of the origin point is 1/t;
* the inversion identity: for bounded f,
      E[f(w)]  =  t * E_Palm[ integral over V_0(w) of f(w - u) du ],
  whose inner integral is estimated by uniform torus samples filtered to
  the origin cell (numerator and cell volume share the same draws).

For a rate-t Poisson process the root-conditioned law is the process plus
an added origin point, which is how ``palm_sample_poisson`` constructs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .graphs import WindowGraph, build_explicit
from .reporting import EstimateReport, binomial_stderr, mean_and_stderr
from .rng import derive_rng, derive_seed, parallel_trials
from .torus import (
    FlatTorus,
    PointConfiguration,
    TorusBox,
    bulk_nearest,
    find_point_index,
    nearest_distance,
)


class GuardViolation(RuntimeError):
    """A numerical guard refused the run (e.g. too few expected points)."""


MIN_EXPECTED_POINTS = 20.0


def _check_point_guard(t: float, torus: FlatTorus) -> None:
    if t * torus.volume < MIN_EXPECTED_POINTS:
        raise GuardViolation(
            f"expected point count t*L^d = {t * torus.volume:.3g} is below the "
            f"guard {MIN_EXPECTED_POINTS:g}; empty or near-empty samples would dominate"
        )


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------


def sample_poisson(t: float, torus: FlatTorus, seed: int) -> PointConfiguration:
    """Rate-t Poisson sample: Poisson(t * volume) points, iid uniform."""
    if t <= 0:
        raise ValueError("intensity t must be positive")
    rng = derive_rng(seed, "poisson")
    count = int(rng.poisson(t * torus.volume))
    points = rng.uniform(0.0, torus.side, size=(count, torus.dim))
    return PointConfiguration(torus, points)


def palm_sample_poisson(t: float, torus: FlatTorus, seed: int) -> PointConfiguration:
    """Root-conditioned Poisson sample: a plain sample plus the origin point."""
    base = sample_poisson(t, torus, seed)
    points = np.vstack([np.zeros((1, torus.dim)), base.points])
    return PointConfiguration(torus, points, rooted=True)


# ----------------------------------------------------------------------
# Cell volumes
# ----------------------------------------------------------------------


def cell_volume_mc(config: PointConfiguration, point, m: int, seed: int) -> EstimateReport:
    """Volume of one point's cell: volume * (fraction of m uniform locations
    assigned to it), with the binomial standard error."""
    if m < 1:
        raise ValueError("need at least one volume sample")
    idx = find_point_index(config, point)
    rng = derive_rng(seed, "cell-volume")
    locations = rng.uniform(0.0, config.torus.side, size=(m, config.torus.dim))
    _, assigned = bulk_nearest(config, locations)
    p_hat = float(np.count_nonzero(assigned == idx)) / m
    vol = config.torus.volume
    return EstimateReport(
        quantity=f"cell-volume[{idx}]",
        estimate=vol * p_hat,
        stderr=vol * binomial_stderr(p_hat, m),
        trials=m,
        master_seed=seed,
    )


def cell_volumes_shared(config: PointConfiguration, m: int, seed: int) -> np.ndarray:
    """All cell volumes from one shared sample set; sums to the torus volume
    exactly because every location is assigned to exactly one point."""
    if len(config) == 0:
        raise ValueError("empty configuration")
    rng = derive_rng(seed, "cell-volume-shared")
    locations = rng.uniform(0.0, config.torus.side, size=(m, config.torus.dim))
    _, assigned = bulk_nearest(config, locations)
    counts = np.bincount(assigned, minlength=len(config))
    return counts * (config.torus.volume / m)


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
        report = cell_volume_mc(config, np.zeros(torus.dim), m, derive_seed(seed, "cellvol-mc", i))
        return report.estimate

    values = np.asarray(parallel_trials(one_trial, trials))
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
    bound: float
    value: Callable[[PointConfiguration], float]
    radial: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not math.isfinite(self.bound):
            raise ValueError("functional must declare a finite bound")


def _f_one() -> BoundedFunctional:
    return BoundedFunctional("one", 1.0, lambda config: 1.0, radial=lambda d: np.ones_like(d))


def _f_capped_distance() -> BoundedFunctional:
    return BoundedFunctional(
        "capped-nearest-distance",
        1.0,
        lambda config: min(1.0, nearest_distance(config, np.zeros(config.torus.dim))),
        radial=lambda d: np.minimum(1.0, d),
    )


def _f_ball_occupied() -> BoundedFunctional:
    return BoundedFunctional(
        "ball-occupied",
        1.0,
        lambda config: 1.0 if nearest_distance(config, np.zeros(config.torus.dim)) <= 1.0 else 0.0,
        radial=lambda d: (d <= 1.0).astype(float),
    )


BUILTIN_FUNCTIONALS: dict[str, Callable[[], BoundedFunctional]] = {
    "one": _f_one,
    "capped-nearest-distance": _f_capped_distance,
    "ball-occupied": _f_ball_occupied,
}


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

    lhs_values = np.asarray(parallel_trials(lhs_trial, trials))
    lhs, lhs_stderr = mean_and_stderr(lhs_values)

    vol = torus.volume

    def inner_trial(i: int) -> float:
        config = palm_sample_poisson(t, torus, derive_seed(seed, "inversion-palm", i))
        rng = derive_rng(seed, "inversion-inner", i)
        locations = rng.uniform(0.0, torus.side, size=(m, torus.dim))
        dists, assigned = bulk_nearest(config, locations)
        in_cell = assigned == 0
        if f.radial is not None:
            # for u in the origin cell, the nearest point of (w - u) to the
            # origin is the shifted root, at distance |u|
            return vol * float(f.radial(dists[in_cell]).sum()) / m
        total = 0.0
        for u in locations[in_cell]:
            total += f.value(config.shifted(-u))
        return vol * total / m

    rhs_values = t * np.asarray(parallel_trials(inner_trial, trials))
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

    rng = derive_rng(seed, "local-finiteness")
    radius = eps / 2.0
    accepted: list[np.ndarray] = []
    while sum(len(a) for a in accepted) < trials:
        batch = rng.uniform(-radius, radius, size=(max(64, trials), torus.dim))
        inside = np.sum(batch * batch, axis=1) <= radius * radius
        accepted.append(h + batch[inside])
    locations = torus.wrap(np.vstack(accepted)[:trials])
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
# Intensity and cost composition
# ----------------------------------------------------------------------


def pp_intensity_estimate(
    configs: Iterable[PointConfiguration],
    torus: FlatTorus,
    region: TorusBox | None = None,
    master_seed: int = 0,
) -> EstimateReport:
    """Mean points per unit volume inside a window region (whole torus when
    region is None)."""
    if region is not None and region.volume <= 0:
        raise ValueError("region must have positive volume")
    counts = []
    for config in configs:
        if region is None:
            counts.append(len(config) / torus.volume)
        else:
            if len(config) == 0:
                counts.append(0.0)
            else:
                inside = region.contains(torus, config.points)
                counts.append(float(np.count_nonzero(inside)) / region.volume)
    estimate, stderr = mean_and_stderr(counts)
    return EstimateReport(
        quantity="pp-intensity",
        estimate=estimate,
        stderr=stderr,
        trials=len(counts),
        master_seed=master_seed,
    )


def pp_cost_bound(t: float, palm_cost_minus_one_bound: float) -> float:
    """Compose a root-conditioned connection-cost bound into the process
    cost bound 1 + t * bound."""
    if t <= 0:
        raise ValueError("intensity t must be positive")
    if palm_cost_minus_one_bound < 0:
        raise ValueError("bound must be nonnegative")
    return 1.0 + t * palm_cost_minus_one_bound


def voronoi_adjacency_graph(config: PointConfiguration, m: int, seed: int) -> WindowGraph:
    """Approximate cell-adjacency graph on the configuration points.

    Each of m uniform locations witnesses adjacency between its nearest and
    second-nearest points; with enough samples this recovers the pairs of
    cells sharing a boundary wall.  Used as a connecting structure for cost
    pipelines on point samples.
    """
    if len(config) < 2:
        raise ValueError("need at least two points")
    rng = derive_rng(seed, "voronoi-adjacency")
    locations = rng.uniform(0.0, config.torus.side, size=(m, config.torus.dim))
    _, idx = config.kdtree.query(locations, k=2)
    edges = sorted({(int(min(a, b)), int(max(a, b))) for a, b in idx if a != b})
    return build_explicit(len(config), edges, tag="voronoi-adjacency")
