"""Experiment runner: one config in, reproducible data files out.

Each experiment kind is one typed spec (a frozen dataclass below): it
generates the kind's flags and reads its flat ``key = value`` config files
(flags win) and its ``run()`` params.  A kind's runner only computes: it
returns its data outputs as ``{file name: payload}``, and ``run()`` validates
the spec, runs its ``guard()``, builds the window, then writes each output and
``run.manifest.json`` (config echo, version, wall time, sha256 per output)
beside them.  All randomness is derived from the master seed, so rerunning a
config reproduces the data files byte for byte.

Exit codes: 0 success, 2 validation failure, 3 numerical-guard refusal.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import __version__
from .clusters import (
    DisconnectedClustersError,
    connect_clusters,
    cost_upper_bound,
    decompose,
    gaboriau_induction,
)
from .colourings import colouring_to_dict, sample, sample_constant, subset_mask
from .gaussian import orthant_probability, orthant_probability_mc
from .graphs import (
    WindowGraph,
    build_complete,
    build_path,
    build_random_regular,
    build_torus_window,
    window_from_dict,
)
from .kazhdan import (
    InfeasibleBalanceError,
    InstanceTooLargeError,
    KazhdanProblem,
    WeightVector,
    anneal_kazhdan,
    brute_force_kazhdan,
)
from .palm import (
    BUILTIN_FUNCTIONALS,
    GuardViolation,
    check_local_finiteness,
    check_point_budget,
    sample_poisson,
    verify_mean_cell_volume,
    verify_voronoi_inversion,
)
from .reporting import fmt_float, sha256_of, write_csv, write_json
from .rng import derive_rng, derive_seed
from .torus import FlatTorus
from .transport import BUILTIN_TRANSPORTS, mtp_check

# directed entries of a built-in window; a whole `urglab percolation` process running one trial on
# a 1024^2 torus (4.2e6 entries) peaks at about 380 MB RSS
MAX_WINDOW_ENTRIES = 10**8
# vertices or directed entries of a window file: its read (json.loads, then the sorting
# WindowGraph build) peaks at 222 to 249 B per directed entry (tracemalloc, 2e5 to 1e7 entries),
# and a fresh process reading a 5e6-entry file peaked at 1.34 GB RSS.  json.loads alone takes 10
# to 12 B per byte of the file, so a file over _FILE_BYTES (window_to_json writes 9 to 14 B per
# directed entry) is refused before it is read
_FILE_ENTRIES = 5 * 10**6
_FILE_BYTES = 16 * _FILE_ENTRIES
# per-trial samples (the m*d coordinates of palm's m locations, gauss-check's n normal
# pairs) cost tens of bytes each, so 1e8 of them take gigabytes
MAX_SAMPLES = 10**8
# kazhdan's k and mtp-check's colours: each part or colour takes a weight in a Python list; and a
# window file's declared edge labels: each takes about 257 B of Python strings and dicts
MAX_PARTS = 10**6
_PARTS_CAP = (MAX_PARTS, "the run would build a list of that many weights")
# mtp-check's constant value: a sum of at most MAX_WINDOW_ENTRIES of them stays finite
_MAX_TRANSPORT_VALUE = sys.float_info.max / MAX_WINDOW_ENTRIES
# mtp-check field -> keyword of the transport factory that takes it
_TRANSPORT_ARGS = {"transport_colour": "colour", "transport_value": "value"}


class ValidationError(ValueError):
    def __init__(self, messages: list[str]):
        self.messages = messages
        super().__init__("; ".join(messages))


@dataclass
class ExperimentConfig:
    kind: str
    params: dict = field(default_factory=dict)
    trials: int = 100
    seed: int = 0
    out_dir: str = "."


@dataclass(frozen=True)
class RunManifest:
    config: dict
    artifact_version: str
    wall_time_s: float
    outputs: dict[str, str]  # filename -> sha256


# ----------------------------------------------------------------------
# Experiment specs: one frozen dataclass per kind.  A field's annotation,
# default and metadata (help, choices, single-field check, size cap) generate
# its flag, coerce its config-file and run() values, check and guard them.
# ----------------------------------------------------------------------


def _float_list(value) -> list[float]:
    """Comma-separated text (from a flag), or a JSON list or a bare number
    (from a config file or run() params); never empty."""
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
    elif isinstance(value, (int, float)):
        value = [value]
    if not value or any(isinstance(x, bool) for x in value):
        raise ValueError(value)
    return [float(x) for x in value]


# annotation text (``from __future__ import annotations``) -> coercion;
# ``X | None`` also takes None
_CASTS = {"int": int, "float": float, "str": str, "bool": bool, "list[float]": _float_list}


def _field(default, help: str, *, choices=None, check=None, cap=None):
    """A spec field; ``check`` is ``(predicate, message)`` on a non-None value,
    ``cap`` is ``(limit, cost)``: guard() refuses a value above ``limit``."""
    metadata = {"help": help, "choices": choices, "check": check, "cap": cap}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=metadata)
    return field(default=default, metadata=metadata)


def _cast(name: str, annotation: str, value):
    if value is None and annotation.endswith(" | None"):
        return None
    cast = _CASTS[annotation.removesuffix(" | None")]
    try:
        # never converted: bool("no") is True, a bool is no number, int(8.9) truncates
        if (isinstance(value, bool) != (cast is bool) or cast is str and not isinstance(value, str)
                or cast is int and isinstance(value, float) and not value.is_integer()):
            raise TypeError(value)
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError([f"{name}: invalid value {value!r}"]) from None


@dataclass(frozen=True)
class _Spec:
    """Base of the experiment specs; subclasses add fields and cross-field checks."""

    def problems(self, kind: str) -> list[str]:
        """Single-field checks, then (only if those pass) the cross-field ones."""
        v = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            choices, check = f.metadata["choices"], f.metadata["check"]
            if choices is not None and value not in choices:
                v.append(f"{kind}: {f.name} must be one of {'|'.join(choices)}")
            if check is not None and not check[0](value):
                v.append(f"{kind}: {check[1]}")
        return v or self.cross_problems()

    def cross_problems(self) -> list[str]:
        return []

    def guard(self) -> None:
        """Refuse a field above its cap (GuardViolation); run() calls it after
        validation and before anything is built or sampled."""
        for f in fields(self):
            value, cap = getattr(self, f.name), f.metadata["cap"]
            if cap is not None and value > cap[0]:
                raise GuardViolation(f"{f.name}: {value} is above the guard {cap[0]:g}; {cap[1]}")


def _resolve(cls: type[_Spec], kind: str, values: dict) -> _Spec:
    """Coerce raw values into ``cls`` and check them; ValidationError names
    each unknown key, unreadable value and failed check."""
    types = {f.name: f.type for f in fields(cls)}
    messages = [f"{kind}: unknown key {name}" for name in values if name not in types]
    kwargs = {}
    for name, value in values.items():
        try:
            if name in types:
                kwargs[name] = _cast(name, types[name], value)
        except ValidationError as exc:
            messages += exc.messages
    if not messages:
        spec = cls(**kwargs)
        messages = spec.problems(kind)
    if messages:
        raise ValidationError(messages)
    return spec


@dataclass(frozen=True)
class GaussSpec(_Spec):
    """orthant identity vs Monte Carlo"""

    rho: list[float] = _field([0.0], "comma-separated correlations",
                              check=(lambda rho: all(abs(r) <= 1 for r in rho), "rho must lie in [-1, 1]"))
    n: int = _field(10**5, "samples per correlation", check=(lambda n: n >= 1, "sample count n must be positive"),
                    cap=(MAX_SAMPLES, "one trial would take gigabytes"))


@dataclass(frozen=True)
class PalmSpec(_Spec):
    """point-process checks on a flat torus"""

    t: float = _field(1.0, "process intensity",
                      check=(lambda t: 0 < t < math.inf, "intensity t must be positive and finite"))
    L: float = _field(20.0, "torus side", check=(lambda L: 0 < L < math.inf, "side L must be positive and finite"))
    d: int = _field(2, "torus dimension", check=(lambda d: d >= 1, "dimension d must be positive"))
    m: int = _field(10**4, "samples per trial",
                    check=(lambda m: m >= 1, "per-trial sample count m must be positive"))
    check: str = _field("cellvol", "identity to check", choices=("cellvol", "inversion", "locfin"))
    functional: str | None = _field(None, "inversion functional; every built-in one when unset",
                                    choices=tuple(sorted(BUILTIN_FUNCTIONALS)))

    def cross_problems(self) -> list[str]:
        if self.functional is not None and self.check != "inversion":
            return [f"palm: check {self.check} takes no functional"]
        return []

    def guard(self) -> None:
        super().guard()
        check_point_budget(self.t, FlatTorus(self.d, self.L))
        if self.m * self.d > MAX_SAMPLES:
            raise GuardViolation(f"m: {self.m} locations per trial of dimension {self.d} hold {self.m * self.d:g} "
                                 f"coordinates, above the guard {MAX_SAMPLES:g}; one trial would take gigabytes")


# window model -> ({message: check}, field that sizes it, directed entries, builder(spec, master
# seed)); the checks read unset sizes as 0, and the rows look their builders up when called
_WINDOW_MODELS = {
    # 2d * L^d, exact up to d = 64; past it L^64 >= 3^64 alone is over the guard
    "torus": ({"side L must satisfy L >= 3": lambda s: s.L >= 3, "dimension d must be positive": lambda s: s.d >= 1},
              "L", lambda s: 2 * s.d * s.L ** min(s.d, 64), lambda s, seed: build_torus_window(s.d, s.L)),
    "cycle": ({"length L must satisfy L >= 3": lambda s: s.L >= 3}, "L", lambda s: 2 * s.L,
              lambda s, seed: build_torus_window(1, s.L)),
    "path": ({"need n >= 2": lambda s: s.n >= 2}, "n", lambda s: 2 * (s.n - 1), lambda s, seed: build_path(s.n)),
    "complete": ({"need n >= 2": lambda s: s.n >= 2}, "n", lambda s: s.n * (s.n - 1),
                 lambda s, seed: build_complete(s.n)),
    "random-regular": ({"need k >= 1 and n >= 2k + 1": lambda s: s.k_rank >= 1 and s.n >= 2 * s.k_rank + 1}, "n",
                       lambda s: 2 * s.k_rank * s.n,
                       lambda s, seed: build_random_regular(s.k_rank, s.n, derive_seed(seed, "window")
                                                            if s.window_seed is None else s.window_seed)),
    # the reader guards the file's own sizes
    "window-file": ({"missing path": lambda s: bool(s.window_file)}, "window_file", lambda s: 0,
                    lambda s, seed: s._read_window_file()),
}
WINDOW_MODELS = tuple(_WINDOW_MODELS)


@dataclass(frozen=True)
class WindowSpec(_Spec):
    """The window graph shared by the window-based kinds."""

    model: str = _field("torus", "window model", choices=WINDOW_MODELS)
    d: int = _field(2, "torus dimension")
    L: int | None = _field(None, "torus side or cycle length")
    n: int | None = _field(None, "vertex count of a path, complete or random-regular window")
    k_rank: int = _field(2, "rank of the random-regular model")
    window_seed: int | None = _field(None, "random-regular seed; derived from the master seed when unset",
                                     check=(lambda seed: seed >= 0, "window_seed must be nonnegative"))
    window_file: str | None = _field(None, "window JSON file of the window-file model")

    def cross_problems(self) -> list[str]:
        sized = replace(self, L=self.L or 0, n=self.n or 0)
        return [f"{self.model}: {message}" for message, check in _WINDOW_MODELS[self.model][0].items()
                if not check(sized)]

    def build(self, seed: int) -> WindowGraph:
        """The window of the model's row.  A built-in window above MAX_WINDOW_ENTRIES directed
        entries, counted from the spec in Python ints, raises GuardViolation before it is built;
        a window file that cannot be read raises ValidationError."""
        _, size, entries, builder = _WINDOW_MODELS[self.model]
        if entries(self) > MAX_WINDOW_ENTRIES:
            raise GuardViolation(f"{size}: a {self.model} window of this size has more than "
                                 f"{MAX_WINDOW_ENTRIES:g} directed entries; building it would take gigabytes")
        return builder(self, seed)

    def _read_window_file(self) -> WindowGraph:
        path, label_cap = Path(self.window_file), min(_FILE_ENTRIES, MAX_PARTS)
        try:
            if path.stat().st_size <= _FILE_BYTES:
                data = json.loads(path.read_text())
                rank = {"torus": "d", "random-regular": "k"}.get(data["model"])
                labels = 2 * data["params"][rank] if rank else 0
                if data["model"] == "explicit":  # one label per distinct name in the edge rows
                    labels = len({s for _, _, s in data["edges"]})
                # the vertex count, the edge rows and the labels size every array the window builds
                if max(data["n"], 2 * len(data["edges"])) <= _FILE_ENTRIES and labels <= label_cap:
                    return window_from_dict(data)
        except (OSError, ValueError, LookupError, TypeError) as exc:
            raise ValidationError([f"window_file: cannot read {self.window_file}: {exc}"]) from None
        raise GuardViolation(f"window_file: {self.window_file} is over {_FILE_BYTES:g} "
                             f"bytes, or has more than {_FILE_ENTRIES:g} vertices or directed entries or more "
                             f"than {label_cap:g} edge labels; reading it would take over 2 GB")


@dataclass(frozen=True)
class PercolationSpec(WindowSpec):
    """cluster statistics and cost bounds per (p, trial)"""

    p: list[float] = _field([0.2], "comma-separated occupation probabilities, each run for every trial",
                            check=(lambda p: all(0.0 <= x <= 1.0 for x in p),
                                   "occupation probability p must lie in [0, 1]"))


@dataclass(frozen=True)
class CostBoundSpec(WindowSpec):
    """single-instance cost bounds, JSON out"""

    p: float = _field(0.2, "occupation probability",
                      check=(lambda p: 0.0 <= p <= 1.0, "occupation probability p must lie in [0, 1]"))


@dataclass(frozen=True)
class KazhdanSpec(WindowSpec):
    """balanced partition search"""

    k: int = _field(2, "number of parts", check=(lambda k: k >= 1, "part count k must be positive"), cap=_PARTS_CAP)
    alpha: list[float] | None = _field(None, "comma-separated target weights; uniform when unset",
                                       check=(lambda a: all(map(math.isfinite, a)), "alpha entries must be finite"))
    eps: float = _field(0.0, "allowed deviation of each part's weight from its target")
    budget: int = _field(4000, "annealer steps per restart",
                         check=(lambda b: b >= 1, "budget must be positive"))
    restarts: int = _field(10, "annealer restarts", check=(lambda r: r >= 1, "restarts must be positive"))
    brute_force: bool = _field(False, "exhaustive search with an optimality certificate")

    def weights(self) -> list[float]:
        """``alpha``, or uniform weights when it is unset."""
        return self.alpha or [1.0 / self.k] * self.k

    def cross_problems(self) -> list[str]:
        v = super().cross_problems()
        alpha = self.alpha
        if alpha and len(alpha) != self.k:
            v.append("kazhdan: alpha length must equal k")
        elif alpha and (min(alpha) < 0 or abs(math.fsum(alpha) - 1.0) > 1e-12):
            v.append("kazhdan: alpha must be a probability vector")
        # every uniform weight is 1/k, so no k-long list is built to find the least
        if not 0 <= self.eps < (min(alpha) if alpha else 1.0 / self.k):
            v.append("kazhdan: eps must satisfy eps < min(alpha)")
        return v


@dataclass(frozen=True)
class MtpSpec(WindowSpec):
    """outflow/inflow identity on a window"""

    transport: str = _field("constant", "edge transport", choices=tuple(sorted(BUILTIN_TRANSPORTS)))
    transport_colour: int | None = _field(None, "colour argument of the transport")
    transport_value: float | None = _field(None, "value argument of the transport",
                                           check=(lambda x: 0 <= x <= _MAX_TRANSPORT_VALUE,
                                                  "transport_value must be finite and nonnegative, "
                                                  f"at most {_MAX_TRANSPORT_VALUE:g}"))
    colouring: str = _field("bernoulli", "colouring model", choices=("bernoulli", "constant"))
    colours: int = _field(2, "number of colours", check=(lambda c: c >= 1, "need at least one colour"),
                          cap=_PARTS_CAP)

    def cross_problems(self) -> list[str]:
        v = super().cross_problems()
        accepted = inspect.signature(BUILTIN_TRANSPORTS[self.transport]).parameters
        for key, arg in _TRANSPORT_ARGS.items():
            if getattr(self, key) is not None and arg not in accepted:
                v.append(f"mtp-check: transport {self.transport} takes no {key}")
        if self.transport_colour is not None and not 1 <= self.transport_colour <= self.colours:
            v.append(f"mtp-check: transport_colour must lie in 1..{self.colours}")
        return v


def _resolve_config(config: ExperimentConfig) -> _Spec:
    """The config's typed spec; ValidationError lists every problem found."""
    if not isinstance(config.kind, str) or config.kind not in _KINDS:
        raise ValidationError([f"unknown experiment kind: {config.kind}"])
    messages = []
    # run() takes these typed: only config_from_args reads them from text
    for name, ok in (("trials", type(config.trials) is int), ("seed", type(config.seed) is int),
                     ("out_dir", isinstance(config.out_dir, (str, os.PathLike))),
                     ("params", isinstance(config.params, dict))):
        if not ok:
            messages.append(f"{name}: invalid value {getattr(config, name)!r}")
    if type(config.seed) is int and config.seed < 0:
        messages.append("master seed must be a nonnegative integer")
    if type(config.trials) is int and config.trials < 1:
        messages.append("trials must be positive")
    if isinstance(config.params, dict):
        try:
            spec = _resolve(_KINDS[config.kind][0], config.kind, config.params)
        except ValidationError as exc:
            messages += exc.messages
    if messages:
        raise ValidationError(messages)
    return spec


def validate(config: ExperimentConfig) -> list[str]:
    """Empty list iff run() will clear its validation layer (a window file
    is read, and so checked, only when the window is built)."""
    try:
        _resolve_config(config)
    except ValidationError as exc:
        return exc.messages
    return []


def build_window(params: dict, seed: int) -> WindowGraph:
    """The window of a window-based kind's params; its other keys are ignored."""
    names = {f.name for f in fields(WindowSpec)}
    return _resolve(WindowSpec, "window", {k: v for k, v in params.items() if k in names}).build(seed)


# ----------------------------------------------------------------------
# Experiment bodies: each returns {file name: payload}, a payload being a
# JSON object or a CSV (header, rows) pair; run() writes them
# ----------------------------------------------------------------------


def _run_gauss_check(spec: GaussSpec, config: ExperimentConfig, w: None) -> dict:
    rows = []
    for i, rho in enumerate(spec.rho):
        closed = orthant_probability(rho)
        mc = orthant_probability_mc(rho, spec.n, derive_seed(config.seed, "gauss", i))
        ok = abs(closed - mc.estimate) <= 4.0 * mc.stderr
        rows.append(
            (fmt_float(rho), fmt_float(closed), fmt_float(mc.estimate), fmt_float(mc.stderr), ok)
        )
    return {"gauss_check.csv": (("rho", "closed_form", "mc", "stderr", "ok"), rows)}


def _run_mtp_check(spec: MtpSpec, config: ExperimentConfig, w: WindowGraph) -> dict:
    d, seed = spec.colours, derive_seed(config.seed, "colouring")
    c = sample_constant(d, w, seed) if spec.colouring == "constant" else sample([1.0 / d] * d, w, seed)
    kwargs = {arg: getattr(spec, key) for key, arg in _TRANSPORT_ARGS.items() if getattr(spec, key) is not None}
    report = mtp_check(w, c, BUILTIN_TRANSPORTS[spec.transport](**kwargs))
    return {"mtp_report.json": {"window": w.window_id, "transport": spec.transport, **asdict(report)}}


def _cost_pipeline(w: WindowGraph, p: float, seed: int):
    """A Bernoulli(p) subset, its clusters and its connection-cost bounds."""
    dec = decompose(w, subset_mask(sample([p, 1.0 - p], w, seed)))
    return dec, cost_upper_bound(dec, connect_clusters(dec))


def _run_percolation(spec: PercolationSpec, config: ExperimentConfig, w: WindowGraph) -> dict:
    def row(i: int):  # trial i % trials at p[i // trials]: one p value gives a plain trial run
        p = spec.p[i // config.trials]
        dec, bound = _cost_pipeline(w, p, derive_seed(config.seed, "percolation", i))
        largest = max(dec.sizes) / w.n if dec.count else 0.0
        return (
            fmt_float(p),
            fmt_float(bound.intensity),
            str(dec.count),
            fmt_float(largest),
            fmt_float(bound.lemma_bound),
            fmt_float(bound.empirical_bound),
        )

    header = ("p", "intensity", "cluster_count", "largest_cluster_fraction",
              "cost_bound_lemma", "cost_bound_empirical")
    return {"percolation.csv": (header, [row(i) for i in range(len(spec.p) * config.trials)])}


def _run_cost_bound(spec: CostBoundSpec, config: ExperimentConfig, w: WindowGraph) -> dict:
    dec, bound = _cost_pipeline(w, spec.p, derive_seed(config.seed, "subset"))
    # restricted cost at most the degree bound, pushed back up
    gaboriau = gaboriau_induction(float(w.degree_bound), bound.intensity) if bound.intensity > 0 else 1.0
    return {
        "cost_bound.json": {"window": w.window_id, "p": spec.p, "cluster_count": dec.count,
                            "gaboriau_from_degree": gaboriau, **asdict(bound)},
    }


def _run_kazhdan(spec: KazhdanSpec, config: ExperimentConfig, w: WindowGraph) -> dict:
    alpha = WeightVector(tuple(spec.weights()))
    problem = KazhdanProblem(
        window=w,
        k=spec.k,
        alpha=alpha,
        eps=spec.eps,
        budget=spec.budget,
        restarts=spec.restarts,
        seed=config.seed,
    )
    result = brute_force_kazhdan(problem) if spec.brute_force else anneal_kazhdan(problem)
    return {
        "kazhdan_result.json": {
            "window": w.window_id,
            "k": spec.k,
            "alpha": list(alpha.values),
            "eps": problem.eps,
            "value": result.value,
            "weights": list(result.weights.values),
            "certificate": result.certificate,
            "empty_parts": list(result.empty_parts),
            "seed": config.seed,
            "partition": colouring_to_dict(result.partition),
        },
        "kazhdan_trace.csv": (("restart", "step", "best_value"),
                              [(str(r), str(s), fmt_float(v)) for r, s, v in result.trace]),
    }


def _run_palm(spec: PalmSpec, config: ExperimentConfig, w: None) -> dict:
    torus = FlatTorus(spec.d, spec.L)
    t, m = spec.t, spec.m

    if spec.check == "cellvol":
        report, values = verify_mean_cell_volume(t, torus, config.trials, m, config.seed)
        report, header = asdict(report), ("trial", "volume")
        rows = [(str(i), fmt_float(v)) for i, v in enumerate(values)]
    elif spec.check == "inversion":
        names = [spec.functional] if spec.functional else list(BUILTIN_FUNCTIONALS)
        reports = []
        rows = []
        for j, name in enumerate(names):
            seed = derive_seed(config.seed, "inversion-functional", j)
            report, lhs_values, rhs_values = verify_voronoi_inversion(
                BUILTIN_FUNCTIONALS[name], t, torus, config.trials, m, seed
            )
            reports.append(asdict(report))
            rows.extend(
                (name, str(i), fmt_float(lv), fmt_float(rv))
                for i, (lv, rv) in enumerate(zip(lhs_values, rhs_values))
            )
        report, header = {"checks": reports}, ("functional", "trial", "lhs_value", "rhs_value")
    else:  # locfin
        rows = []
        total_violations = 0
        for i in range(config.trials):
            config_i = sample_poisson(t, torus, derive_seed(config.seed, "locfin-config", i))
            if len(config_i) == 0:
                continue
            h = derive_rng(config.seed, "locfin-location", i).uniform(0.0, torus.side, torus.dim)
            report = check_local_finiteness(config_i, h, m, seed=derive_seed(config.seed, "locfin", i))
            total_violations += report.violations
            rows.append(
                (str(i), fmt_float(report.nearest_distance), str(report.minimizer_count),
                 fmt_float(report.eps), str(report.violations), report.holds)
            )
        report = {"trials": len(rows), "total_violations": total_violations, "all_hold": total_violations == 0}
        header = ("trial", "nearest_distance", "minimizers", "eps", "violations", "holds")
    return {"palm_report.json": report, "palm_trials.csv": (header, rows)}


# kind -> (spec, runner(spec, config, window or None)); the spec's docstring is the subcommand's help
_KINDS = {
    "gauss-check": (GaussSpec, _run_gauss_check),
    "mtp-check": (MtpSpec, _run_mtp_check),
    "percolation": (PercolationSpec, _run_percolation),
    "cost-bound": (CostBoundSpec, _run_cost_bound),
    "kazhdan": (KazhdanSpec, _run_kazhdan),
    "palm": (PalmSpec, _run_palm),
}
KINDS = tuple(_KINDS)


def run(config: ExperimentConfig) -> RunManifest:
    """Validate, guard, dispatch, then write and hash each output and write the manifest."""
    spec = _resolve_config(config)
    spec.guard()
    start = time.perf_counter()
    w = spec.build(config.seed) if isinstance(spec, WindowSpec) else None
    payloads = _KINDS[config.kind][1](spec, config, w)
    out = Path(config.out_dir)
    # the writers make ``out``, so a run refused before its first write leaves no directory
    for name, payload in payloads.items():
        if isinstance(payload, tuple):
            write_csv(out / name, *payload)
        else:
            write_json(out / name, payload)
    manifest = RunManifest(
        config={
            "kind": config.kind,
            "params": asdict(spec),
            "trials": config.trials,
            "seed": config.seed,
        },
        artifact_version=__version__,
        wall_time_s=time.perf_counter() - start,
        outputs={name: sha256_of(out / name) for name in payloads},
    )
    write_json(out / "run.manifest.json", asdict(manifest))
    return manifest


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def parse_config_file(path: Path) -> dict:
    """Flat ``key = value`` lines; values parsed as JSON when possible."""
    try:
        content = path.read_text()
    except OSError as exc:
        raise ValidationError([f"config: cannot read {path}: {exc}"]) from None
    values: dict = {}
    for raw in content.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError([f"malformed config line: {raw!r}"])
        key, text = (part.strip() for part in line.split("=", 1))
        try:
            values[key] = json.loads(text)
        except json.JSONDecodeError:
            values[key] = text
    return values


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per kind, one flag per spec field.  Flags default to
    None so that config-file values apply; coercion happens in
    ``config_from_args``, the same for flags and file values."""
    parser = argparse.ArgumentParser(prog="urglab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, (cls, _) in _KINDS.items():
        p = sub.add_parser(kind, help=cls.__doc__)
        p.add_argument("--config", type=Path, help="flat key=value config file")
        p.add_argument("--out", help=f"output directory (default: {ExperimentConfig.out_dir})")
        p.add_argument("--seed", help=f"master seed (default: {ExperimentConfig.seed})")
        p.add_argument("--trials", help=f"trial count (default: {ExperimentConfig.trials})")
        defaults = cls()
        for f in fields(cls):
            flag, help = f"--{f.name.replace('_', '-')}", f.metadata["help"]
            if getattr(defaults, f.name) is not None:
                help += f" (default: {getattr(defaults, f.name)})"
            if f.type == "bool":
                p.add_argument(flag, action="store_true", default=None, help=help)
            else:
                p.add_argument(flag, choices=f.metadata["choices"], help=help)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Config-file values, overridden by flags, coerced through the kind's
    spec; unknown keys and unreadable values raise ValidationError naming them."""
    values = parse_config_file(args.config) if args.config else {}
    for key, value in vars(args).items():
        if value is not None and key not in ("command", "config"):
            values[key] = value
    common = {key: values.pop(key) for key in ("out", "seed", "trials") if key in values}
    kind = args.command
    return ExperimentConfig(
        kind=kind,
        params=asdict(_resolve(_KINDS[kind][0], kind, values)),
        trials=_cast("trials", "int", common.get("trials", ExperimentConfig.trials)),
        seed=_cast("seed", "int", common.get("seed", ExperimentConfig.seed)),
        out_dir=_cast("out", "str", common.get("out", ExperimentConfig.out_dir)),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        manifest = run(config_from_args(args))
    except ValidationError as exc:
        messages = exc.messages
    # refusals that depend on the built window or the sampled data
    except InfeasibleBalanceError as exc:
        messages = [f"eps: {exc}"]
    except DisconnectedClustersError as exc:
        messages = [f"model: the window is disconnected and {exc}"]
    except (GuardViolation, InstanceTooLargeError) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 3
    else:
        print(json.dumps({"outputs": manifest.outputs, "wall_time_s": manifest.wall_time_s}))
        return 0
    for message in messages:
        print(f"validation: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
