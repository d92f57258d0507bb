"""Experiment runner: one config in, reproducible data files out.

Configs come from flat ``key = value`` files and/or command-line flags
(flags win).  Every run writes its data outputs plus ``run.manifest.json``
(config echo, version, wall time, sha256 per output) beside them.  All
randomness is derived from the master seed, so rerunning a config
reproduces the data files byte for byte.

Exit codes: 0 success, 2 validation failure, 3 numerical-guard refusal.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .clusters import connect_clusters, cost_upper_bound, decompose, gaboriau_induction
from .colourings import bernoulli_model, colouring_to_dict, constant_model, intensity, sample
from .gaussian import orthant_probability, orthant_probability_mc
from .graphs import (
    WindowGraph,
    build_complete,
    build_path,
    build_random_regular,
    build_torus_window,
    window_from_json,
)
from .kazhdan import (
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
    sample_poisson,
    verify_mean_cell_volume,
    verify_voronoi_inversion,
)
from .reporting import fmt_float, sha256_of, write_json
from .rng import derive_rng, derive_seed
from .torus import FlatTorus
from .transport import BUILTIN_TRANSPORTS, mtp_check

KINDS = ("mtp-check", "kazhdan", "percolation", "palm", "cost-bound", "gauss-check")
WINDOW_MODELS = ("torus", "cycle", "path", "complete", "random-regular", "window-file")
# mtp-check parameter -> (keyword of the transport factory, its type)
_TRANSPORT_ARGS = {"transport_colour": ("colour", int), "transport_value": ("value", float)}


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
# Validation (stable message strings)
# ----------------------------------------------------------------------


def validate(config: ExperimentConfig) -> list[str]:
    """Empty list iff run() will clear its validation layer."""
    v: list[str] = []
    if config.kind not in KINDS:
        v.append(f"unknown experiment kind: {config.kind}")
        return v
    if not isinstance(config.seed, int) or config.seed < 0:
        v.append("master seed must be a nonnegative integer")
    if config.trials < 1:
        v.append("trials must be positive")
    p = config.params

    def check_window():
        model = p.get("model", "torus")
        if model not in WINDOW_MODELS:
            v.append(f"unknown window model: {model}")
            return
        if model == "torus":
            if int(p.get("L", 0)) < 3:
                v.append("torus: side L must satisfy L >= 3")
            if int(p.get("d", 1)) < 1:
                v.append("torus: dimension d must be positive")
        elif model == "cycle":
            if int(p.get("L", 0)) < 3:
                v.append("cycle: length L must satisfy L >= 3")
        elif model in ("path", "complete"):
            if int(p.get("n", 0)) < 2:
                v.append(f"{model}: need n >= 2")
        elif model == "random-regular":
            k, n = int(p.get("k_rank", 0)), int(p.get("n", 0))
            if k < 1 or n < 2 * k + 1:
                v.append("random-regular: need k >= 1 and n >= 2k + 1")
        elif model == "window-file" and not p.get("window_file"):
            v.append("window-file: missing path")

    if config.kind == "gauss-check":
        rhos = p.get("rho", [0.0])
        if any(abs(float(r)) > 1.0 for r in rhos):
            v.append("gauss-check: rho must lie in [-1, 1]")
        if int(p.get("n", 0)) < 1:
            v.append("gauss-check: sample count n must be positive")
    elif config.kind == "palm":
        if float(p.get("t", 0.0)) <= 0.0:
            v.append("palm: intensity t must be positive")
        if float(p.get("L", 0.0)) <= 0.0:
            v.append("palm: side L must be positive")
        if int(p.get("d", 0)) < 1:
            v.append("palm: dimension d must be positive")
        if int(p.get("m", 0)) < 1:
            v.append("palm: per-trial sample count m must be positive")
        if p.get("check", "cellvol") not in ("cellvol", "inversion", "locfin"):
            v.append("palm: check must be one of cellvol|inversion|locfin")
        functional = p.get("functional")
        if functional is not None and functional not in BUILTIN_FUNCTIONALS:
            v.append(f"palm: unknown functional {functional}")
    elif config.kind in ("percolation", "cost-bound"):
        check_window()
        prob = float(p.get("p", -1.0))
        if not (0.0 <= prob <= 1.0):
            v.append(f"{config.kind}: occupation probability p must lie in [0, 1]")
    elif config.kind == "kazhdan":
        check_window()
        k = int(p.get("k", 0))
        if k < 1:
            v.append("kazhdan: part count k must be positive")
        alpha = p.get("alpha") or None
        if alpha is not None:
            alpha = [float(a) for a in alpha]
            if k >= 1 and len(alpha) != k:
                v.append("kazhdan: alpha length must equal k")
            elif min(alpha) < 0 or abs(sum(alpha) - 1.0) > 1e-12:
                v.append("kazhdan: alpha must be a probability vector")
        eps = float(p.get("eps", 0.0))
        target = [1.0 / k] * k if (alpha is None and k >= 1) else alpha
        if eps < 0 or (target and not eps < min(target)):
            v.append("kazhdan: eps must satisfy eps < min(alpha)")
        if int(p.get("budget", 4000)) < 1 or int(p.get("restarts", 10)) < 1:
            v.append("kazhdan: budget and restarts must be positive")
    elif config.kind == "mtp-check":
        check_window()
        transport = p.get("transport", "constant")
        if transport not in BUILTIN_TRANSPORTS:
            v.append(f"mtp-check: unknown transport {transport}")
        else:
            accepted = inspect.signature(BUILTIN_TRANSPORTS[transport]).parameters
            for key, (arg, _) in _TRANSPORT_ARGS.items():
                if key in p and arg not in accepted:
                    v.append(f"mtp-check: transport {transport} takes no {key}")
        if p.get("colouring", "bernoulli") not in ("bernoulli", "constant"):
            v.append("mtp-check: colouring must be bernoulli or constant")
        if int(p.get("colours", 2)) < 1:
            v.append("mtp-check: need at least one colour")
    return v


def build_window(params: dict, seed: int) -> WindowGraph:
    model = params.get("model", "torus")
    if model == "torus":
        return build_torus_window(int(params.get("d", 2)), int(params["L"]))
    if model == "cycle":
        return build_torus_window(1, int(params["L"]))
    if model == "path":
        return build_path(int(params["n"]))
    if model == "complete":
        return build_complete(int(params["n"]))
    if model == "random-regular":
        window_seed = int(params.get("window_seed", derive_seed(seed, "window")))
        return build_random_regular(int(params["k_rank"]), int(params["n"]), window_seed)
    if model == "window-file":
        return window_from_json(Path(params["window_file"]).read_text())
    raise ValueError(f"unknown window model: {model}")


# ----------------------------------------------------------------------
# Experiment bodies (each returns {filename: writer} lazily via plan)
# ----------------------------------------------------------------------


def _csv_writer(path: Path, header: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _run_gauss_check(config: ExperimentConfig, out: Path) -> list[Path]:
    rhos = [float(r) for r in config.params.get("rho", [0.0])]
    n = int(config.params.get("n", 10**5))
    rows = []
    for i, rho in enumerate(rhos):
        closed = orthant_probability(rho)
        mc = orthant_probability_mc(rho, n, derive_seed(config.seed, "gauss", i))
        ok = abs(closed - mc.estimate) <= 4.0 * mc.stderr
        rows.append(
            (fmt_float(rho), fmt_float(closed), fmt_float(mc.estimate), fmt_float(mc.stderr), ok)
        )
    path = out / "gauss_check.csv"
    _csv_writer(path, ("rho", "closed_form", "mc", "stderr", "ok"), rows)
    return [path]


def _colouring_for(config: ExperimentConfig, w: WindowGraph):
    d = int(config.params.get("colours", 2))
    kind = config.params.get("colouring", "bernoulli")
    model = constant_model(d) if kind == "constant" else bernoulli_model([1.0 / d] * d)
    return sample(model, w, derive_seed(config.seed, "colouring"))


def _run_mtp_check(config: ExperimentConfig, out: Path) -> list[Path]:
    w = build_window(config.params, config.seed)
    c = _colouring_for(config, w)
    factory = BUILTIN_TRANSPORTS[config.params.get("transport", "constant")]
    kwargs = {
        arg: cast(config.params[key])
        for key, (arg, cast) in _TRANSPORT_ARGS.items()
        if key in config.params
    }
    report = mtp_check(w, c, factory(**kwargs))
    path = out / "mtp_report.json"
    write_json(
        path,
        {
            "window": w.window_id,
            "transport": config.params.get("transport", "constant"),
            "lhs": report.lhs,
            "rhs": report.rhs,
            "abs_diff": report.abs_diff,
            "n": report.n,
            "exact": report.exact,
        },
    )
    return [path]


def _percolation_row(w: WindowGraph, p: float, seed: int):
    subset = sample(bernoulli_model([p, 1.0 - p]), w, seed)
    dec = decompose(w, subset)
    extra = connect_clusters(w, dec)
    bound = cost_upper_bound(w, subset, dec, extra)
    largest = max(dec.sizes) / w.n if dec.count else 0.0
    return (
        fmt_float(p),
        fmt_float(intensity(subset, 1)),
        str(dec.count),
        fmt_float(largest),
        fmt_float(bound.lemma_bound),
        fmt_float(bound.empirical_bound),
    )


def _run_percolation(config: ExperimentConfig, out: Path) -> list[Path]:
    w = build_window(config.params, config.seed)
    p = float(config.params["p"])
    rows = [
        _percolation_row(w, p, derive_seed(config.seed, "percolation", i))
        for i in range(config.trials)
    ]
    path = out / "percolation.csv"
    _csv_writer(
        path,
        ("p", "intensity", "cluster_count", "largest_cluster_fraction",
         "cost_bound_lemma", "cost_bound_empirical"),
        rows,
    )
    return [path]


def _run_cost_bound(config: ExperimentConfig, out: Path) -> list[Path]:
    w = build_window(config.params, config.seed)
    p = float(config.params["p"])
    subset = sample(bernoulli_model([p, 1.0 - p]), w, derive_seed(config.seed, "subset"))
    dec = decompose(w, subset)
    extra = connect_clusters(w, dec)
    bound = cost_upper_bound(w, subset, dec, extra)
    path = out / "cost_bound.json"
    write_json(
        path,
        {
            "window": w.window_id,
            "p": p,
            "intensity": bound.intensity,
            "half_degree": bound.half_degree,
            "lemma_bound": bound.lemma_bound,
            "empirical_bound": bound.empirical_bound,
            "cluster_count": dec.count,
            "extra_pairs": bound.extra_pairs,
            # restricted cost at most the degree bound, pushed back up
            "gaboriau_from_degree": gaboriau_induction(float(w.degree_bound), bound.intensity)
            if bound.intensity > 0
            else 1.0,
        },
    )
    return [path]


def _run_kazhdan(config: ExperimentConfig, out: Path) -> list[Path]:
    w = build_window(config.params, config.seed)
    k = int(config.params["k"])
    alpha = config.params.get("alpha")
    alpha = WeightVector(tuple(float(a) for a in alpha)) if alpha else WeightVector(tuple([1.0 / k] * k))
    problem = KazhdanProblem(
        window=w,
        k=k,
        alpha=alpha,
        eps=float(config.params.get("eps", 0.0)),
        budget=int(config.params.get("budget", 4000)),
        restarts=int(config.params.get("restarts", 10)),
        seed=config.seed,
    )
    result = brute_force_kazhdan(problem) if config.params.get("brute_force") else anneal_kazhdan(problem)
    json_path = out / "kazhdan_result.json"
    write_json(
        json_path,
        {
            "window": w.window_id,
            "k": k,
            "alpha": list(alpha.values),
            "eps": problem.eps,
            "value": result.value,
            "weights": list(result.weights.values),
            "certificate": result.certificate,
            "empty_parts": list(result.empty_parts),
            "seed": config.seed,
            "partition": colouring_to_dict(result.partition),
        },
    )
    trace_path = out / "kazhdan_trace.csv"
    _csv_writer(
        trace_path,
        ("restart", "step", "best_value"),
        [(str(r), str(s), fmt_float(v)) for r, s, v in result.trace],
    )
    return [json_path, trace_path]


def _run_palm(config: ExperimentConfig, out: Path) -> list[Path]:
    p = config.params
    torus = FlatTorus(int(p["d"]), float(p["L"]))
    t = float(p["t"])
    m = int(p["m"])
    check = p.get("check", "cellvol")
    json_path = out / "palm_report.json"
    csv_path = out / "palm_trials.csv"

    if check == "cellvol":
        report, values = verify_mean_cell_volume(t, torus, config.trials, m, config.seed)
        write_json(json_path, report)
        _csv_writer(csv_path, ("trial", "volume"), [(str(i), fmt_float(v)) for i, v in enumerate(values)])
    elif check == "inversion":
        names = [p["functional"]] if p.get("functional") else list(BUILTIN_FUNCTIONALS)
        reports = []
        rows = []
        for j, name in enumerate(names):
            f = BUILTIN_FUNCTIONALS[name]()
            report, lhs_values, rhs_values = verify_voronoi_inversion(
                f, t, torus, config.trials, m, derive_seed(config.seed, "inversion-functional", j)
            )
            reports.append(report.__dict__)
            rows.extend(
                (name, str(i), fmt_float(lv), fmt_float(rv))
                for i, (lv, rv) in enumerate(zip(lhs_values, rhs_values))
            )
        write_json(json_path, {"checks": reports})
        _csv_writer(csv_path, ("functional", "trial", "lhs_value", "rhs_value"), rows)
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
        write_json(json_path, {"trials": len(rows), "total_violations": total_violations,
                               "all_hold": total_violations == 0})
        _csv_writer(csv_path, ("trial", "nearest_distance", "minimizers", "eps", "violations", "holds"), rows)
    return [json_path, csv_path]


_RUNNERS = {
    "gauss-check": _run_gauss_check,
    "mtp-check": _run_mtp_check,
    "percolation": _run_percolation,
    "cost-bound": _run_cost_bound,
    "kazhdan": _run_kazhdan,
    "palm": _run_palm,
}


def run(config: ExperimentConfig, dry_run: bool = False) -> RunManifest | None:
    """Validate, dispatch, write outputs and the manifest.

    ``dry_run`` resolves everything cheap (validation, dispatch, window
    parameters for small models) without sampling or writing.
    """
    violations = validate(config)
    if violations:
        raise ValidationError(violations)
    runner = _RUNNERS[config.kind]
    if dry_run:
        if config.kind in ("mtp-check", "percolation", "cost-bound", "kazhdan"):
            build_window(config.params, config.seed)
        return None
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    outputs = runner(config, out)
    manifest = RunManifest(
        config={
            "kind": config.kind,
            "params": _jsonable(config.params),
            "trials": config.trials,
            "seed": config.seed,
        },
        artifact_version=__version__,
        wall_time_s=time.perf_counter() - start,
        outputs={path.name: sha256_of(path) for path in outputs},
    )
    write_json(out / "run.manifest.json", manifest)
    return manifest


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def parse_config_file(path: Path) -> dict:
    """Flat ``key = value`` lines; values parsed as JSON when possible."""
    values: dict = {}
    for raw in path.read_text().splitlines():
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="flat key=value config file")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--trials", type=int, default=None)


def _add_window_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=WINDOW_MODELS, default=None)
    parser.add_argument("--d", type=int, default=None)
    parser.add_argument("--L", type=int, default=None)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--k-rank", dest="k_rank", type=int, default=None,
                        help="rank of the random-regular model")
    parser.add_argument("--window-seed", type=int, default=None)
    parser.add_argument("--window-file", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="urglab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gauss-check", help="orthant identity vs Monte Carlo")
    _add_common(g)
    g.add_argument("--rho", type=str, default=None, help="comma-separated correlations")
    g.add_argument("--n", type=int, default=None, help="samples per correlation")

    m = sub.add_parser("mtp-check", help="outflow/inflow identity on a window")
    _add_common(m)
    _add_window_flags(m)
    m.add_argument("--transport", choices=sorted(BUILTIN_TRANSPORTS), default=None)
    m.add_argument("--transport-colour", type=int, default=None)
    m.add_argument("--transport-value", type=float, default=None)
    m.add_argument("--colouring", choices=("bernoulli", "constant"), default=None)
    m.add_argument("--colours", type=int, default=None)

    pc = sub.add_parser("percolation", help="cluster statistics and cost bounds per trial")
    _add_common(pc)
    _add_window_flags(pc)
    pc.add_argument("--p", type=float, default=None, help="occupation probability")

    cb = sub.add_parser("cost-bound", help="single-instance cost bounds, JSON out")
    _add_common(cb)
    _add_window_flags(cb)
    cb.add_argument("--p", type=float, default=None)

    kz = sub.add_parser("kazhdan", help="balanced partition search")
    _add_common(kz)
    _add_window_flags(kz)
    kz.add_argument("--k", type=int, default=None, help="number of parts")
    kz.add_argument("--alpha", type=str, default=None, help="comma-separated target weights")
    kz.add_argument("--eps", type=float, default=None)
    kz.add_argument("--budget", type=int, default=None)
    kz.add_argument("--restarts", type=int, default=None)
    kz.add_argument("--brute-force", action="store_true")

    pa = sub.add_parser("palm", help="point-process checks on a flat torus")
    _add_common(pa)
    pa.add_argument("--t", type=float, default=None, help="process intensity")
    pa.add_argument("--L", type=float, default=None)
    pa.add_argument("--d", type=int, default=None)
    pa.add_argument("--m", type=int, default=None, help="samples per trial")
    pa.add_argument("--check", choices=("cellvol", "inversion", "locfin"), default=None)
    pa.add_argument("--functional", choices=sorted(BUILTIN_FUNCTIONALS), default=None)

    return parser


def _float_list(value) -> list[float]:
    """Comma-separated text (from a flag) or a JSON list (from a config file)."""
    if isinstance(value, str):
        return [float(part) for part in value.split(",") if part.strip()]
    return [float(x) for x in value]


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Merge flags over config-file values; a value that cannot be read as
    its field's type raises ValidationError naming the field."""
    file_values = parse_config_file(args.config) if args.config else {}

    def pick(key, flag_value, default=None, cast=None):
        value = flag_value if flag_value is not None else file_values.get(key, default)
        if cast is None or value is None:
            return value
        try:
            return cast(value)
        except (TypeError, ValueError):
            raise ValidationError([f"{key}: invalid value {value!r}"]) from None

    kind = args.command
    params: dict = {}
    if kind == "gauss-check":
        params["rho"] = pick("rho", args.rho, "0", _float_list)
        params["n"] = pick("n", args.n, 10**5, int)
    elif kind == "palm":
        params["t"] = pick("t", args.t, 1.0, float)
        params["L"] = pick("L", args.L, 20.0, float)
        params["d"] = pick("d", args.d, 2, int)
        params["m"] = pick("m", args.m, 10**4, int)
        params["check"] = pick("check", args.check, "cellvol")
        functional = pick("functional", args.functional)
        if functional:
            params["functional"] = functional
    else:
        params["model"] = pick("model", args.model, "torus")
        for key, flag in (("d", args.d), ("L", args.L), ("n", args.n)):
            value = pick(key, flag, cast=int)
            if value is not None:
                params[key] = value
        if params["model"] == "random-regular":
            params["k_rank"] = pick("k_rank", args.k_rank, 2, int)
        window_seed = pick("window_seed", args.window_seed, cast=int)
        if window_seed is not None:
            params["window_seed"] = window_seed
        window_file = pick("window_file", args.window_file)
        if window_file is not None:
            params["window_file"] = window_file
        if kind in ("percolation", "cost-bound"):
            params["p"] = pick("p", args.p, 0.2, float)
        elif kind == "kazhdan":
            params["k"] = pick("k", args.k, 2, int)
            alpha = pick("alpha", args.alpha, cast=_float_list)
            if alpha is not None:
                params["alpha"] = alpha
            params["eps"] = pick("eps", args.eps, 0.0, float)
            params["budget"] = pick("budget", args.budget, 4000, int)
            params["restarts"] = pick("restarts", args.restarts, 10, int)
            if args.brute_force or file_values.get("brute_force"):
                params["brute_force"] = True
        elif kind == "mtp-check":
            params["transport"] = pick("transport", args.transport, "constant")
            for key, (_, cast) in _TRANSPORT_ARGS.items():
                value = pick(key, getattr(args, key), cast=cast)
                if value is not None:
                    params[key] = value
            params["colouring"] = pick("colouring", args.colouring, "bernoulli")
            params["colours"] = pick("colours", args.colours, 2, int)

    return ExperimentConfig(
        kind=kind,
        params=params,
        trials=pick("trials", args.trials, 100, int),
        seed=pick("seed", args.seed, 0, int),
        out_dir=pick("out", args.out, ".", str),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        manifest = run(config_from_args(args))
    except ValidationError as exc:
        for message in exc.messages:
            print(f"validation: {message}", file=sys.stderr)
        return 2
    except (GuardViolation, InstanceTooLargeError) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 3
    assert manifest is not None
    print(json.dumps({"outputs": manifest.outputs, "wall_time_s": manifest.wall_time_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
