"""The benchmark's four experiment workloads and the checks on their outputs.

Each workload is one fixed ``urglab.cli.run`` config.  The benchmark seed is
added to the workload's base seed, so seed 0 reproduces the reference
config and its recorded data-file digests; any other seed gives a new input
that must still pass the semantic check.

This module imports nothing from urglab at import time: the parent process
only needs names and configs, and urglab is imported inside the checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

MANIFEST = "run.manifest.json"  # carries wall time, so it is never byte-identical


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    params: dict
    trials: int
    base_seed: int
    n: int  # window vertices, or expected Poisson points per configuration
    check: Callable[[Path, dict], list[str]]
    # sha256 of every data file at benchmark seed 0, recorded from the seed commit
    digests: dict[str, str]

    def config(self, seed: int) -> dict:
        """Keyword arguments of ``urglab.cli.ExperimentConfig`` (without ``out_dir``)."""
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "trials": self.trials,
            "seed": self.base_seed + seed,
        }


# ----------------------------------------------------------------------
# Semantic checks: each returns the list of problems (empty = pass)
# ----------------------------------------------------------------------


def check_percolation(out: Path, config: dict) -> list[str]:
    with open(out / "percolation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != config["trials"]:
        problems.append(f"percolation.csv has {len(rows)} rows, expected {config['trials']}")
    for i, row in enumerate(rows):
        if not float(row["cost_bound_empirical"]) <= float(row["cost_bound_lemma"]):
            problems.append(f"percolation.csv row {i}: empirical cost bound exceeds the lemma bound")
    return problems


def check_kazhdan(out: Path, config: dict) -> list[str]:
    from urglab.cli import build_window
    from urglab.colourings import colouring_from_dict, expansion
    from urglab.kazhdan import WeightVector, feasible_size_windows

    data = json.loads((out / "kazhdan_result.json").read_text())
    params = config["params"]
    k = int(params["k"])
    w = build_window(params, config["seed"])
    partition = colouring_from_dict(data["partition"], w)
    problems = []
    if partition.d != k:
        problems.append(f"partition has {partition.d} parts, expected {k}")
    recomputed = expansion(partition)
    if data["value"] != recomputed:
        problems.append(f"reported value {data['value']!r} != recomputed expansion {recomputed!r}")
    windows = feasible_size_windows(w.n, WeightVector(tuple([1.0 / k] * k)), float(params["eps"]))
    for part, (size, (lo, hi)) in enumerate(zip(partition.counts(), windows), start=1):
        if not lo <= size <= hi:
            problems.append(f"part {part} has {size} vertices, outside [{lo}, {hi}]")
    return problems


def check_palm_inversion(out: Path, config: dict) -> list[str]:
    from urglab.palm import BUILTIN_FUNCTIONALS

    checks = json.loads((out / "palm_report.json").read_text())["checks"]
    problems = []
    names = sorted(c["functional"] for c in checks)
    if names != sorted(BUILTIN_FUNCTIONALS):
        problems.append(f"functionals {names} != {sorted(BUILTIN_FUNCTIONALS)}")
    for c in checks:
        # acceptance criterion 5: |lhs - rhs| within four combined standard errors
        if not c["diff"] <= 4.0 * c["combined_stderr"]:
            problems.append(
                f"{c['functional']}: diff {c['diff']!r} > 4 * stderr {c['combined_stderr']!r}"
            )
        if c["trials"] != config["trials"]:
            problems.append(f"{c['functional']}: {c['trials']} trials, expected {config['trials']}")
    return problems


def check_mtp(out: Path, config: dict) -> list[str]:
    data = json.loads((out / "mtp_report.json").read_text())
    params = config["params"]
    problems = []
    if data["exact"] is not True:
        problems.append(f"mass transport identity not exact: abs_diff {data['abs_diff']!r}")
    if data["n"] != int(params["L"]) ** int(params["d"]):
        problems.append(f"window has {data['n']} vertices, expected L**d")
    return problems


# ----------------------------------------------------------------------
# Byte identity of data files
# ----------------------------------------------------------------------


def data_digests(out: Path) -> dict[str, str]:
    """sha256 of every data file in a run directory (the manifest excluded)."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.name != MANIFEST
    }


def compare_digests(expected: dict[str, str], actual: dict[str, str], what: str) -> list[str]:
    problems = []
    for name in sorted(set(expected) | set(actual)):
        if expected.get(name) != actual.get(name):
            problems.append(f"{name}: sha256 differs from {what}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        # clusters dominate: connect_clusters + _component_of_clusters ~80% under
        # cProfile, decompose ~8%; the L=128 window build is small.
        Workload(
            name="percolation-subcritical",
            kind="percolation",
            params={"model": "torus", "d": 2, "L": 128, "p": 0.3},
            trials=5,
            base_seed=5,
            n=128**2,
            check=check_percolation,
            digests={
                "percolation.csv": "be4daa965adf74b110ff40f042e3874a2ab95dae28086625b1b16c15ba4d62f0",
            },
        ),
        # the annealer's per-step loop (~95% self time); merge moves call
        # clusters.decompose about 20 times, so clusters is present but small.
        Workload(
            name="anneal-expander",
            kind="kazhdan",
            params={
                "model": "random-regular", "k_rank": 2, "n": 2048,
                "k": 3, "eps": 0.05, "budget": 4000, "restarts": 2,
            },
            trials=1,
            base_seed=1,
            n=2048,
            check=check_kazhdan,
            digests={
                "kazhdan_result.json": "e531aeab6f253774c6374b12fc6924ffc97a0c849d3f3077ab313e32f349afac",
                "kazhdan_trace.csv": "5751026f359ffb257b2017c1ed3c885d29bec2df5e34c9e14a22e94b1f95a6e9",
            },
        ),
        # torus used two ways: 1,800 KD-tree builds beside 6e6 nearest-point
        # queries; no window graph is built.
        Workload(
            name="palm-inversion",
            kind="palm",
            params={"t": 1.0, "L": 20.0, "d": 2, "m": 10**4, "check": "inversion"},
            trials=50,
            base_seed=7,
            n=400,
            check=check_palm_inversion,
            digests={
                "palm_report.json": "76511058488b199a1838100dbb484ebc3ea9b00384bc7c23989ebcfc868b1f27",
                "palm_trials.csv": "5a0e83d93ad6e4db9735533514580c6fcaae9c6d305df89f51bd55c0dba537b8",
            },
        ),
        # the only workload running balls and transport: 16,384 Python-BFS balls
        # held at once, so the largest peak memory.
        Workload(
            name="mtp-window",
            kind="mtp-check",
            params={
                "model": "torus", "d": 2, "L": 128,
                "transport": "degree-weighted", "colouring": "bernoulli", "colours": 2,
            },
            trials=1,
            base_seed=2,
            n=128**2,
            check=check_mtp,
            digests={
                "mtp_report.json": "8af23194325739511e0277d5c4e7895334751b4aa7733d19f645eacbff125ed4",
            },
        ),
    )
}
