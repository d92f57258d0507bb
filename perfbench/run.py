"""urglab benchmark: fixed experiment workloads through ``urglab.cli.run``.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every repetition runs in a fresh child process (``perfbench/child.py``), one
child at a time, with ``URGLAB_THREADS=1`` and the BLAS/OpenMP thread
variables set to 1.  Repetitions repeat the same config until ``--seconds``
would be exceeded (at least ``MIN_REPS``), and every timing is the median
over repetitions.  Thread scaling is left out on purpose: on a 2-core shared
host it would measure the scheduler, not urglab.

``--trace 0`` reports the end-to-end metrics:
  run_rel      wall time of one ``urglab.cli.run(config)`` divided by the
               median wall time of a fixed probe (a Python loop plus a
               KD-tree query) timed in the same child before and after it
  setup_s      wall seconds from child start until ``urglab.cli`` is imported
  peak_rss_mb  the child's peak resident memory after the run
  passed_frac  passed / attempted repetitions (= 1 - failed_frac)
The raw run seconds are printed with the samples.  They are not an
end-to-end metric because the shared host's speed drifts by up to a factor
of two over tens of seconds, for every process alike; dividing by the probe
cancels most of that drift, which a median over repetitions cannot.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``spans.Tracer`` (medians over traced repetitions)
plus ``trace.overhead_frac`` = traced / untraced median run_rel - 1.

A repetition fails when ``run`` raises, when its workload's semantic check
rejects the outputs, when a data file differs from the first repetition's,
or, at seed 0, from the digests recorded in ``workloads.py``.  Lines before
the last one on standard output record the environment and the samples; the
last line is the result.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import metric_units
from workloads import WORKLOADS, compare_digests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("URGLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    caches = {}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        **caches,
        "threads": 1,
    }


def run_child(name: str, seed: int, out: Path, trace: bool, env: dict) -> dict:
    """One repetition; returns the child's JSON result, or its failure."""
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), name, str(seed), str(out), "1" if trace else "0"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"problems": [f"child timed out after {CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"problems": [f"child exited {proc.returncode}: {proc.stderr.strip()}"]}
    result = json.loads(lines[-1])
    result["setup_s"] = result["imported_at"] - spawned_at
    return result


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{var: "1" for var in THREAD_VARS})
    workload = WORKLOADS[name]
    deadline = time.monotonic() + seconds
    longest = 0.0
    reps: list[dict] = []
    first_digests = None
    while True:
        traced = trace and len(reps) % 2 == 1
        started = time.monotonic()
        rep = run_child(name, seed, workdir / f"rep{len(reps)}", traced, env)
        longest = max(longest, time.monotonic() - started)
        rep["traced"] = traced
        if not rep["problems"]:
            rep["run_rel"] = rep["run_s"] / rep["probe_s"]
            if first_digests is None:
                first_digests = rep["digests"]
            rep["problems"] = compare_digests(first_digests, rep["digests"], "the first repetition")
            if seed == 0:
                rep["problems"] += compare_digests(workload.digests, rep["digests"], "the recorded digest")
        reps.append(rep)
        if len(reps) >= (2 if trace else MIN_REPS) and time.monotonic() + longest > deadline:
            return reps


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "urglab" / "cli.py").is_file():
        print(f"no urglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    # bytecode is cached once, so set-up times imports rather than compilation
    compileall.compile_dir(ROOT / "src", quiet=1)

    workload = WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_tmp_", dir=ROOT))
    try:
        reps = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [rep for rep in reps if rep["problems"]]
    for rep in failed:
        print("\n".join(rep["problems"]), file=sys.stderr)
    passed = [rep for rep in reps if not rep["problems"]]
    untraced = [rep for rep in passed if not rep["traced"]]
    traced = [rep for rep in passed if rep["traced"]]
    if not untraced or (args.trace and not traced):
        print("no passing repetition to measure", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {
            key: {"value": statistics.median(rep["layers"][key] for rep in traced), "unit": unit}
            for key, unit in metric_units().items()
        }
        overhead = median_of(traced, "run_rel") / median_of(untraced, "run_rel") - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    else:
        metrics = {
            "run_rel": {"value": median_of(untraced, "run_rel"), "unit": "ref"},
            "setup_s": {"value": median_of(untraced, "setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": median_of(untraced, "peak_rss_mb"), "unit": "MB"},
            "passed_frac": {"value": len(passed) / len(reps), "unit": "frac"},
        }
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "config": workload.config(args.seed), "n": workload.n}))
    print(json.dumps({"run_s_median": median_of(untraced, "run_s"), "samples": [
        {key: rep.get(key) for key in ("traced", "run_s", "probe_s", "setup_s", "peak_rss_mb")} for rep in reps
    ]}))
    print(json.dumps({"correct": not failed, "attempted": len(reps), "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
