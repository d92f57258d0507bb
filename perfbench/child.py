"""One benchmark repetition, run in a fresh process by ``run.py``.

Usage: python3 perfbench/child.py <workload> <seed> <out_dir> <trace 0|1>

Imports ``urglab.cli`` (the parent times set-up from its own clock to the
moment the import finishes), runs one experiment through
``urglab.cli.run``, reads the peak resident memory, and then checks the
outputs.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

PROBES = 6  # host-speed probes before and after the run


def probe_s(points, queries) -> float:
    """Wall time of a fixed mix of interpreted Python (dict updates, small
    tuples) and a compiled scipy kernel (periodic KD-tree build and query):
    a probe of how fast the shared host runs both kinds of work right now.
    Its tables stay small, so it leaves peak memory alone."""
    from scipy.spatial import cKDTree

    start = time.perf_counter()
    counts: dict[int, int] = {}
    total = 0
    for _ in range(10):
        pairs = {}
        for i in range(4096):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
            pairs[i] = (i, i & 7)
        for a, b in pairs.values():
            total += a ^ b
    cKDTree(points, boxsize=1.0).query(queries)
    return time.perf_counter() - start


def main(argv: list[str]) -> None:
    from urglab import cli

    imported_at = time.monotonic()

    import numpy as np
    import spans
    import workloads

    name, seed, out, trace = argv[0], int(argv[1]), Path(argv[2]), argv[3] == "1"
    workload = workloads.WORKLOADS[name]
    config = workload.config(seed)
    experiment = cli.ExperimentConfig(out_dir=str(out), **config)
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        tracer.install()

    problems = []
    rng = np.random.default_rng(0)
    points, queries = rng.random((400, 2)), rng.random((10_000, 2))
    probes = [probe_s(points, queries) for _ in range(PROBES)]
    start = time.perf_counter()
    try:
        cli.run(experiment)
    except Exception:  # a failed run is counted by the parent, not fatal here
        problems.append(traceback.format_exc())
    run_s = time.perf_counter() - start
    probes += [probe_s(points, queries) for _ in range(PROBES)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # folded before the checks, whose own urglab calls are not part of the run
    layers = tracer.summary() if tracer is not None else None

    digests = {}
    if not problems:
        try:
            problems = workload.check(out, config)
            digests = workloads.data_digests(out)
        except Exception:  # malformed output fails the check
            problems.append(traceback.format_exc())
    result = {
        "imported_at": imported_at,
        "run_s": run_s,
        "probe_s": statistics.median(probes),
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
        "digests": digests,
    }
    if layers is not None:
        result["layers"] = layers
    print(json.dumps(result), flush=True)
    # skip interpreter teardown: freeing the run's objects is not part of the
    # measurement and would only lengthen each repetition
    os._exit(0)


if __name__ == "__main__":
    main(sys.argv[1:])
