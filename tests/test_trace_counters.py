"""Work counters of the benchmark tracer (perfbench/spans.py) on small runs.

The tracer wraps urglab's functions from outside and reads some counters
from their arguments and results: ``transport.mtp_check.edges`` sums the
rows of the window's ``adjacency`` view, ``clusters.decompose.clusters`` and
``clusters.connect_clusters.pairs`` read each call's cluster count and
connecting-pair count.  Each run gets a fresh interpreter, because
installing the tracer rebinds module attributes for the rest of the process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import json, sys
import spans
from urglab import cli

tracer = spans.Tracer()
tracer.install()
cli.run(cli.ExperimentConfig(**json.loads(sys.argv[1])))
print(json.dumps(tracer.summary()))
"""


def traced_run(config: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, json.dumps(config)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_mtp_check_counters(tmp_path):
    layers = traced_run({"kind": "mtp-check", "params": {"L": 8}, "out_dir": str(tmp_path)})
    assert layers["transport.mtp_check.edges"] == 256  # 64 vertices x 4 directed entries
    assert layers["graphs.build_torus_window.calls"] == 1
    assert layers["balls.ball.calls"] == 0  # no library code cuts a ball: transports read the window's arrays


def test_kazhdan_counters(tmp_path):
    params = {"L": 8, "budget": 200, "restarts": 2}
    layers = traced_run({"kind": "kazhdan", "params": params, "out_dir": str(tmp_path)})
    assert layers["graphs.build_torus_window.calls"] == 1
    assert layers["kazhdan.anneal_kazhdan.calls"] == 1
    assert layers["kazhdan.anneal_kazhdan.steps"] == 400


def test_percolation_counters(tmp_path):
    params = {"L": 16, "p": [0.3]}
    layers = traced_run({"kind": "percolation", "params": params, "trials": 4, "out_dir": str(tmp_path)})
    rows = (tmp_path / "percolation.csv").read_text().splitlines()[1:]
    counts = [int(row.split(",")[2]) for row in rows]
    assert len(counts) == 4 and min(counts) >= 2
    assert layers["clusters.decompose.calls"] == layers["clusters.connect_clusters.calls"] == 4
    assert layers["clusters.decompose.clusters"] == sum(counts)
    # one (m, 2) pair array per trial, m = count - 1 rows
    assert layers["clusters.connect_clusters.pairs"] == sum(c - 1 for c in counts)
