"""Negative controls for the benchmark's output checks, and tracer tests.

Every check must be able to fail: each control breaks one output on purpose
and asserts that the check rejects it.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spans import metric_units
from urglab.cli import ExperimentConfig, run
from workloads import WORKLOADS, compare_digests, data_digests

HERE = Path(__file__).resolve().parent

# small variants of the workloads, so each control runs in well under a second
SMALL_PARAMS = {
    "percolation-subcritical": {"L": 16},
    "anneal-expander": {"n": 64, "budget": 200},
    "palm-inversion": {"L": 6.0, "m": 500},
    "mtp-window": {"L": 8},
}


def small_run(name: str, out: Path) -> dict:
    config = WORKLOADS[name].config(0)
    config["params"].update(SMALL_PARAMS[name])
    run(ExperimentConfig(out_dir=str(out), **config))
    return config


def edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_unbroken_outputs_pass(name, tmp_path):
    config = small_run(name, tmp_path)
    assert WORKLOADS[name].check(tmp_path, config) == []


def test_percolation_rejects_empirical_bound_above_lemma(tmp_path):
    config = small_run("percolation-subcritical", tmp_path)
    path = tmp_path / "percolation.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0]["cost_bound_empirical"] = repr(float(rows[0]["cost_bound_lemma"]) + 1.0)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert WORKLOADS["percolation-subcritical"].check(tmp_path, config)


def test_percolation_rejects_missing_trial(tmp_path):
    config = small_run("percolation-subcritical", tmp_path)
    path = tmp_path / "percolation.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert WORKLOADS["percolation-subcritical"].check(tmp_path, config)


def test_kazhdan_rejects_wrong_value(tmp_path):
    config = small_run("anneal-expander", tmp_path)
    edit_json(tmp_path / "kazhdan_result.json",
              lambda d: d.update(value=d["value"] + 1.0 / config["params"]["n"]))
    assert WORKLOADS["anneal-expander"].check(tmp_path, config)


def test_kazhdan_rejects_unbalanced_partition(tmp_path):
    config = small_run("anneal-expander", tmp_path)
    n = config["params"]["n"]

    def one_part(d):
        # every vertex in part 1: the value (0.0) is consistent, the sizes are not
        d["partition"]["colours"] = [[1, n]]
        d["value"] = 0.0

    edit_json(tmp_path / "kazhdan_result.json", one_part)
    problems = WORKLOADS["anneal-expander"].check(tmp_path, config)
    assert problems and all("part" in p for p in problems)


def test_palm_rejects_diff_beyond_four_stderr(tmp_path):
    config = small_run("palm-inversion", tmp_path)

    def widen(d):
        c = d["checks"][0]
        c["diff"] = 4.01 * c["combined_stderr"]

    edit_json(tmp_path / "palm_report.json", widen)
    assert WORKLOADS["palm-inversion"].check(tmp_path, config)


def test_mtp_rejects_inexact(tmp_path):
    config = small_run("mtp-window", tmp_path)
    edit_json(tmp_path / "mtp_report.json", lambda d: d.update(exact=False))
    assert WORKLOADS["mtp-window"].check(tmp_path, config)


def test_digests_reject_one_flipped_byte(tmp_path):
    small_run("mtp-window", tmp_path)
    recorded = data_digests(tmp_path)
    path = tmp_path / "mtp_report.json"
    data = bytearray(path.read_bytes())
    data[0] ^= 1
    path.write_bytes(bytes(data))
    assert compare_digests(recorded, data_digests(tmp_path), "the recording") == [
        "mtp_report.json: sha256 differs from the recording"
    ]


def test_digests_reject_missing_and_extra_files(tmp_path):
    recorded = {"a.csv": "0" * 64}
    assert compare_digests(recorded, {}, "x")
    assert compare_digests({}, recorded, "x")
    assert compare_digests(recorded, dict(recorded), "x") == []


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**metric_units(), "trace.overhead_frac": "frac"}
    assert [m["name"] for m in spec["end_to_end"]] == ["run_rel", "setup_s", "peak_rss_mb", "passed_frac"]


def child(name: str, out: Path, trace: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"), URGLAB_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), name, "0", str(out), trace],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_child_records_no_spans(tmp_path):
    result = child("percolation-subcritical", tmp_path, "0")
    assert result["problems"] == []
    assert "layers" not in result


def test_tracer_wraps_bindings_in_importing_modules(tmp_path):
    # decompose and derive_rng are reached through kazhdan's own bindings
    layers = child("anneal-expander", tmp_path, "1")["layers"]
    params = WORKLOADS["anneal-expander"].params
    assert layers["kazhdan.anneal_kazhdan.calls"] == 1
    assert layers["kazhdan.anneal_kazhdan.steps"] == params["budget"] * params["restarts"]
    assert layers["clusters.decompose.calls"] > 0
    assert layers["rng.derive_rng.calls"] == params["restarts"] + 1  # + the window's stream
    assert layers["graphs.build_random_regular.calls"] == 1  # the check's rebuild is not traced
    assert 0.0 < layers["kazhdan.anneal_kazhdan.self_s"] < layers["kazhdan.anneal_kazhdan.total_s"]
    assert layers["cli.run.total_s"] >= layers["kazhdan.anneal_kazhdan.total_s"]
