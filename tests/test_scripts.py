"""Smoke tests for the sweep scripts in scripts/: tiny arguments, one run each."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, cwd: Path, returncode: int = 0) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == returncode, proc.stderr
    return proc


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_kazhdan_profile_script(tmp_path):
    out = tmp_path / "profile.csv"
    proc = run_script("kazhdan_profile.py", "--family", "random-regular", "--sizes", "16,32",
                      "--budget", "100", "--restarts", "2", "--out", str(out), cwd=tmp_path)
    header, *rows = read_csv(out)
    assert header == ["n", "best_value", "balance_gap", "wall_time_s"]
    assert [row[0] for row in rows] == ["16", "32"]
    lines = proc.stdout.splitlines()
    assert all("accepted swap=" in line and " recolour=" in line and " merge=" in line for line in lines[:2])


def test_kazhdan_profile_rows_are_cli_runs(tmp_path):
    # a random-regular row is the urglab kazhdan run of the same params: same window seed, same value
    from urglab.cli import main

    flags = ["--budget", "100", "--restarts", "2", "--seed", "0"]
    run_script("kazhdan_profile.py", "--family", "random-regular", "--sizes", "16,32", *flags,
               "--out", str(tmp_path / "profile.csv"), cwd=tmp_path)
    for n, value, *_ in read_csv(tmp_path / "profile.csv")[1:]:
        out = tmp_path / n
        assert main(["kazhdan", "--model", "random-regular", "--k-rank", "2", "--n", n, *flags, "--out", str(out)]) == 0
        assert float(value) == json.loads((out / "kazhdan_result.json").read_text())["value"], n


def test_kazhdan_profile_refuses_oversize_windows(tmp_path):
    # 2 * 2e8 directed entries: over the CLI's window guard, refused before any window is built
    proc = run_script("kazhdan_profile.py", "--family", "cycle", "--sizes", "8,200000000",
                      "--out", str(tmp_path / "profile.csv"), cwd=tmp_path, returncode=3)
    assert proc.stderr.startswith("guard: --sizes: ") and "Traceback" not in proc.stderr
    assert not (tmp_path / "profile.csv").exists()


def test_kazhdan_profile_refuses_a_negative_seed(tmp_path):
    # seeds derive from a nonnegative master seed; a negative one is named, not a traceback
    proc = run_script("kazhdan_profile.py", "--sizes", "8", "--seed", "-1", "--out", str(tmp_path / "profile.csv"),
                      cwd=tmp_path, returncode=2)
    assert "--seed must be nonnegative" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "profile.csv").exists()


@pytest.mark.parametrize("args,field", [
    (("--k", "0"), "--k"),
    (("--eps", "0.7"), "--eps"),
    (("--sizes", "8,x"), "--sizes"),
    (("--budget", "0"), "--budget"),
    (("--family", "random-regular", "--sizes", "3"), "--sizes"),
], ids=["k-zero", "eps-too-large", "size-not-integer", "budget-zero", "random-regular-too-small"])
def test_kazhdan_profile_script_rejects_malformed_input(tmp_path, args, field):
    proc = run_script("kazhdan_profile.py", *args, "--out", str(tmp_path / "profile.csv"),
                      cwd=tmp_path, returncode=2)
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "profile.csv").exists()


@pytest.mark.parametrize("args,expected", [
    (("--family", "random-regular", "--sizes", "16,32", "--k", "3", "--eps", "0.05", "--budget", "300",
      "--restarts", "2", "--seed", "4"),
     [["16", "1.75", "0.041666666666666685"], ["32", "1.875", "0.020833333333333315"]]),
    (("--family", "cycle", "--sizes", "8,16,32", "--budget", "500", "--restarts", "2", "--seed", "1"),
     [["8", "0.5", "0.0"], ["16", "0.25", "0.0"], ["32", "0.5", "0.0"]]),
], ids=["random-regular-k3", "cycle"])
def test_kazhdan_profile_rows_are_pinned(tmp_path, args, expected):
    # n, best value and balance gap of each row, as recorded before the row loop moved into the script
    out = tmp_path / "profile.csv"
    run_script("kazhdan_profile.py", *args, "--out", str(out), cwd=tmp_path)
    assert [row[:3] for row in read_csv(out)[1:]] == expected
