"""Smoke tests for the sweep scripts in scripts/: tiny arguments, one run each."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_kazhdan_profile_script(tmp_path):
    out = tmp_path / "profile.csv"
    run_script("kazhdan_profile.py", "--family", "random-regular", "--sizes", "16,32",
               "--budget", "100", "--restarts", "2", "--out", str(out), cwd=tmp_path)
    header, *rows = read_csv(out)
    assert header == ["n", "best_value", "balance_gap", "wall_time_s"]
    assert [row[0] for row in rows] == ["16", "32"]
