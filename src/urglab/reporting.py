"""Estimate reports and deterministic CSV/JSON emission."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable


@dataclass(frozen=True)
class EstimateReport:
    """A Monte Carlo estimate with its sampling noise."""

    estimate: float
    stderr: float


def mean_and_stderr(values) -> tuple[float, float]:
    """Sample mean and its standard error (0 stderr for a single value)."""
    import numpy as np

    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one value")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def binomial_stderr(p_hat: float, n: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


def fmt_float(x: float) -> str:
    """Shortest round-trip decimal form; stable across reruns."""
    return repr(float(x))


def write_csv(path: Path, header: tuple[str, ...], rows: Iterable) -> None:
    """One header row, then the rows, in the csv module's default dialect;
    makes the parent directory if it is missing."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: Path, payload) -> None:
    """Sorted, indented JSON of plain JSON values (dicts, lists, strings,
    numbers, bools, None); makes the parent directory if it is missing."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
