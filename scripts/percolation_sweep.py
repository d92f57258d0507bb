#!/usr/bin/env python3
"""Sweep the occupation probability and record cluster/cost statistics.

One CSV row per (p, trial): realized intensity, cluster count, largest
cluster fraction, and both connection-cost bounds.
"""

from __future__ import annotations

import argparse
import csv
import sys

from urglab.cli import _percolation_row
from urglab.graphs import build_torus_window
from urglab.rng import derive_seed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--L", type=int, default=32)
    parser.add_argument("--p-grid", type=str, default="0.05,0.1,0.2,0.3,0.4,0.5")
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default="percolation_sweep.csv")
    args = parser.parse_args()

    w = build_torus_window(args.d, args.L)
    grid = [float(x) for x in args.p_grid.split(",")]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("p", "trial", "intensity", "cluster_count",
                         "largest_cluster_fraction", "cost_bound_lemma",
                         "cost_bound_empirical"))
        for p in grid:
            for trial in range(args.trials):
                row = _percolation_row(w, p, derive_seed(args.seed, f"sweep-p{p}", trial))
                writer.writerow((row[0], trial, *row[1:]))
            print(f"p={p:.3f} done")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
