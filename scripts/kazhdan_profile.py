#!/usr/bin/env python3
"""Profile the best balanced-partition value against window size.

Each row holds the best value the annealer found within its budget: an
upper bound on the optimum, not the optimum.  At the default budget it
reaches the cycle optimum 4/n only up to n = 32, and on random-regular
windows the value grows with n, so the rows do not yet show the
amenable/expander contrast past small n.  Emits one CSV row per window.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from urglab.graphs import build_random_regular, build_torus_window
from urglab.kazhdan import kazhdan_profile
from urglab.reporting import fmt_float, write_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", choices=("cycle", "torus2d", "random-regular"),
                        default="cycle")
    parser.add_argument("--sizes", type=str, default="8,16,32,64",
                        help="comma-separated sizes (cycle length, torus side, or vertex count)")
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--eps", type=float, default=0.0)
    parser.add_argument("--budget", type=int, default=4000)
    parser.add_argument("--restarts", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path("kazhdan_profile.csv"))
    args = parser.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    if args.family == "cycle":
        windows = [build_torus_window(1, n) for n in sizes]
    elif args.family == "torus2d":
        windows = [build_torus_window(2, L) for L in sizes]
    else:
        windows = [build_random_regular(2, n, seed=args.seed) for n in sizes]

    rows = kazhdan_profile(windows, k=args.k, eps=args.eps, budget=args.budget,
                           restarts=args.restarts, seed=args.seed)
    write_csv(args.out, ("n", "best_value", "balance_gap", "wall_time_s"),
              [(row.n, fmt_float(row.value), fmt_float(row.balance_gap), fmt_float(row.wall_time))
               for row in rows])
    for row in rows:
        print(f"n={row.n:6d}  value={row.value:.6f}  gap={row.balance_gap:.4f}  "
              f"{row.wall_time:.2f}s")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
