#!/usr/bin/env python3
"""Profile the best balanced-partition value against window size.

Each row holds the best value the annealer found within its budget: an
upper bound on the optimum, not the optimum.  At the default budget it
reaches the cycle optimum 4/n only up to n = 32, and on random-regular
windows the value grows with n, so the rows do not yet show the
amenable/expander contrast past small n.  Each row's window and value are
those of ``urglab kazhdan`` with the same family params, ``--k``, ``--eps``,
``--budget``, ``--restarts`` and ``--seed``: the windows come from
``cli.build_window``, so a random-regular window is seeded from ``--seed``
as the CLI seeds it, and a size above the CLI's window guard exits 3 before
its window is built or any row is written.  Emits one CSV row per window;
the standard output line of a row adds the annealer's acceptance rate per
move kind (accepted / proposed, summed over restarts).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from urglab.cli import build_window
from urglab.kazhdan import (InfeasibleBalanceError, KazhdanProblem, anneal_kazhdan, feasible_size_windows,
                            uniform_weights)
from urglab.palm import GuardViolation
from urglab.reporting import fmt_float, write_csv


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def size_list(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"need comma-separated integers, got {text!r}") from None


def acceptance(moves: dict[str, tuple[int, int]]) -> str:
    """Accepted / proposed per move kind, as percentages."""
    return "  ".join(f"{kind}={done / tried:.1%}" if tried else f"{kind}=-"
                     for kind, (tried, done) in moves.items())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", choices=("cycle", "torus2d", "random-regular"),
                        default="cycle")
    parser.add_argument("--sizes", type=size_list, default="8,16,32,64",
                        help="comma-separated sizes (cycle length, torus side, or vertex count)")
    parser.add_argument("--k", type=positive_int, default=2)
    parser.add_argument("--eps", type=float, default=0.0)
    parser.add_argument("--budget", type=positive_int, default=4000)
    parser.add_argument("--restarts", type=positive_int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path("kazhdan_profile.csv"))
    args = parser.parse_args()

    if not (0.0 <= args.eps < 1.0 / args.k):
        parser.error(f"--eps must satisfy 0 <= eps < 1/k = {1.0 / args.k:g}, got {args.eps:g}")
    if args.seed < 0:
        parser.error(f"--seed must be nonnegative, got {args.seed}")
    params = {
        "cycle": lambda n: {"model": "cycle", "L": n},
        "torus2d": lambda L: {"model": "torus", "d": 2, "L": L},
        "random-regular": lambda n: {"model": "random-regular", "k_rank": 2, "n": n},
    }[args.family]
    windows = []
    for size in args.sizes:
        try:
            windows.append(build_window(params(size), args.seed))
        except GuardViolation as err:
            print(f"guard: --sizes: {args.family} size {size}: {err}", file=sys.stderr)
            return 3
        except ValueError as err:
            parser.error(f"--sizes: {args.family} size {size}: {err}")
        try:
            feasible_size_windows(windows[-1].n, uniform_weights(args.k), args.eps)
        except InfeasibleBalanceError as err:
            parser.error(f"--eps: size {size}: {err}")

    rows = []
    for w in windows:
        problem = KazhdanProblem(w, args.k, uniform_weights(args.k), args.eps, args.budget, args.restarts, args.seed)
        start = time.perf_counter()
        result = anneal_kazhdan(problem)
        wall_time = time.perf_counter() - start
        gap = max(abs(x - 1.0 / args.k) for x in result.weights.values)  # d_inf to the uniform target
        rows.append((w.n, fmt_float(result.value), fmt_float(gap), fmt_float(wall_time)))
        print(f"n={w.n:6d}  value={result.value:.6f}  gap={gap:.4f}  {wall_time:.2f}s  "
              f"accepted {acceptance(result.moves)}")
    write_csv(args.out, ("n", "best_value", "balance_gap", "wall_time_s"), rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
