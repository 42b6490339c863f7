#!/usr/bin/env python3
"""Reproduce the local-oracle MSE comparison on the benchmark instance.

One client, s=200 buckets, 50 labels, k=2, r=2; budgets 1..6.  Writes a
plot-ready CSV with one row per budget.  At full trial count this takes
about a minute on one core; pass --trials 10000 for a quick look.
"""
import argparse
import sys

import numpy as np

from privlabel.mse import mse_comparison


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=404)
    parser.add_argument("--out", type=str, default="mse_curves.csv")
    args = parser.parse_args()

    grid = np.arange(1.0, 6.01, 0.5)
    curves = mse_comparison(200, 50, 2, 2, grid, trials=args.trials, master_seed=args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(curves.csv_text())
    crossover = grid[np.argmax(curves.concatenation < curves.collision)]
    print(f"wrote {args.out}; concatenation first beats flat collision at eps = {crossover}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
