#!/usr/bin/env python3
"""Compare refined rule-1000 closed forms with Monte Carlo across errors.

Writes a CSV with the per-class mean displacements, the drift lower bound
and an empirical stationary drift estimate for each error rate.
"""
import argparse
import sys

from pca_ergo.cli import CliError, _write
from pca_ergo.refined import sweep_to_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", default="0.02,0.05,0.1,0.15,0.2,0.3,0.4",
                    help="comma-separated error rates in (0, 1/2)")
    ap.add_argument("--steps", type=int, default=10 ** 5)
    ap.add_argument("--burn-in", type=int, default=10 ** 3)
    ap.add_argument("--seed", type=int, default=20230901)
    ap.add_argument("--out", default="refined_drift.csv")
    args = ap.parse_args()

    grid = [float(v) for v in args.grid.split(",")]
    text = sweep_to_csv(grid, args.steps, args.burn_in, args.seed)
    try:
        _write(args.out, text.encode())
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exc.code)
    print(f"wrote {len(grid)} rows to {args.out}")


if __name__ == "__main__":
    main()
