#!/usr/bin/env python3
"""Sweep the ergodicity condition over the 16 deterministic rules with errors.

Writes one CSV row per (rule, error rate) and prints the crossover error
rate for the four rules the condition misses near zero error.
"""
import argparse
import sys

from pca_ergo import bisect_crossover
from pca_ergo.cli import CliError, _write
from pca_ergo.sweep import ALL_CODES, epsilon_sweep, sweep_rows_to_csv

EXCLUDED = ["1000", "1110", "0110", "1001"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", default="0.01,0.05,0.1,0.2,0.3,0.4,0.5",
                    help="comma-separated error rates")
    ap.add_argument("--out", default="rule_sweep.csv")
    args = ap.parse_args()

    grid = [float(v) for v in args.grid.split(",")]
    rows = epsilon_sweep(ALL_CODES, grid)
    try:
        _write(args.out, sweep_rows_to_csv(rows).encode())
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exc.code)
    held = sum(r.holds for r in rows)
    print(f"wrote {len(rows)} rows to {args.out} ({held} hold)")
    for code in EXCLUDED:
        print(f"rule {code}: condition starts holding at eps = "
              f"{bisect_crossover(code):.12f}")


if __name__ == "__main__":
    main()
