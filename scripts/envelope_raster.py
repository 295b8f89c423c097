#!/usr/bin/env python3
"""Render a space-time diagram of the envelope process as a PGM image.

Starts from an all-? ring and runs until the ?-region dies out (or a step
cap), writing the raster plus the per-step ?-density as CSV.
"""
import argparse

from pca_ergo import ParamQuad, ca_with_error, derive
from pca_ergo.envelope import density_to_csv, run_with_raster, write_pgm


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--params", default="0.8,0.3,0.5,0.6",
                    help="p00,p01,p10,p11")
    ap.add_argument("--ca", help="4-bit rule code (overrides --params)")
    ap.add_argument("--eps", type=float, default=0.1, help="error for --ca")
    ap.add_argument("--cells", type=int, default=200)
    ap.add_argument("--max-steps", type=int, default=10 ** 4)
    ap.add_argument("--seed", type=int, default=20230901)
    ap.add_argument("--pgm", default="envelope.pgm")
    ap.add_argument("--csv", default="envelope_density.csv")
    args = ap.parse_args()

    if args.ca:
        quad = ca_with_error(args.ca, args.eps)
    else:
        quad = ParamQuad(*(float(v) for v in args.params.split(",")))
    d = derive(quad)
    hit, density, ras = run_with_raster(d, n=args.cells,
                                        max_steps=args.max_steps,
                                        seed=args.seed)
    write_pgm(ras, args.pgm)
    density_to_csv(density, args.csv)
    if hit is None:
        print(f"?-region still alive after {args.max_steps} steps")
    else:
        print(f"?-region extinct after {hit} steps")
    print(f"wrote {args.pgm} ({len(ras.data)}x{args.cells}) and {args.csv}")


if __name__ == "__main__":
    main()
