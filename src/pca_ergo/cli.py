"""Command-line front door.

Each `cmd_*` takes the parsed flags and the quad of --params or --ca/--eps,
derived (None for the four commands without those flags), and returns its
result, which `main` emits: a dict as indented JSON, a string as is, to
--out or stdout.  `island` and `envelope`, whose --out is a data file
beside a JSON summary on stdout, write their own output and return None.

`drift`, `island`, `envelope`, `ca1000` and `volume` take --seed and are
deterministic given it; the other six subcommands use no randomness.
Exit codes come from the exception type: 0 success, 2 invalid input
(ValueError), 3 degenerate closed-form denominator
(DegenerateDenominatorError), 4 I/O failure (OSError).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import envelope as env
from . import refined, sweep, walk
from .params import (BState, DegenerateDenominatorError, ParamQuad, Side,
                     asymptotic_increment_bound, bisect_crossover,
                     boundary_chain, ca_with_error, condition_check, derive,
                     gamma_table, stationary_solve)

DEFAULT_SEED = 20230901

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4


def _parse_quad(args) -> ParamQuad:
    if (args.params is None) == (args.ca is None):
        raise ValueError("supply exactly one of --params or --ca/--eps")
    if args.params is not None:
        parts = args.params.split(",")
        if len(parts) != 4:
            raise ValueError(
                "--params needs four comma-separated probabilities")
        return ParamQuad(*(float(v) for v in parts))
    if args.eps is None:
        raise ValueError("--ca requires --eps")
    return ca_with_error(args.ca, args.eps)


def _write(path: str, *chunks: bytes) -> None:
    """The one file writer: bytes-like chunks, in order, to path; a
    failure is an OSError naming the path (exit 4)."""
    try:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _emit(out: str | None, result) -> None:
    """Write a command's result to the file `out`, or to stdout: a dict as
    indented JSON, a string as is, ending in exactly one newline."""
    text = result if isinstance(result, str) else json.dumps(result, indent=2)
    if not text.endswith("\n"):
        text += "\n"
    if out:
        _write(out, text.encode())
    else:
        sys.stdout.write(text)


def _side(name: str) -> Side:
    return Side.RIGHT if name == "right" else Side.LEFT


def cmd_derive(args, d) -> dict:
    return {
        "params": list(d.quad.as_tuple()),
        "p": d.p, "q": d.q, "r": d.r,
        "p_i_x": [list(row) for row in d.pp],
        "q_i_x": [list(row) for row in d.qq],
        "r_i_x": [list(row) for row in d.rr],
        "P_i_x": [list(row) for row in d.PP],
        "Q_i_x": [list(row) for row in d.QQ],
        "R_x": list(d.RR),
    }


def cmd_check(args, d) -> dict:
    return condition_check(d).to_dict()


def cmd_gamma(args, d) -> dict:
    return {"gamma0": gamma_table(d, Side.RIGHT),
            "gamma1": gamma_table(d, Side.LEFT)}


def cmd_chain(args, d) -> dict:
    chain = boundary_chain(d, _side(args.side))
    nu = stationary_solve(chain)
    return {
        "side": args.side,
        "rows": {str(s): list(map(float, chain.rows[s.value]))
                 for s in BState},
        "stationary": {str(s): nu[s] for s in BState},
    }


def cmd_drift(args, d) -> dict:
    side = _side(args.side)
    payload = {"side": args.side,
               "bound": asymptotic_increment_bound(d, side)}
    if args.mc_steps:
        est = walk.empirical_drift(d, side, steps=args.mc_steps,
                                   burn_in=args.burn_in, seed=args.seed)
        payload["mc_mean"] = est.mean
        payload["mc_stderr"] = est.stderr
        payload["mc_steps"] = est.steps
        payload["seed"] = est.seed
    return payload


def cmd_island(args, d) -> None:
    traj = walk.simulate_island(d, n0=args.gap, horizon=args.horizon,
                                seed=args.seed)
    if args.out:
        _write(args.out, walk.trajectory_to_csv(traj).encode())
    else:
        print(json.dumps({"steps": len(traj.i) - 1,
                          "gap": int(traj.j[-1] - traj.i[-1]),
                          "alive": bool(traj.alive[-1]), "seed": args.seed}))


def cmd_envelope(args, d) -> None:
    rows = [] if args.pgm else None
    hit, density = env.run_to_decorrelation(d, args.cells, args.max_steps,
                                            args.seed, rows=rows)
    if args.pgm:
        _write(args.pgm, *env.raster_to_pgm(rows))
    if args.out:
        try:
            _write(args.out, env.density_to_csv(density).encode())
        except OSError:
            if args.pgm:  # a failed run leaves none of its outputs
                os.remove(args.pgm)
            raise
    print(json.dumps({"hit_time": hit, "cells": args.cells,
                      "seed": args.seed}))


def cmd_ca1000(args, d) -> dict | str:
    if args.grid is not None:
        grid = [float(v) for v in args.grid.split(",")]
        return refined.sweep_to_csv(grid, args.mc_steps, args.burn_in,
                                    args.seed)
    payload = {
        "eps": args.eps,
        "mean_s1": refined.mean_s1(args.eps),
        "mean_00": refined.mean_00(args.eps),
        "drift_bound": refined.refined_drift_bound(args.eps),
    }
    if args.mc_steps:
        est = refined.simulate_refined(args.eps, steps=args.mc_steps,
                                       burn_in=args.burn_in, seed=args.seed)
        payload["mc_mean"] = est.mean
        payload["mc_stderr"] = est.stderr
        payload["seed"] = est.seed
    return payload


def cmd_sweep(args, d) -> str:
    # an empty --codes names no rule; it is not "all 16"
    codes = (args.codes.split(",") if args.codes is not None
             else sweep.ALL_CODES)
    grid = [float(v) for v in args.grid.split(",")]
    if any(not (0.0 < e <= 0.5) for e in grid):
        raise ValueError("sweep grid values must lie in (0, 1/2]")
    rows = sweep.epsilon_sweep(codes, grid)
    return (sweep.sweep_rows_to_json(rows) if args.format == "json"
            else sweep.sweep_rows_to_csv(rows))


def cmd_crossover(args, d) -> dict:
    return {code: bisect_crossover(code) for code in sweep.MISSED_CODES}


def cmd_volume(args, d) -> dict | str:
    est = sweep.volume_estimate(args.samples, seed=args.seed)
    return est.to_csv() if args.format == "csv" else est.to_dict()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    does not change it, so `main` reuses it on every call."""
    ap = argparse.ArgumentParser(
        prog="pca-ergo",
        description="Ergodicity toolkit for two-neighbour binary PCA",
        allow_abbrev=False)
    ap.add_argument("--config", help="JSON file of default flag values")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, func, help_, quad=False, seeded=False):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=func, quad=quad)
        if seeded:
            sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--out", help="output file (default: stdout)")
        if quad:
            sp.add_argument("--params", help="p00,p01,p10,p11")
            sp.add_argument("--ca", help="4-bit rule code, e.g. 0011")
            sp.add_argument("--eps", type=float, help="error rate for --ca")
        return sp

    add("derive", cmd_derive, "derived min/max/rest quantities", quad=True)
    add("check", cmd_check, "evaluate the ergodicity condition", quad=True)
    add("gamma", cmd_gamma, "closed-form gamma values per side", quad=True)

    sp = add("chain", cmd_chain, "boundary-state chain and its stationary law",
             quad=True)
    sp.add_argument("--side", choices=["right", "left"], default="right")

    sp = add("drift", cmd_drift, "analytic drift bound, optional Monte Carlo",
             quad=True, seeded=True)
    sp.add_argument("--side", choices=["right", "left"], default="right")
    sp.add_argument("--mc-steps", type=int, default=0)
    sp.add_argument("--burn-in", type=int, default=1000)

    sp = add("island", cmd_island, "simulate one decorrelated island",
             quad=True, seeded=True)
    sp.add_argument("--gap", type=int, default=10, help="initial gap (>= 3)")
    sp.add_argument("--horizon", type=int, default=10 ** 4)

    sp = add("envelope", cmd_envelope, "?-extinction run on a ring",
             quad=True, seeded=True)
    sp.add_argument("--cells", type=int, default=200)
    sp.add_argument("--max-steps", type=int, default=10 ** 5)
    sp.add_argument("--pgm", help="write a space-time raster here")

    sp = add("ca1000", cmd_ca1000, "refined rule-1000 means and bound",
             seeded=True)
    at = sp.add_mutually_exclusive_group(required=True)
    at.add_argument("--eps", type=float)
    at.add_argument("--grid", help="comma-separated error rates: CSV of "
                    "closed forms vs Monte Carlo, one row each")
    sp.add_argument("--mc-steps", type=int, default=0)
    sp.add_argument("--burn-in", type=int, default=1000)

    sp = add("sweep", cmd_sweep, "condition sweep over rule codes")
    sp.add_argument("--codes", help="comma-separated codes (default: all 16)")
    sp.add_argument("--grid", default="0.01,0.05,0.1,0.2,0.3,0.4,0.5")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")

    add("crossover", cmd_crossover,
        "error rates where the condition starts to hold for missed rules")

    sp = add("volume", cmd_volume,
             "Monte Carlo volume of the condition region", seeded=True)
    sp.add_argument("--samples", type=int, default=10 ** 6)
    sp.add_argument("--format", choices=["csv", "json"], default="json")
    return ap


def _apply_config(argv: list) -> list:
    """Fold --config file values in as defaults; explicit flags win.

    Each key is a flag of the subcommand (`mc_steps` is `--mc-steps`), put
    before the explicit flags; argparse keeps a flag's last value, so an
    explicit flag wins, and a key the subcommand lacks is a usage error.
    Reads `--config FILE` or `--config=FILE`; the parser takes no
    abbreviation of --config, so a shortened form is a usage error rather
    than a dropped config.
    """
    for idx, arg in enumerate(argv):
        if arg == "--config":
            if idx + 1 == len(argv):
                raise ValueError("--config needs a path")
            path, rest = argv[idx + 1], argv[:idx] + argv[idx + 2:]
            break
        if arg.startswith("--config="):
            path, rest = arg[len("--config="):], argv[:idx] + argv[idx + 1:]
            break
    else:
        return argv
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad config JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object, "
                         f"not {type(cfg).__name__}")
    if not rest:
        raise ValueError("--config given without a subcommand")
    injected = []
    for key, value in cfg.items():
        injected.extend(["--" + key.replace("_", "-"), _flag_value(key, value)])
    return rest[:1] + injected + rest[1:]


def _flag_value(key: str, value) -> str:
    """A config value as it is spelled on the command line: a list
    comma-joined, an integral number as an int, any other number by repr,
    a string as is.  Booleans, null and objects are invalid input."""
    if isinstance(value, list):
        return ",".join(_flag_value(key, v) for v in value)
    if isinstance(value, str):
        return value
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return repr(value)
    raise ValueError(f"config key {key!r}: {json.dumps(value)} is not a "
                     "flag value (use a number, a string or a list)")


def main(argv: list | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(_apply_config(argv))
        d = derive(_parse_quad(args)) if args.quad else None
        result = args.func(args, d)
        if result is not None:
            _emit(args.out, result)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DegenerateDenominatorError):
            return EXIT_DEGENERATE
        return EXIT_BAD_INPUT if isinstance(exc, ValueError) else EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
