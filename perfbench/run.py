"""pca-ergo benchmark: one workload, one seed, metrics as a JSON last line.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload condition --seed 1 --seconds 20 --trace 0

The program under test is imported from `src/` of the current directory;
the metric list comes from the BENCHMARK.json beside this directory.
`--trace 1` prints the per-layer metrics instead of the end-to-end ones and
writes every span to `.perfbench-out/spans-<workload>.csv`.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOAD_NAMES = ("condition", "boundary-walks", "envelope")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor; below 1 only for the smoke check")
    args = ap.parse_args(argv)

    root = Path.cwd()
    spec_path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if not (root / "src" / "pca_ergo" / "__init__.py").is_file():
        print(f"error: no src/pca_ergo under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"error: no {spec_path}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.scale, root, json.loads(spec_path.read_text()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
