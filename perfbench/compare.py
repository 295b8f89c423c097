"""Paired comparison of two source trees with this benchmark.

    python3 perfbench/compare.py --parent ../parent-tree --change . [--pairs 10]

Each tree is a checkout root holding `src/` and `artifacts/`.  The benchmark
code and BENCHMARK.json next to this file drive both trees, so the two sides
run identical benchmark code, every workload and the run length the
benchmark fixes.  Pair k uses seed SEED_BASE + k on both sides and
alternates which side runs first.

Verdicts, per workload and metric:
- gain: the change wins at least 9/10 of the pairs (ties count for neither)
  and the medians differ by more than the parent's interquartile range;
  it does not count, and reads "no gain: more failures", when a larger
  share of the change's operations fail than of the parent's;
- regression: the change's median is worse than the parent's by more than
  the metric's bound;
- unresolved: either side's interquartile range, as a share of its median,
  exceeds the bound, unless every change run beats every parent run;
- no change: none of the above.
Throughputs have no bound of their own and use the workload's `wall_s` bound.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
SEED_BASE = 1000


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced run; end-to-end metrics, throughputs and failure counts."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} failed:\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    values = json.loads(lines[-2])["detail"]
    values.update({k: v["value"] for k, v in result["metrics"].items()})
    values["_correct"] = result["correct"]
    return values


def _spread(values: list) -> str:
    q = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def _rel_iqr(q: list, median: float) -> float:
    if median == 0:
        return 0.0 if q[0] == q[2] else math.inf
    return (q[2] - q[0]) / abs(median)


def failure_share(runs: list) -> float:
    """Mean `failed_frac`: failed operations and solves over their limit."""
    return statistics.fmean(r["failed_frac"] for r in runs)


def verdict(parent: list, change: list, better: str, bound: float,
            more_failures: bool):
    """(verdict, pairs the change won) for one metric; pairs are aligned.

    `more_failures`: a larger share of the change's operations failed.
    """
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = statistics.quantiles(parent, n=4)
    c_q = statistics.quantiles(change, n=4)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if (wins >= 0.9 * len(parent) and abs(c_med - p_med) > p_q[2] - p_q[0]
            and sign * (c_med - p_med) > 0):
        return ("no gain: more failures" if more_failures else "gain"), wins
    spread = max(_rel_iqr(p_q, p_med), _rel_iqr(c_q, c_med))
    all_better = (min(change) > max(parent) if sign > 0 else max(change) < min(parent))
    if spread > bound and not all_better:
        return "unresolved", wins
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return "regression", wins
    return "no change", wins


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 10:
        ap.error("a claim needs at least 10 pairs")

    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    layer = {m["name"]: m for m in SPEC["per_layer"]}
    workloads = [w["name"] for w in SPEC["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {}   # (workload, side) -> list of value dicts, one per pair
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                runs.setdefault((w, side), []).append(
                    run_once(sides[side], w, SEED_BASE + k))
        print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{'workload':15s} {'metric':24s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>6s}  verdict")
    for w in workloads:
        p_runs, c_runs = runs[w, "parent"], runs[w, "change"]
        more_failures = failure_share(c_runs) > failure_share(p_runs)
        for name in p_runs[0]:
            if name.startswith("_") or name not in e2e and name not in layer:
                continue
            spec = e2e.get(name) or layer[name]
            bound = spec.get("bound", e2e["wall_s"]["bound"])
            p = [r[name] for r in p_runs]
            c = [r[name] for r in c_runs]
            word, wins = verdict(p, c, spec["better"], bound, more_failures)
            print(f"{w:15s} {name:24s} {_spread(p):>34s} {_spread(c):>34s} "
                  f"{wins:>3d}/{len(p):<3d} {word}")
        for side, rs in (("parent", p_runs), ("change", c_runs)):
            bad = sum(not r["_correct"] for r in rs)
            print(f"{w:15s} failures {side}: {failure_share(rs):.6f} of operations; "
                  f"incorrect runs {bad}/{len(rs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
