"""Smoke check of the benchmark, at a tiny size.

    python3 perfbench/smoke.py          # from the root of a checkout

For each workload it runs the benchmark untraced once and traced twice with
one seed, and asserts that
- every end-to-end and per-layer metric of BENCHMARK.json is printed, with
  its unit, as a finite number;
- the run's correctness checks passed;
- the per-round counts of the two traced runs are identical.
Last it asserts that the benchmark fails, without a result line, in a
directory holding only BENCHMARK.json and the benchmark.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
SEED = 7
SCALE = "0.02"
# Per-layer metrics that are counts and must repeat exactly for one seed.
COUNT_MARKERS = (".calls", ".steps", "_checks_per_step", "sim_passes",
                 "degenerate_cells", ".timed_out", ".failed", ".batches",
                 "exit_codes.", "islands_per_run", "useful_step_frac",
                 "raster.bytes", "spans_per_round")


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace),
         "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(out: subprocess.CompletedProcess, wanted: list) -> dict:
    assert out.returncode == 0, out.stderr[-2000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True, out.stderr[-2000:]
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]
    assert set(res["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
    return res


def main() -> int:
    root = BENCH_DIR.parent
    for w in (wl["name"] for wl in SPEC["workloads"]):
        e2e = result_of(bench(root, w, 0), SPEC["end_to_end"])
        assert all(e2e["metrics"][m]["value"] > 0 for m in e2e["metrics"])
        a = result_of(bench(root, w, 1), SPEC["per_layer"])["metrics"]
        b = result_of(bench(root, w, 1), SPEC["per_layer"])["metrics"]
        counts = [n for n in a if any(k in n for k in COUNT_MARKERS)]
        differ = [n for n in counts if a[n]["value"] != b[n]["value"]]
        assert not differ, f"{w}: counts differ between runs: {differ}"
        print(f"ok {w}: {len(e2e['metrics'])} end-to-end, {len(a)} per-layer "
              f"metrics, {len(counts)} counts repeat")

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=root) as tmp:
        bare = Path(tmp)
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, str(bare / BENCH_DIR.name / "run.py"), "--workload",
             SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
        assert out.returncode != 0 and not out.stdout.strip(), out
        print("ok bare directory: exit", out.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
