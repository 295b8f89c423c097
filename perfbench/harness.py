"""Runs one workload and prints its metrics.

Untraced (`--trace 0`): the workload's round is repeated for `--seconds`;
round time and throughputs come from each operation's fastest time over the
rounds (`part_seconds`), set-up time is the median of samples spread
between the rounds, each the fastest of a few fresh-process set-ups.  Traced (`--trace 1`): untraced rounds
alternate with rounds that have every public `pca_ergo` function wrapped;
the per-layer metrics come from the traced rounds, the tracing overhead
from the difference of the two kinds.
"""
from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pca_ergo
import pca_ergo.cli
import pca_ergo.envelope
import pca_ergo.params
import pca_ergo.refined
import pca_ergo.sweep
import pca_ergo.walk

import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
LAYERS = {"params": pca_ergo.params, "walk": pca_ergo.walk,
          "refined": pca_ergo.refined, "envelope": pca_ergo.envelope,
          "sweep": pca_ergo.sweep, "cli": pca_ergo.cli}
CLI_COMMANDS = ("check", "gamma", "chain", "sweep", "volume",
                "drift", "island", "ca1000", "envelope")
SETUP_SAMPLES = 10         # set-up samples per run, spread between rounds
SETUP_TRIES = 3            # back-to-back set-ups per sample; the fastest counts
WIDE_MIN_CELLS = 1 << 16    # step calls on at least this many cells are "wide"


def setup_time(name: str, root: Path) -> float:
    """Time, in a fresh process, to import pca_ergo and warm up once."""
    code = ("import sys, time\n"
            "t0 = time.perf_counter()\n"
            f"sys.path[:0] = [{str(root / 'src')!r}, {str(BENCH_DIR)!r}]\n"
            "import workloads\n"
            f"workloads.WORKLOADS[{name!r}].warm()\n"
            "print(time.perf_counter() - t0)\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=root, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.split()[-1])


def run_rounds(wl, seconds: float, between) -> list:
    """Repeat the workload's round for `seconds` of round time (>= 1 round).

    After each round `between(share)` runs, untimed, with the share of
    `seconds` done so far; its own time does not count.
    """
    ledgers = []
    spent = 0.0
    while not ledgers or spent < seconds:
        t0 = time.perf_counter()
        led = workloads.Ledger()
        wl.round(led)
        ledgers.append(led)
        spent += time.perf_counter() - t0
        between(min(1.0, spent / seconds))
    return ledgers


def part_seconds(ledgers: list) -> dict:
    """Time of each part of one round: its operations' fastest times, summed.

    Every round runs the same operations in the same order, so the k-th
    operation of each round is the same work; its time is the minimum over
    the run's rounds.  Timing noise only adds time, and on the shared host
    where this was measured it adds up to twofold for stretches of seconds
    to minutes, while moments at full speed recur within each stretch.  An
    operation of milliseconds catches such moments in some round; a whole
    round of a second rarely does.
    """
    n = max(len(led.op_seconds) for led in ledgers)
    times = np.full((len(ledgers), n), np.nan)
    for r, led in enumerate(ledgers):
        times[r, :len(led.op_seconds)] = led.op_seconds
    fast = np.nanmin(times, axis=0)
    out = defaultdict(float)
    for part, t in zip(max(ledgers, key=lambda led: len(led.op_parts)).op_parts, fast):
        out[part] += float(t)
    return dict(out)


def summary(wl, ledgers: list) -> dict:
    """Round time and the workload's throughputs from per-operation times.

    `failed_frac` counts failed operations and solves over their limit.
    """
    seconds = part_seconds(ledgers)
    items = {part: statistics.median(led.items[part] for led in ledgers)
             for part in ledgers[0].items}
    out = {"wall_s": sum(seconds.values()), "rounds": len(ledgers)}
    out.update(wl.throughputs(items, seconds))
    attempted = sum(led.attempted for led in ledgers)
    failed = sum(led.failed + led.over_limit for led in ledgers)
    out["failed_frac"] = failed / attempted
    out["ok_frac"] = 1.0 - failed / attempted
    return out


def _pct(values: list, q: int) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tr: Tracer, ledgers: list) -> dict:
    """Per-layer numbers from the spans of the traced rounds.

    Counts are those of the first traced round, which every round repeats;
    times pool all traced rounds.  A metric of a layer the workload does not
    call reads 0.
    """
    rounds = len(ledgers)
    spans = defaultdict(list)
    for i in range(len(tr)):
        spans[tr.name(i)].append(i)

    def dur(i):
        return tr.end[i] - tr.start[i]

    def under(i, name, tag=None):
        p = tr.parent[i]
        while p >= 0:
            if tr.name(p) == name and (tag is None or tr.tags.get(p) == tag):
                return True
            p = tr.parent[p]
        return False

    def count(name, keep=lambda i: True):
        return sum(1 for i in spans[name] if tr.round[i] == 0 and keep(i))

    def items0(name, keep=lambda i: True):
        return sum(tr.items[i] for i in spans[name] if tr.round[i] == 0 and keep(i))

    def per_item(name, unit_ns, keep=lambda i: True):
        sel = [i for i in spans[name] if keep(i)]
        n = sum(tr.items[i] for i in sel)
        return sum(dur(i) for i in sel) / n / unit_ns if n else 0.0

    def per_call(name, unit_ns, keep=lambda i: True):
        sel = [i for i in spans[name] if keep(i)]
        return sum(dur(i) for i in sel) / len(sel) / unit_ns if sel else 0.0

    def wide(i):
        return tr.items[i] >= WIDE_MIN_CELLS

    def ring(i):
        return tr.items[i] == workloads.RING_CELLS

    def cli_tag(tag):
        return lambda i: tr.tags.get(i) == tag

    checks = [dur(i) / 1e3 for i in spans["params.condition_check"]]
    solves = [dur(i) / 1e3 for i in spans["params.stationary_solve"]]
    led0 = ledgers[0]
    renewal_runs = items0("sweep.renewal_experiment")
    coupled = count("envelope.coupled_step")
    pgm_calls = sum(1 for i in spans["cli.main"]
                    if tr.round[i] == 0 and tr.tags.get(i) == "envelope")
    passes = sum(count(name, lambda i: under(i, "cli.main", "envelope"))
                 for name in ("envelope.run_to_decorrelation",
                              "envelope.run_envelope_series"))
    m = {
        "params.check.us_p50": _pct(checks, 50),
        "params.check.us_p99": _pct(checks, 99),
        "params.check.samples": len(checks),
        "params.derive.calls": count("params.derive"),
        "params.condition_holds_batch.ns_per_quad":
            per_item("params.condition_holds_batch", 1),
        "params.stationary_solve.us_p50": _pct(solves, 50),
        "params.stationary_solve.failed": led0.counts["solve_failed"],
        "params.stationary_solve.timed_out": led0.counts["solve_timed_out"],
        "params.degenerate_cells": led0.counts["degenerate_cells"],
        "params.bisect_crossover.ms_per_rule": per_call("params.bisect_crossover", 1e6),
        "sweep.volume_estimate.batches": count(
            "params.condition_holds_batch",
            lambda i: under(i, "sweep.volume_estimate")),
        "sweep.epsilon_sweep.us_per_cell": per_item("sweep.epsilon_sweep", 1e3),
        "sweep.renewal_experiment.ms_per_run": per_item("sweep.renewal_experiment", 1e6),
        "sweep.renewal.islands_per_run":
            count("walk.simulate_island",
                  lambda i: under(i, "sweep.renewal_experiment")) / renewal_runs
            if renewal_runs else 0.0,
        "sweep.renewal.useful_step_frac":
            (tr.counts[0, "renewal_useful_steps"] / tr.counts[0, "renewal_steps"]
             if tr.counts[0, "renewal_steps"] else 0.0),
        "walk.empirical_drift.ns_per_step": per_item("walk.empirical_drift", 1),
        "walk.simulate_island.ns_per_step": per_item("walk.simulate_island", 1),
        "walk.simulate_island.steps": items0("walk.simulate_island"),
        "walk.increment_law.calls": count("walk.increment_law"),
        "walk.exact_simulated_drift.us": per_call("walk.exact_simulated_drift", 1e3),
        "refined.simulate_refined.ns_per_step": per_item("refined.simulate_refined", 1),
        "refined.exact_refined_drift.us": per_call("refined.exact_refined_drift", 1e3),
        "envelope.step_uniforms.us_per_call":
            per_call("envelope.step_uniforms", 1e3, ring),
        "envelope.envelope_step.us_per_call":
            per_call("envelope.envelope_step", 1e3, ring),
        "envelope.step_uniforms.ns_per_cell": per_item("envelope.step_uniforms", 1, wide),
        "envelope.envelope_step.ns_per_cell_step":
            per_item("envelope.envelope_step", 1, wide),
        "envelope.coupled_step.us_per_step": per_call("envelope.coupled_step", 1e3),
        "envelope.dominance_checks_per_step":
            count("envelope.check_dominance",
                  lambda i: under(i, "envelope.coupled_step")) / coupled if coupled else 0.0,
        "envelope.run_to_decorrelation.steps": items0("envelope.run_to_decorrelation"),
        "envelope.pgm.sim_passes": passes / pgm_calls if pgm_calls else 0.0,
        "envelope.raster.bytes": (led0.counts["raster_bytes"] / led0.counts["rasters"]
                                  if led0.counts["rasters"] else 0.0),
        "cli.build_parser.ms": per_call("cli.build_parser", 1e6),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.main.{cmd}.ms_per_call"] = per_call("cli.main", 1e6, cli_tag(cmd))
    for code in ("0", "2", "3", "4", "other"):
        m[f"cli.exit_codes.{code}"] = led0.counts[f"exit_{code}"]
    own = tr.self_ns()
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = sum(
            own[i] for name, idx in spans.items() if name.startswith(layer + ".")
            for i in idx) / rounds / 1e6
    m["trace.spans_per_round"] = sum(1 for i in range(len(tr)) if tr.round[i] == 0)
    return m


def run(name: str, seed: int, seconds: float, trace: bool, scale: float,
        root: Path, spec: dict) -> dict:
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=root) as tmp:
        wl = workloads.WORKLOADS[name](seed, scale, root, Path(tmp))
        wl.warm()
        if not trace:
            # Set-up samples are spread evenly between the rounds, so that
            # their median sees the whole run's host load.  Each sample is
            # the fastest of a few back-to-back set-ups, for the reason
            # `part_seconds` gives: timing noise only adds time.
            n_setup = SETUP_SAMPLES if scale >= 1 else 1
            setups = []

            def sample_setup(share):
                while len(setups) < n_setup * share:
                    setups.append(min(setup_time(name, root)
                                      for _ in range(SETUP_TRIES)))

            ledgers = run_rounds(wl, seconds, sample_setup)
            sample_setup(1.0)
            values = summary(wl, ledgers)
            values["setup_s"] = statistics.median(setups)
            values["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wanted = spec["end_to_end"]
            print(json.dumps({"detail": values}))
        else:
            # Untraced and traced rounds alternate, so that both see the
            # same stretches of host load.
            tr = Tracer(LAYERS, holders=[pca_ergo, *LAYERS.values()],
                        renewal_threshold=workloads.RENEWAL_THRESHOLD)
            plain, traced = [], []
            stop = time.perf_counter() + seconds
            while not traced or time.perf_counter() < stop:
                led = workloads.Ledger()
                wl.round(led)
                plain.append(led)
                tr.current_round = len(traced)
                tr.install()
                try:
                    led = workloads.Ledger(tracer=tr)
                    wl.round(led)
                    traced.append(led)
                finally:
                    tr.uninstall()
            values = {key: 0.0 for cls in workloads.WORKLOADS.values()
                      for key in cls.throughput_names}
            values.update(summary(wl, plain))
            values.update(layer_metrics(tr, traced))
            traced_wall = sum(part_seconds(traced).values())
            values["trace.overhead_s"] = traced_wall - values["wall_s"]
            print(f"tracing overhead: {values['trace.overhead_s']:+.4f} s per round "
                  f"(traced {traced_wall:.4f} s over {len(traced)} rounds, "
                  f"untraced {values['wall_s']:.4f} s over {len(plain)} rounds)")
            out_dir = root / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            tr.write_csv(out_dir / f"spans-{name}.csv")
            ledgers = plain + traced
            wanted = spec["per_layer"]
    for led in ledgers:
        for msg in led.errors[:3] + led.wrong[:3]:
            print(f"failure: {msg}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    return {"correct": not any(led.wrong for led in ledgers),
            "attempted": sum(led.attempted for led in ledgers),
            "failed": sum(led.failed for led in ledgers),
            "metrics": metrics}
