"""Batch orchestration: error sweeps over the 16 elementary rules, Monte
Carlo volume of the condition region, and island renewal experiments."""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .params import (_CHUNK_ROWS, ConditionReport, DegenerateDenominatorError,
                     ca_with_error, condition_check, condition_holds_batch,
                     derive)
from .walk import simulate_island

ALL_CODES = [f"{i:04b}" for i in range(16)]
# The four rules the condition misses near zero error, in the order
# `pca-ergo crossover` reports their crossover error rates.
MISSED_CODES = ["1000", "1110", "0110", "1001"]


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return format(x, ".17g")


@dataclass(frozen=True)
class SweepRow:
    """One (rule code, error rate) cell: its condition report, or the name
    of the degenerate gamma cell that left it without one."""

    code: str
    eps: float
    report: ConditionReport | None
    error: str | None = None

    @property
    def holds(self) -> bool:
        return self.report is not None and self.report.holds


def epsilon_sweep(codes: list, grid: list) -> list:
    """One row per (rule code, error rate); degenerate cells become markers."""
    rows = []
    for code in codes:
        for eps in grid:
            try:
                rep = condition_check(derive(ca_with_error(code, eps)))
            except DegenerateDenominatorError as exc:
                rows.append(SweepRow(code, eps, None, exc.cell))
                continue
            rows.append(SweepRow(code, eps, rep))
    return rows


SWEEP_FIELDS = ["code", "eps", "gamma0", "gamma1", "lhs", "rhs",
                "holds", "drift_bound"]


def sweep_rows_to_csv(rows: list) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(SWEEP_FIELDS)
    for r in rows:
        if r.error is not None:
            w.writerow([r.code, _fmt(r.eps), f"error:{r.error}", "", "", "",
                        "false", ""])
        else:
            rep = r.report
            w.writerow([r.code, _fmt(r.eps), _fmt(rep.gamma0),
                        _fmt(rep.gamma1), _fmt(rep.lhs), _fmt(rep.rhs),
                        "true" if rep.holds else "false",
                        _fmt(rep.drift_bound)])
    return buf.getvalue()


def sweep_rows_from_csv(text: str) -> list:
    rows = []
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != SWEEP_FIELDS:
        raise ValueError(f"unexpected sweep header {header}")
    for rec in reader:
        if not rec:
            continue  # a blank line in hand-written input
        code, eps = rec[0], float(rec[1])
        if rec[2].startswith("error:"):
            rows.append(SweepRow(code, eps, None, rec[2][len("error:"):]))
        else:
            # gamma0, gamma1, lhs, rhs, holds, drift_bound
            rows.append(SweepRow(code, eps, ConditionReport(
                *map(float, rec[2:6]), rec[6] == "true", float(rec[7]))))
    return rows


def sweep_rows_to_json(rows: list) -> str:
    out = []
    for r in rows:
        if r.error is not None:
            out.append({"code": r.code, "eps": r.eps, "error": r.error,
                        "holds": False})
        else:
            out.append({"code": r.code, "eps": r.eps, **r.report.to_dict()})
    return json.dumps(out, indent=2)


@dataclass(frozen=True)
class VolumeEstimate:
    samples: int
    hits: int
    degenerate: int
    fraction: float
    ci95_low: float
    ci95_high: float
    seed: int

    def to_dict(self) -> dict:
        return {"samples": self.samples, "hits": self.hits,
                "degenerate": self.degenerate, "fraction": self.fraction,
                "ci_low": self.ci95_low, "ci_high": self.ci95_high,
                "seed": self.seed}

    def to_csv(self) -> str:
        return ("samples,hits,fraction,ci_low,ci_high,seed\n"
                f"{self.samples},{self.hits},{_fmt(self.fraction)},"
                f"{_fmt(self.ci95_low)},{_fmt(self.ci95_high)},{self.seed}\n")


_Z95 = 1.959963984540054


def wilson_interval(hits: int, n: int):
    """95% Wilson score interval of a binomial proportion hits / n."""
    z = _Z95
    phat = hits / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n
                         + z * z / (4 * n * n)) / denom
    return center - half, center + half


def volume_estimate(samples: int, seed: int) -> VolumeEstimate:
    """Monte Carlo fraction of uniform parameters satisfying the condition.

    Degenerate closed-form cells (a measure-zero event) count as misses and
    are tallied.  Work is split into fixed batches with per-batch counter
    streams; each batch is drawn and evaluated in slices of _CHUNK_ROWS
    rows, which continue one another's stream, to bound the memory of the
    draws.
    """
    batch = 1 << 17  # batch k draws from Philox counter [0, 0, 1, k]
    if samples < 1:
        raise ValueError("samples must be >= 1")
    hits = 0
    degen = 0
    for batch_idx, start in enumerate(range(0, samples, batch)):
        bg = np.random.Philox(key=seed, counter=[0, 0, 1, batch_idx])
        gen = np.random.Generator(bg)
        m = min(batch, samples - start)
        for done in range(0, m, _CHUNK_ROWS):
            quads = gen.random((min(_CHUNK_ROWS, m - done), 4))
            h, dg = condition_holds_batch(quads)
            hits += int(h.sum())
            degen += int(dg.sum())
    lo, hi = wilson_interval(hits, samples)
    return VolumeEstimate(samples=samples, hits=hits, degenerate=degen,
                          fraction=hits / samples, ci95_low=lo, ci95_high=hi,
                          seed=seed)


@dataclass(frozen=True)
class RenewalSummary:
    runs: int
    threshold: int
    attempts: list          # per run; capped runs report the cap
    total_steps: list       # per run: island steps simulated, all attempts
    censored: int
    seed: int


def renewal_experiment(d, threshold: int, runs: int, seed: int,
                       attempt_cap: int = 200,
                       horizon: int = 10 ** 4) -> RenewalSummary:
    """Spawn islands of gap 3 until one passes a threshold gap; repeat per run.

    Each island stops at death, at the horizon or at the first gap >=
    threshold, so a run's total_steps counts the steps actually simulated.
    A run whose attempts exhaust the cap is recorded as censored, not as an
    error.
    """
    rng = np.random.default_rng(seed)
    attempts_out = []
    steps_out = []
    censored = 0
    for _ in range(runs):
        attempts = 0
        total = 0
        while attempts < attempt_cap:
            attempts += 1
            traj = simulate_island(d, n0=3, horizon=horizon,
                                   seed=int(rng.integers(2 ** 63)),
                                   until_gap=threshold)
            total += len(traj.i) - 1
            if traj.j[-1] - traj.i[-1] >= threshold:
                break
        else:
            censored += 1
        attempts_out.append(attempts)
        steps_out.append(total)
    return RenewalSummary(runs=runs, threshold=threshold,
                          attempts=attempts_out, total_steps=steps_out,
                          censored=censored, seed=seed)
