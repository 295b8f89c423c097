"""The three benchmark workloads: `condition`, `boundary-walks`, `envelope`.

Each workload builds its inputs from the seed once, then runs the same fixed
job ("round") again and again.  A round calls into `pca_ergo` one operation
at a time (closed loop, one thread), times each operation, and checks every
output.  Long jobs are split into operations of at most about 0.1 s, so that
every operation is timed over a short stretch of host load.  Calls go
through module attributes (`P.derive`, not `derive`) so that the tracer's
wrappers are seen.

Why these workloads, and which layer metric should move which end-to-end
metric, is written down in README.md next to this file.
"""
from __future__ import annotations

import io
import itertools
import json
import time
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import pca_ergo.cli as C
import pca_ergo.envelope as E
import pca_ergo.params as P
import pca_ergo.refined as R
import pca_ergo.sweep as S
import pca_ergo.walk as W

FIG1 = (0.8, 0.3, 0.5, 0.6)
FIG1_ARG = "0.8,0.3,0.5,0.6"
EDGE_VALUES = (0.0, 1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9, 1.0)
# Per-solve limit, in power iterations (the seed's default is 10^6, about
# 4.7 s).  Every converging chain of the edge lattice needs at most 421;
# the 108 near-absorbing ones never converge.  A count, not a clock, so
# which solves hit it does not depend on host load.
SOLVE_MAX_ITER = 1000
SOLVE_TOL = 1e-9           # |nu M - nu| of a solved distribution
CLI_OK_CODES = (0, 2, 3, 4)
MC_BAND_SE = 7.0           # MC mean must lie within this many std errors
RENEWAL_THRESHOLD = 20     # gap the renewal islands must reach
RING_CELLS = 200
RING_STEP_CAP = 10 ** 4
WIDE_CELLS = 1 << 20       # uniforms alone are 8 MiB, twice the 4 MiB L2
WIDE_STEPS = 4
COUPLED_CELLS = 64
COUPLED_STEPS = 100


class Ledger:
    """Operations of one round: their times, failures and outcome counts.

    Every operation runs inside a named part of the round and is timed on
    its own; `op_seconds[k]` and `op_parts[k]` are the time and part of the
    k-th operation.  A failure is an unexpected exception, a CLI exit
    outside {0,2,3,4} or a failed correctness check; only the last kind
    makes the round incorrect.  A solve over its limit is the seed's known
    near-absorbing defect: it is counted in `over_limit`, which the
    workload's `failed_frac` includes, but it is not a failure of the run.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer                # records spans only inside parts
        self.attempted = 0
        self.failed = 0
        self.over_limit = 0
        self.errors: list = []
        self.wrong: list = []
        self.op_seconds: list = []
        self.op_parts: list = []
        self.items: Counter = Counter()     # part -> work items done
        self.counts: Counter = Counter()    # outcome counters
        self._part = None

    @contextmanager
    def part(self, name: str):
        self._part = name
        if self.tracer is not None:
            self.tracer.active = True
        try:
            yield
        finally:
            self._part = None
            if self.tracer is not None:
                self.tracer.active = False

    def _timed(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.op_seconds.append(time.perf_counter() - t0)
            self.op_parts.append(self._part)

    def call(self, fn, *args, **kwargs):
        """One operation; an exception is counted as a failure."""
        self.attempted += 1
        try:
            return self._timed(fn, *args, **kwargs)
        except Exception as exc:  # the benchmark keeps running and reports it
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None

    def expect(self, ok: bool, what: str, misses: int = 1) -> None:
        """Correctness check on outputs already produced."""
        if not ok:
            self.failed += misses
            self.wrong.append(what)

    def solve(self, chain):
        """stationary_solve under SOLVE_MAX_ITER; None when it hits the limit
        or fails."""
        self.attempted += 1
        try:
            return self._timed(P.stationary_solve, chain, max_iter=SOLVE_MAX_ITER)
        except Exception as exc:
            if isinstance(exc, RuntimeError) and "did not converge" in str(exc):
                self.counts["solve_timed_out"] += 1
                self.over_limit += 1
            else:
                self.counts["solve_failed"] += 1
                self.errors.append(f"stationary_solve: {exc!r}")
                self.failed += 1
        return None

    def cli(self, argv: list, expect: int = 0):
        """Run `pca-ergo argv` in process; return stdout on exit 0."""
        self.attempted += 1
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self._timed(C.main, list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback means exit 1
            self.errors.append(f"cli {argv[0]}: {exc!r}")
            code = 1
        self.counts[f"exit_{code if code in CLI_OK_CODES else 'other'}"] += 1
        if code not in CLI_OK_CODES:
            self.failed += 1
            return None
        self.expect(code == expect, f"cli {argv[0]}: exit {code}, expected {expect}")
        return out.getvalue() if code == 0 else None


def _uniform_quads(rng, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    return lo + (hi - lo) * rng.random((n, 4))


def _quad_arg(q) -> str:
    return ",".join(format(float(v), ".17g") for v in q)


def _untied(d, side) -> bool:
    i = side.sup
    return (d.rr[i][0] != d.rr[i][1] and d.QQ[i][0] != d.QQ[i][1]
            and d.PP[i][0] != d.PP[i][1])


class Condition:
    """Closed-form condition (scalar and batch), sweeps, stationary solves."""

    name = "condition"
    throughput_names = ("check_quads_per_s", "volume_quads_per_s", "solves_per_s")

    def __init__(self, seed: int, scale: float, root: Path, tmp: Path):
        rng = np.random.default_rng(seed)
        lattice = list(itertools.product(EDGE_VALUES, repeat=4))
        rand = _uniform_quads(rng, max(8, int(1000 * scale)))
        self.check_rows = np.vstack([np.array(lattice), rand])
        self.check_quads = [P.ParamQuad(*map(float, q)) for q in self.check_rows]
        self.n_lattice = len(lattice)
        self.volume_seeds = [int(s) for s in rng.integers(2 ** 62, size=2)]
        self.samples = max(1024, int((1 << 16) * scale))   # per volume call
        self.grid = [(k + 1) / 256 for k in range(128)]
        self.crossover = json.loads(
            (root / "artifacts" / "ca_crossover.json").read_text())
        interior = _uniform_quads(rng, max(8, int(250 * scale)), 0.05, 0.95)
        self.interior = [P.derive(P.ParamQuad(*map(float, q))) for q in interior]
        solve_d = [P.derive(q) for q in self.check_quads[:self.n_lattice]] + self.interior
        self.chains = [P.boundary_chain(d, side) for d in solve_d for side in P.Side]
        self.cli_quads = [_quad_arg(q) for q in rand[:4]]
        degenerate = next(q for q in self.check_quads[:self.n_lattice]
                          if _check_one(q)[1])
        self.cli_degenerate = _quad_arg(degenerate.as_tuple())
        self.cli_seed = int(rng.integers(2 ** 31))
        # quads from the volume stream, compared scalar against batch
        bg = np.random.Philox(key=self.volume_seeds[0], counter=[0, 0, 1, 0])
        self.volume_sample = np.random.Generator(bg).random((max(8, int(250 * scale)), 4))

    @staticmethod
    def warm() -> None:
        d = P.derive(P.ParamQuad(*FIG1))
        P.condition_check(d)
        P.condition_holds_batch(np.array([FIG1]))
        P.stationary_solve(P.boundary_chain(d, P.Side.RIGHT))
        C.build_parser()

    def round(self, led: Ledger) -> None:
        with led.part("check"):
            flags = [led.call(_check_one, q) for q in self.check_quads]
        holds = np.array([f is not None and f[0] for f in flags])
        degen = np.array([f is not None and f[1] for f in flags])
        led.items["check"] += len(self.check_quads)
        led.counts["degenerate_cells"] += int(degen.sum())

        with led.part("volume"):
            vols = [led.call(S.volume_estimate, self.samples, seed=s)
                    for s in self.volume_seeds]
        led.items["volume"] += self.samples * len(self.volume_seeds)

        with led.part("sweep"):
            rows = [led.call(S.epsilon_sweep, [code], self.grid)
                    for code in S.ALL_CODES]
            rows = None if None in rows else [r for rs in rows for r in rs]
            cross = {c: led.call(P.bisect_crossover, c) for c in self.crossover}

        with led.part("solve"):
            nus = [led.solve(ch) for ch in self.chains]
        led.items["solve_ok"] += sum(nu is not None for nu in nus)

        with led.part("cli"):
            outs = {}
            for k, q in enumerate(self.cli_quads):
                outs["check", k] = led.cli(["check", "--params", q])
                outs["gamma", k] = led.cli(["gamma", "--params", q])
                outs["chain", k] = led.cli(["chain", "--params", q, "--side", "left"])
            grid8 = self.grid[15::16]
            outs["sweep"] = led.cli(["sweep", "--grid", ",".join(map(repr, grid8)),
                                     "--format", "csv"])
            outs["volume"] = led.cli(["volume", "--samples", "65536",
                                      "--seed", str(self.cli_seed)])
            led.cli(["check", "--params", "1.5,0,0,0"], expect=2)
            led.cli(["gamma", "--params", self.cli_degenerate], expect=3)

        self._verify(led, holds, degen, vols, rows, cross, nus, outs, grid8)

    def _verify(self, led, holds, degen, vols, rows, cross, nus, outs, grid8):
        b_holds, b_degen = P.condition_holds_batch(self.check_rows[:self.n_lattice])
        n = self.n_lattice
        miss = int((b_holds != holds[:n]).sum() + (b_degen != degen[:n]).sum())
        led.expect(miss == 0, f"lattice scalar/batch disagree on {miss}", miss)
        s_holds, s_degen = _scalar_flags(self.volume_sample)
        v_holds, v_degen = P.condition_holds_batch(self.volume_sample)
        miss = int((v_holds != s_holds).sum() + (v_degen != s_degen).sum())
        led.expect(miss == 0, f"volume-stream scalar/batch disagree on {miss}", miss)

        for vol in vols:
            if vol is not None:
                led.expect(vol.samples == self.samples and 0 < vol.hits < vol.samples
                           and vol.ci95_low <= vol.fraction <= vol.ci95_high,
                           "volume estimate inconsistent")
        if rows is not None:
            led.expect(len(rows) == 16 * len(self.grid), "sweep row count")
            for r in rows:
                if r.code in self.crossover:
                    led.expect(r.holds == (r.eps > self.crossover[r.code]),
                               f"sweep {r.code}@{r.eps} disagrees with crossover")
        for code, c in cross.items():
            led.expect(c is not None and abs(c - self.crossover[code]) <= 1e-12,
                       f"crossover {code}: {c} vs {self.crossover[code]}")

        solved = [k for k, nu in enumerate(nus) if nu is not None]
        if solved:
            mats = np.array([self.chains[k].rows for k in solved])
            dist = np.array([[nus[k][s] for s in P.BState] for k in solved])
            resid = np.abs(np.einsum("ki,kij->kj", dist, mats) - dist).max(axis=1)
            bad = int((resid > SOLVE_TOL).sum() + (np.abs(dist.sum(1) - 1) > SOLVE_TOL).sum())
            led.expect(bad == 0, f"{bad} solves are not stationary distributions", bad)

        m = 2 * self.n_lattice
        for k, d in enumerate(self.interior):
            for s, side in enumerate(P.Side):
                nu = nus[m + 2 * k + s]
                if nu is None or not _untied(d, side):
                    continue
                g = P.gamma_table(d, side)
                led.expect(abs(g - nu[P.favourable_state(d, side)]) <= 1e-10,
                           f"gamma_table vs stationary_solve on {d.quad}")

        for k, q in enumerate(self.cli_quads):
            d = P.derive(P.ParamQuad(*map(float, q.split(","))))
            rep = P.condition_check(d)
            if outs["check", k] is not None:
                led.expect(json.loads(outs["check", k])["holds"] == rep.holds,
                           "cli check")
            if outs["gamma", k] is not None:
                led.expect(json.loads(outs["gamma", k])
                           == {"gamma0": rep.gamma0, "gamma1": rep.gamma1}, "cli gamma")
            if outs["chain", k] is not None:
                nu = P.stationary_solve(P.boundary_chain(d, P.Side.LEFT))
                got = json.loads(outs["chain", k])["stationary"]
                led.expect(all(got[str(s)] == nu[s] for s in P.BState), "cli chain")
        if outs["sweep"] is not None and rows is not None:
            want = {(r.code, r.eps): r.holds for r in rows if r.eps in grid8}
            got = {(r.code, r.eps): r.holds
                   for r in S.sweep_rows_from_csv(outs["sweep"].strip())}
            led.expect(got == want, "cli sweep disagrees with epsilon_sweep")
        if outs["volume"] is not None:
            got = json.loads(outs["volume"])
            want = S.volume_estimate(65536, seed=self.cli_seed)
            led.expect(got["hits"] == want.hits and got["samples"] == 65536,
                       "cli volume disagrees with volume_estimate")

    @staticmethod
    def throughputs(items: dict, seconds: dict) -> dict:
        return {"check_quads_per_s": items["check"] / seconds["check"],
                "volume_quads_per_s": items["volume"] / seconds["volume"],
                "solves_per_s": items["solve_ok"] / seconds["solve"]}


def _check_one(q) -> tuple:
    """(holds, degenerate) of the scalar condition check of one quad."""
    try:
        return P.condition_check(P.derive(q)).holds, False
    except P.DegenerateDenominatorError:
        return False, True


def _scalar_flags(rows: np.ndarray):
    flags = [_check_one(P.ParamQuad(*map(float, q))) for q in rows]
    return np.array([f[0] for f in flags]), np.array([f[1] for f in flags])


class BoundaryWalks:
    """Long stationary chains beside many short island renewal runs."""

    name = "boundary-walks"
    throughput_names = ("mc_steps_per_s", "renewal_runs_per_s")

    def __init__(self, seed: int, scale: float, root: Path, tmp: Path):
        rng = np.random.default_rng(seed)
        quads = []
        while len(quads) < 6:       # positive rates, r = max - min >= 0.2
            q = _uniform_quads(rng, 1, 0.05, 0.95)[0]
            if q.max() - q.min() >= 0.2:
                quads.append(tuple(map(float, q)))
        # Fig-1 gets the long chains; six seeded quads average out how the
        # per-step cost depends on the quad (head atom or geometric tail).
        self.drift_d = [P.derive(P.ParamQuad(*q)) for q in [FIG1] + quads]
        self.drift_steps = [max(1000, int(n * scale)) for n in [5000] + [2500] * 6]
        self.steps = self.drift_steps[0]
        self.refined_steps = max(5000, int(12500 * scale))
        self.burn_in = 1000
        self.eps = (0.1, 0.2, 0.3)
        self.runs = max(1, int(4 * scale))
        seeds = iter(int(s) for s in rng.integers(
            2 ** 62, size=2 * len(self.drift_d) + len(self.eps) + self.runs + 3))
        self.drift_seeds = [next(seeds) for _ in range(2 * len(self.drift_d))]
        self.refined_seeds = [next(seeds) for _ in self.eps]
        # one renewal_experiment call per run, so each run is timed alone
        self.renewal_seeds = [next(seeds) for _ in range(self.runs)]
        self.drift_cli_seed, self.island_seed, self.ca_seed = (
            next(seeds) for _ in range(3))

    @staticmethod
    def warm() -> None:
        d = P.derive(P.ParamQuad(*FIG1))
        W.empirical_drift(d, P.Side.RIGHT, steps=100, burn_in=10, seed=0)
        R.simulate_refined(0.2, steps=100, burn_in=10, seed=0)
        W.simulate_island(d, n0=3, horizon=10, seed=0)
        C.build_parser()

    def round(self, led: Ledger) -> None:
        sides = [(d, side, n) for d, n in zip(self.drift_d, self.drift_steps)
                 for side in P.Side]
        with led.part("chains"):
            drift = [led.call(W.empirical_drift, d, side, steps=n,
                              burn_in=self.burn_in, seed=seed)
                     for (d, side, n), seed in zip(sides, self.drift_seeds)]
            ref = [led.call(R.simulate_refined, e, steps=self.refined_steps,
                            burn_in=self.burn_in, seed=seed)
                   for e, seed in zip(self.eps, self.refined_seeds)]
        led.items["chains"] += (sum(n + self.burn_in for _, _, n in sides)
                                + len(self.eps) * (self.refined_steps + self.burn_in))

        with led.part("renewal"):
            ren = [led.call(S.renewal_experiment, self.drift_d[0],
                            threshold=RENEWAL_THRESHOLD, runs=1, seed=s)
                   for s in self.renewal_seeds]
        led.items["renewal"] += self.runs

        with led.part("oracles"):
            exact = [led.call(W.exact_simulated_drift, d, side) for d, side, _ in sides]
            exact_ref = [led.call(R.exact_refined_drift, e) for e in self.eps]

        with led.part("cli"):
            cli_drift = led.cli(["drift", "--params", FIG1_ARG, "--side", "right",
                                 "--mc-steps", str(self.steps),
                                 "--seed", str(self.drift_cli_seed)])
            cli_island = led.cli(["island", "--params", FIG1_ARG, "--gap", "10",
                                  "--seed", str(self.island_seed)])
            cli_ca = led.cli(["ca1000", "--eps", "0.2", "--mc-steps",
                              str(self.refined_steps), "--seed", str(self.ca_seed)])

        for est, want, what in zip(drift + ref, exact + exact_ref,
                                   [f"drift {d.quad} {s.name}" for d, s, _ in sides]
                                   + [f"refined eps={e}" for e in self.eps]):
            if est is not None and want is not None:
                led.expect(abs(est.mean - want) <= MC_BAND_SE * est.stderr,
                           f"{what}: MC {est.mean} vs exact {want} (se {est.stderr})")
        for r in ren:
            if r is not None:
                led.expect(r.attempts[0] >= 1 and r.censored == 0, "renewal summary")
        if cli_drift is not None and exact[0] is not None:
            got = json.loads(cli_drift)
            led.expect(got["bound"] == P.asymptotic_increment_bound(
                self.drift_d[0], P.Side.RIGHT), "cli drift bound")
            led.expect(abs(got["mc_mean"] - exact[0]) <= MC_BAND_SE * got["mc_stderr"],
                       "cli drift MC mean outside band")
        if cli_island is not None:
            got = json.loads(cli_island)
            led.expect(got["alive"] == (got["gap"] >= 3)
                       and (got["steps"] == 10 ** 4 or not got["alive"]), "cli island")
        if cli_ca is not None and exact_ref[1] is not None:
            got = json.loads(cli_ca)
            led.expect(got["mean_s1"] == R.mean_s1(0.2)
                       and got["drift_bound"] == R.refined_drift_bound(0.2), "cli ca1000")
            led.expect(abs(got["mc_mean"] - exact_ref[1]) <= MC_BAND_SE * got["mc_stderr"],
                       "cli ca1000 MC mean outside band")

    @staticmethod
    def throughputs(items: dict, seconds: dict) -> dict:
        return {"mc_steps_per_s": items["chains"] / seconds["chains"],
                "renewal_runs_per_s": items["renewal"] / seconds["renewal"]}


class Envelope:
    """Many small rings to extinction, coupled triples, one wide ring."""

    name = "envelope"
    throughput_names = ("ring_cell_steps_per_s", "coupled_steps_per_s",
                        "wide_cell_steps_per_s")

    def __init__(self, seed: int, scale: float, root: Path, tmp: Path):
        rng = np.random.default_rng(seed)
        cand = rng.random((4096, 4))
        ok, _ = P.condition_holds_batch(cand)
        self.rings = [(P.derive(P.ParamQuad(*map(float, q))), int(s))
                      for q, s in zip(cand[ok], rng.integers(2 ** 62, size=int(ok.sum())))]
        self.ring_budget = max(RING_CELLS, int(2000 * scale))   # ring-steps
        self.coupled = []
        for _ in range(max(1, int(5 * scale))):
            d = P.derive(P.ParamQuad(*map(float, rng.random(4))))
            a = rng.integers(0, 2, COUPLED_CELLS).astype(np.int8)
            b = np.where(rng.random(COUPLED_CELLS) < 0.5, a,
                         rng.integers(0, 2, COUPLED_CELLS)).astype(np.int8)
            self.coupled.append((d, a, b, int(rng.integers(2 ** 62))))
        self.wide_d = P.derive(P.ca_with_error("0110", 0.2))
        self.wide_n = max(1 << 16, int(WIDE_CELLS * scale))
        self.wide_seed = int(rng.integers(2 ** 62))
        self.pgm_seeds = [int(s) for s in rng.integers(2 ** 31, size=3)]
        self.tmp = tmp

    @staticmethod
    def warm() -> None:
        d = P.derive(P.ParamQuad(*FIG1))
        E.run_to_decorrelation(d, RING_CELLS, 2, seed=0)
        E.envelope_step(E.all_q_ring(4096), d, E.step_uniforms(0, 1, 4096))
        C.build_parser()

    def round(self, led: Ledger) -> None:
        done = 0
        hits = []
        with led.part("rings"):
            for d, s in self.rings:
                if done >= self.ring_budget:
                    break
                res = led.call(E.run_to_decorrelation, d, RING_CELLS,
                               RING_STEP_CAP, seed=s)
                hit = None if res is None else res[0]
                hits.append(hit)
                done += RING_STEP_CAP if hit is None else hit
        led.items["rings"] += done * RING_CELLS

        with led.part("coupled"):
            dominated = [led.call(_run_triple, *c) for c in self.coupled]
        led.items["coupled"] += len(self.coupled) * COUPLED_STEPS

        with led.part("wide"):
            ring = led.call(E.all_q_ring, self.wide_n)
            for t in range(1, WIDE_STEPS + 1):
                if ring is not None:
                    ring = led.call(_envelope_step, ring, self.wide_d,
                                    self.wide_seed, t)
        led.items["wide"] += self.wide_n * WIDE_STEPS

        with led.part("cli"):
            pgm = []
            for s in self.pgm_seeds:
                path = self.tmp / f"ring-{s}.pgm"
                out = led.cli(["envelope", "--params", FIG1_ARG,
                               "--cells", str(RING_CELLS), "--seed", str(s),
                               "--pgm", str(path), "--out", str(self.tmp / "density.csv")])
                pgm.append((out, path))
            led.cli(["envelope", "--params", FIG1_ARG, "--cells", str(RING_CELLS),
                     "--pgm", str(self.tmp / "missing" / "ring.pgm")], expect=4)

        bad = sum(h is None for h in hits)
        led.expect(bad == 0, f"{bad} condition-holding rings not extinct "
                             f"within {RING_STEP_CAP} steps", bad)
        violated = sum(ok is False for ok in dominated)
        led.expect(violated == 0, f"dominance violated in {violated} triples", violated)
        if ring is not None:
            small = _run_envelope(self.wide_d, 4096, self.wide_seed)
            keep = 4096 - WIDE_STEPS
            led.expect(np.array_equal(ring.cells[:keep], small.cells[:keep]),
                       "wide ring disagrees with its 4096-cell prefix ring")
        for out, path in pgm:
            if out is None:
                continue
            hit = json.loads(out)["hit_time"]
            ras = E.read_pgm(str(path))
            led.expect(hit is not None and ras.shape == (hit + 1, RING_CELLS),
                       f"pgm raster {ras.shape} for hit time {hit}")
            led.counts["raster_bytes"] += ras.size
            led.counts["rasters"] += 1
            path.unlink()

    @staticmethod
    def throughputs(items: dict, seconds: dict) -> dict:
        return {"ring_cell_steps_per_s": items["rings"] / seconds["rings"],
                "coupled_steps_per_s": items["coupled"] / seconds["coupled"],
                "wide_cell_steps_per_s": items["wide"] / seconds["wide"]}


def _run_triple(d, a, b, seed) -> bool:
    """Criterion-7 coupled run; False when dominance is violated."""
    env = np.where(a == b, a, np.int8(E.Q)).astype(np.int8)
    tri = E.CoupledTriple(E.RingState(env), E.RingState(a.copy()), E.RingState(b.copy()))
    try:
        for t in range(COUPLED_STEPS):
            tri = E.coupled_step(tri, d, E.step_uniforms(seed, t, COUPLED_CELLS))
    except AssertionError:
        return False
    return True


def _envelope_step(ring, d, seed: int, t: int):
    """Envelope step t of a ring, with the uniforms of (seed, t)."""
    return E.envelope_step(ring, d, E.step_uniforms(seed, t, ring.n))


def _run_envelope(d, n: int, seed: int):
    """WIDE_STEPS envelope steps from the all-? ring."""
    ring = E.all_q_ring(n)
    for t in range(1, WIDE_STEPS + 1):
        ring = _envelope_step(ring, d, seed, t)
    return ring


WORKLOADS = {cls.name: cls for cls in (Condition, BoundaryWalks, Envelope)}
