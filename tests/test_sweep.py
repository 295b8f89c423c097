import math
import statistics

import pytest

from pca_ergo import ParamQuad, ca_with_error, derive, walk
from pca_ergo import sweep as sweep_module
from pca_ergo.sweep import (ALL_CODES, SweepRow, epsilon_sweep,
                            renewal_experiment, sweep_rows_from_csv,
                            sweep_rows_to_csv, sweep_rows_to_json,
                            volume_estimate, wilson_interval)

FIG1 = ParamQuad(0.8, 0.3, 0.5, 0.6)

# families of rules whose condition margin lhs - rhs equals 4*eps exactly
LINEAR_MARGIN = ["0011", "0101", "1010", "1100",
                 "0001", "0111", "0010", "0100", "1011", "1101",
                 "1000", "1110", "0110", "1001"]
FAILING_AT_SMALL_EPS = {"1000", "1110", "0110", "1001"}


class TestEpsilonSweep:
    def test_all_codes_full_grid_shape(self):
        grid = [0.05, 0.1, 0.2]
        rows = epsilon_sweep(ALL_CODES, grid)
        assert len(rows) == 16 * 3
        assert {r.code for r in rows} == set(ALL_CODES)
        assert all(r.error is None for r in rows)

    def test_constant_rules_hold_for_any_eps(self):
        for code in ("0000", "1111"):
            for row in epsilon_sweep([code], [0.01, 0.25, 0.5]):
                assert row.holds
                assert math.isinf(row.report.drift_bound)

    def test_linear_margin_families(self):
        grid = [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5]
        for code in LINEAR_MARGIN:
            for row in epsilon_sweep([code], grid):
                if code in FAILING_AT_SMALL_EPS:
                    continue  # margin is not linear there
                rep = row.report
                assert rep.lhs - rep.rhs == pytest.approx(4 * row.eps,
                                                          abs=1e-12)
                assert row.holds == (row.eps > 0)

    def test_failing_rules_at_small_eps(self):
        for code in sorted(FAILING_AT_SMALL_EPS):
            (row,) = epsilon_sweep([code], [0.01])
            assert not row.holds
            assert row.report.drift_bound < 0

    def test_margin_monotone_in_eps(self):
        grid = [0.02 * k for k in range(1, 25)]
        for code in ("0001", "1000", "0110", "0011"):
            rows = epsilon_sweep([code], grid)
            margins = [r.report.lhs - r.report.rhs for r in rows]
            assert all(a < b + 1e-12 for a, b in zip(margins, margins[1:]))

    def test_degenerate_cell_becomes_marker_row(self):
        rows = [SweepRow("custom", 0.0, None, "w0")]
        text = sweep_rows_to_csv(rows)
        back = sweep_rows_from_csv(text)
        assert back[0].error == "w0" and back[0].report is None
        assert back[0].holds is False


class TestSerialization:
    def test_csv_round_trip_exact(self):
        rows = epsilon_sweep(ALL_CODES, [0.07, 1.0 / 3.0])
        back = sweep_rows_from_csv(sweep_rows_to_csv(rows))
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert a.code == b.code and a.eps == b.eps
            for field in ("gamma0", "gamma1", "lhs", "rhs", "drift_bound"):
                x, y = getattr(a.report, field), getattr(b.report, field)
                assert x == y or (math.isinf(x) and math.isinf(y))
            assert a.holds == b.holds

    def test_json_fields(self):
        import json
        rows = epsilon_sweep(["0000", "0011"], [0.1])
        data = json.loads(sweep_rows_to_json(rows))
        assert data[0]["drift_bound"] == "inf"
        assert set(data[1]) == {"code", "eps", "gamma0", "gamma1", "lhs",
                                "rhs", "holds", "drift_bound"}
        assert data[1]["holds"] is True


class TestVolume:
    def test_wilson_interval_reference(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0
        assert hi == pytest.approx(0.2775327998628892, abs=1e-12)
        lo, hi = wilson_interval(5, 10)
        assert lo < 0.5 < hi

    def test_reproducible(self):
        a = volume_estimate(50_000, seed=7)
        b = volume_estimate(50_000, seed=7)
        c = volume_estimate(50_000, seed=7)
        assert a == b == c
        d = volume_estimate(50_000, seed=8)
        assert d.hits != a.hits

    def test_fraction_and_interval_sane(self):
        est = volume_estimate(40_000, seed=3)
        assert 0.0 < est.ci95_low < est.fraction < est.ci95_high < 1.0
        assert est.hits + est.degenerate <= est.samples
        assert est.fraction == est.hits / est.samples
        # most of the parameter cube satisfies the condition
        assert est.fraction > 0.85

    def test_interval_shrinks_like_sqrt_n(self):
        w1 = volume_estimate(20_000, seed=11)
        w2 = volume_estimate(80_000, seed=11)
        width1 = w1.ci95_high - w1.ci95_low
        width2 = w2.ci95_high - w2.ci95_low
        assert width2 / width1 == pytest.approx(0.5, rel=0.2)

    def test_csv_and_dict(self):
        est = volume_estimate(1000, seed=1)
        text = est.to_csv()
        assert text.startswith("samples,hits,fraction,ci_low,ci_high,seed\n")
        assert text.strip().split("\n")[1].startswith("1000,")
        d = est.to_dict()
        assert d["samples"] == 1000 and d["seed"] == 1

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            volume_estimate(0, seed=0)


class TestRenewal:
    def test_positive_drift_reaches_threshold_quickly(self):
        d = derive(FIG1)
        summary = renewal_experiment(d, threshold=100, runs=30, seed=13)
        assert summary.censored == 0
        assert statistics.median(summary.attempts) <= 5
        assert len(summary.attempts) == len(summary.total_steps) == 30
        assert all(t > 0 for t in summary.total_steps)

    def test_failing_rule_gets_censored(self):
        d = derive(ca_with_error("1000", 0.01))
        summary = renewal_experiment(d, threshold=50, runs=3, seed=17,
                                     attempt_cap=5, horizon=300)
        assert summary.censored == 3
        assert all(a == 5 for a in summary.attempts)

    def test_total_steps_are_the_simulated_steps(self, monkeypatch):
        # total_steps counts the steps of every island a run simulated, and
        # each island stops as soon as its gap reaches the threshold
        trajs = []

        def recording(*args, **kwargs):
            traj = walk.simulate_island(*args, **kwargs)
            trajs.append(traj)
            return traj

        monkeypatch.setattr(sweep_module, "simulate_island", recording)
        d = derive(FIG1)
        summary = renewal_experiment(d, threshold=20, runs=12, seed=31)
        assert sum(summary.attempts) == len(trajs)
        k = 0
        for attempts, total in zip(summary.attempts, summary.total_steps):
            run = trajs[k:k + attempts]
            k += attempts
            assert total == sum(len(t.i) - 1 for t in run)
            assert run[-1].j[-1] - run[-1].i[-1] >= 20
            for traj in run:
                assert ((traj.j - traj.i)[:-1] < 20).all()

    def test_determinism(self):
        d = derive(FIG1)
        a = renewal_experiment(d, threshold=30, runs=10, seed=23)
        b = renewal_experiment(d, threshold=30, runs=10, seed=23)
        assert a.attempts == b.attempts
        assert a.total_steps == b.total_steps
