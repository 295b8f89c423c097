import numpy as np
import pytest
from hypothesis import assume, given, settings

from pca_ergo import (BState, ParamQuad, Side, asymptotic_increment_bound,
                      boundary_chain, ca_with_error, derive, mean_increment)
from pca_ergo.walk import (DriftEstimate, IncrementLaw, batch_means_stderr,
                           empirical_drift, exact_simulated_drift,
                           increment_law, marginal_chain, sample_increment,
                           simulate_island, trajectory_to_csv)

from conftest import positive_quads, random_quads

FIG1 = ParamQuad(0.8, 0.3, 0.5, 0.6)


def truncated_expectation(law, mass_tol=1e-12):
    """Independent oracle: enumerate the law, cutting the tail when the
    remaining geometric mass drops below mass_tol."""
    total = sum(delta * p for delta, _, p in law.head)
    w = sum(law.tail_weights.values())
    if w == 0.0:
        return total
    k = 0
    remaining = w / (1.0 - law.ratio)
    while remaining > mass_tol:
        pk = w * law.ratio ** k
        total += (law.tail_start + law.tail_step * k) * pk
        remaining -= pk
        k += 1
    return total


class TestIncrementLaw:
    def test_fig1_right_zero_atoms(self):
        d = derive(FIG1)
        law = increment_law(d, Side.RIGHT, BState.ZERO)
        minus_one = sum(p for delta, _, p in law.head if delta == -1)
        assert minus_one == pytest.approx(0.5, abs=1e-12)  # r_0_0
        zero = sum(p for delta, _, p in law.head if delta == 0)
        assert zero == pytest.approx(0.25, abs=1e-12)      # (1-r_0_0) r
        # P(delta = k) = 0.25 * 0.5^k for k >= 1 via the tail
        w = sum(law.tail_weights.values())
        for k in range(1, 6):
            assert w * law.ratio ** (k - 1) == pytest.approx(
                0.5 * 0.5 ** k * 0.5, abs=1e-12)

    def test_total_mass_randomised(self):
        for quad in random_quads(2000, seed=3):
            d = derive(ParamQuad(*quad))
            for side in Side:
                for s in BState:
                    law = increment_law(d, side, s)
                    assert abs(law.total_mass() - 1.0) <= 1e-12
                    assert law.ratio == pytest.approx(1.0 - d.r, abs=1e-15)

    def test_mean_matches_analytic_and_truncated_series(self):
        for quad in random_quads(300, seed=5):
            d = derive(ParamQuad(*quad))
            for side in Side:
                for s in (BState.ZERO, BState.ONE):
                    law = increment_law(d, side, s)
                    analytic = mean_increment(d, side, s)
                    assert law.mean() == pytest.approx(analytic, abs=1e-9)
                    assert truncated_expectation(law) == pytest.approx(
                        analytic, abs=1e-9)

    def test_marginal_reproduces_chain_rows(self):
        for quad in random_quads(500, seed=7):
            d = derive(ParamQuad(*quad))
            for side in Side:
                chain = boundary_chain(d, side)
                for s in (BState.ZERO, BState.ONE):
                    marg = increment_law(d, side, s).state_marginal()
                    row = chain.rows[s.value]
                    for b, idx in ((BState.ZERO, 0), (BState.ONE, 1),
                                   (BState.STAR, 2)):
                        assert marg[b] == pytest.approx(row[idx], abs=1e-12)

    def test_bounded_adverse_increments(self):
        # right head never goes below -1; the left boundary never retreats
        # (its cell has both parents inside the island), so its max is 0
        for quad in random_quads(200, seed=9):
            d = derive(ParamQuad(*quad))
            right = increment_law(d, Side.RIGHT, BState.ZERO)
            assert min(delta for delta, _, _ in right.head) == -1
            assert right.tail_step == 1 and right.tail_start == 1
            left = increment_law(d, Side.LEFT, BState.ONE)
            assert max(delta for delta, _, _ in left.head) == 0
            assert left.tail_step == -1 and left.tail_start == -2

    def test_star_substitutes_worse_state(self):
        d = derive(FIG1)  # r_0_0 = 0.5 > r_0_1 = 0.1: worst right state is 0
        star = increment_law(d, Side.RIGHT, BState.STAR)
        zero = increment_law(d, Side.RIGHT, BState.ZERO)
        assert star.head == zero.head
        assert star.from_state is BState.STAR

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            increment_law(derive(ParamQuad(0.4, 0.4, 0.4, 0.4)),
                          Side.RIGHT, BState.ZERO)


class TestSampler:
    """The scalar `sample_increment` is the independent reference draw; the
    vectorised chain sampler is checked in tests/test_chain.py."""

    def test_degenerate_single_atom(self):
        law = IncrementLaw(side=Side.RIGHT, from_state=BState.ZERO,
                           head=((3, BState.ONE, 1.0),),
                           tail_start=1, tail_step=1, ratio=0.5,
                           tail_weights={s: 0.0 for s in BState})
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert sample_increment(law, rng) == (3, BState.ONE)

    def test_empirical_frequencies_within_multinomial_bands(self):
        d = derive(FIG1)
        law = increment_law(d, Side.RIGHT, BState.ZERO)
        n = 10 ** 6
        rng = np.random.default_rng(42)
        counts = {}
        total = 0.0
        for _ in range(n):
            delta, s = sample_increment(law, rng)
            counts[(delta, s)] = counts.get((delta, s), 0) + 1
            total += delta
        probs = {(delta, s): p for delta, s, p in law.head}
        w = {s: v for s, v in law.tail_weights.items() if v > 0.0}
        for k in range(12):
            for s, v in w.items():
                probs[(law.tail_start + law.tail_step * k, s)] = \
                    v * law.ratio ** k
        for key, p in probs.items():
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(counts.get(key, 0) / n - p) <= 4 * sigma + 1e-9, key
        # empirical mean within 3 naive standard errors of the law mean
        mean = total / n
        var = sum(c * (k[0] - mean) ** 2 for k, c in counts.items()) / n
        assert abs(mean - law.mean()) <= 3 * np.sqrt(var / n)

    def test_deterministic_under_seed(self):
        d = derive(FIG1)
        law = increment_law(d, Side.LEFT, BState.ZERO)
        a = [sample_increment(law, np.random.default_rng(7)) for _ in range(1)]
        b = [sample_increment(law, np.random.default_rng(7)) for _ in range(1)]
        assert a == b


class TestIsland:
    def test_positive_drift_survival_majority(self):
        d = derive(FIG1)
        survived = 0
        runs = 300
        for seed in range(runs):
            traj = simulate_island(d, n0=10, horizon=2000, seed=seed)
            if traj[-1].alive:
                survived += 1
        assert survived > runs // 2

    def test_death_below_threshold(self):
        d = derive(ca_with_error("1000", 0.01))  # strongly negative drift
        died = False
        for seed in range(50):
            traj = simulate_island(d, n0=3, horizon=10 ** 4, seed=seed)
            if not traj[-1].alive:
                died = True
                assert traj[-1].j - traj[-1].i < 3
                assert all(s.alive for s in traj[:-1])
        assert died

    def test_stops_at_first_death_or_first_gap_reached(self):
        # horizons past chain.BLOCK make islands cross block boundaries
        other = ParamQuad(0.7, 0.2, 0.6, 0.3)
        for quad, n0, until, horizon in ((FIG1, 3, None, 2500),
                                         (FIG1, 3, 20, 600),
                                         (FIG1, 10, 12, 600),
                                         (other, 4, None, 2500),
                                         (other, 4, 9, 600)):
            d = derive(quad)
            for seed in range(40):
                traj = simulate_island(d, n0=n0, horizon=horizon, seed=seed,
                                       until_gap=until)
                reached = [until is not None and s.j - s.i >= until
                           for s in traj]
                assert all(s.alive for s in traj[:-1])
                assert not any(reached[:-1])
                last = traj[-1]
                assert not last.alive or reached[-1] or last.t == horizon

    def test_until_gap_at_or_below_start_stops_at_once(self):
        traj = simulate_island(derive(FIG1), n0=8, horizon=100, seed=3,
                               until_gap=8)
        assert len(traj) == 1 and traj[0].j - traj[0].i == 8

    def test_seed_determinism(self):
        d = derive(FIG1)
        a = simulate_island(d, n0=5, horizon=200, seed=99)
        b = simulate_island(d, n0=5, horizon=200, seed=99)
        assert [(s.t, s.i, s.j, s.x, s.y) for s in a] == \
               [(s.t, s.i, s.j, s.x, s.y) for s in b]

    def test_rejects_small_gap(self):
        with pytest.raises(ValueError):
            simulate_island(derive(FIG1), n0=2, horizon=10, seed=0)

    def test_csv_export(self, tmp_path):
        d = derive(FIG1)
        traj = simulate_island(d, n0=4, horizon=50, seed=1)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,i,j,x,y,alive"
        assert len(lines) == len(traj) + 1
        first = lines[1].split(",")
        assert first[:3] == ["0", "0", "4"]
        assert first[3] in "01*" and first[4] in "01*"


class TestEmpiricalDrift:
    def test_ca0001_matches_exact_chain_mean(self):
        d = derive(ca_with_error("0001", 0.1))
        est = empirical_drift(d, Side.RIGHT, steps=10 ** 5, burn_in=10 ** 3,
                              seed=17)
        exact = exact_simulated_drift(d, Side.RIGHT)
        assert abs(est.mean - exact) <= 3 * est.stderr

    def test_symmetric_parameter_left_right_relation(self):
        # for p01 = p10 the sides share a state chain; the per-state means
        # differ by exactly 1, so E[left] = -E[right] - 1
        d = derive(ParamQuad(0.7, 0.4, 0.4, 0.55))
        r = empirical_drift(d, Side.RIGHT, steps=10 ** 5, burn_in=10 ** 3,
                            seed=19)
        l = empirical_drift(d, Side.LEFT, steps=10 ** 5, burn_in=10 ** 3,
                            seed=20)
        joint_se = np.hypot(r.stderr, l.stderr)
        assert abs(l.mean - (-r.mean - 1.0)) <= 3 * joint_se
        assert exact_simulated_drift(d, Side.LEFT) == pytest.approx(
            -exact_simulated_drift(d, Side.RIGHT) - 1.0, abs=1e-12)

    def test_bound_is_a_lower_bound_on_simulated_drift(self):
        count = 0
        for quad in random_quads(60, seed=29):
            d = derive(ParamQuad(*quad))
            if d.r <= 0.0:
                continue
            bound = asymptotic_increment_bound(d, Side.RIGHT)
            exact = exact_simulated_drift(d, Side.RIGHT)
            assert exact >= bound - 1e-10
            count += 1
        assert count > 50
        # and one Monte Carlo spot check
        d = derive(FIG1)
        est = empirical_drift(d, Side.RIGHT, steps=5 * 10 ** 4,
                              burn_in=10 ** 3, seed=31)
        assert est.mean >= asymptotic_increment_bound(d, Side.RIGHT) \
            - 3 * est.stderr

    def test_exact_drift_needs_a_unique_stationary_law(self):
        # rule 0001 without errors: 0 and Star are both closed
        d = derive(ca_with_error("0001", 0.0))
        with pytest.raises(ValueError):
            exact_simulated_drift(d, Side.RIGHT)

    def test_batch_means_requires_enough_samples(self):
        with pytest.raises(ValueError):
            batch_means_stderr(np.arange(10.0))
