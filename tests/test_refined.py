import numpy as np
import pytest

from pca_ergo import ca_with_error, derive, flip_conjugate
from pca_ergo.envelope import run_to_decorrelation
from pca_ergo.refined import (REACHABLE, S1, exact_refined_drift, mean_00,
                              mean_s1, refined_drift_bound, refined_law_00,
                              refined_law_s1, simulate_refined, sweep_to_csv)

from conftest import state_marginal, truncated_expectation

EPS_GRID = [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49]


def atoms(law):
    """Head atoms as {(doubled delta, pair): prob}."""
    return {(base, REACHABLE[to]): mass
            for base, slope, to, _, mass in law.moves if slope == 0}


class TestLaws:
    def test_masses_sum_to_one(self):
        for eps in EPS_GRID:
            for law in (refined_law_s1(eps), refined_law_00(eps)):
                assert law.total_mass() == pytest.approx(1.0, abs=1e-12)
                assert sum(state_marginal(law).values()) == pytest.approx(
                    1.0, abs=1e-12)
                assert law.ratio == pytest.approx(2 * eps, abs=1e-15)

    def test_specific_atoms(self):
        head = atoms(refined_law_s1(0.1))
        assert head[(-1, "00")] == pytest.approx(0.9 * 0.9 * 0.8, abs=1e-15)
        assert head[(-2, "10")] == pytest.approx(0.1 * 0.9 * 0.8, abs=1e-15)
        head = atoms(refined_law_00(0.1))
        assert head[(-3, "*0")] == pytest.approx(0.8 * 0.1 * 0.8, abs=1e-15)
        assert head[(-1, "*1")] == pytest.approx(0.8 * 0.9 * 0.8, abs=1e-15)

    def test_only_reachable_pairs_appear(self):
        # class 0 is S1, class 1 is {(0,0), (*,0)}
        for eps in (0.05, 0.3):
            for law in (refined_law_s1(eps), refined_law_00(eps)):
                for _, slope, to, to_class, _ in law.moves:
                    assert 0 <= to < len(REACHABLE)
                    assert to_class == (REACHABLE[to] not in S1)
                    assert slope in (0, 2)

    def test_rejects_eps_outside_open_interval(self):
        for eps in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError):
                refined_law_s1(eps)
            with pytest.raises(ValueError):
                mean_00(eps)


class TestClosedForms:
    def test_reference_values(self):
        assert mean_s1(0.1) == pytest.approx(-0.205, abs=1e-12)
        assert mean_00(0.1) == pytest.approx(-0.417, abs=1e-12)
        assert refined_drift_bound(0.25) == pytest.approx(1.0 + 3.0 / 8.0,
                                                          abs=1e-12)

    def test_means_match_law_expectations(self):
        for eps in EPS_GRID:
            # laws are in doubled displacements
            assert refined_law_s1(eps).mean() / 2 == pytest.approx(
                mean_s1(eps), abs=1e-9)
            assert refined_law_00(eps).mean() / 2 == pytest.approx(
                mean_00(eps), abs=1e-9)
            assert truncated_expectation(refined_law_s1(eps)) / 2 == \
                pytest.approx(mean_s1(eps), abs=1e-9)
            assert truncated_expectation(refined_law_00(eps)) / 2 == \
                pytest.approx(mean_00(eps), abs=1e-9)

    def test_bound_identity_and_sign(self):
        for eps in EPS_GRID:
            b = refined_drift_bound(eps)
            assert b == pytest.approx(2.0 * (mean_00(eps) + 0.5), abs=1e-12)
            assert b > 0.0
            assert mean_00(eps) <= mean_s1(eps) + 1e-12

    def test_conjugate_rule_shares_bound(self):
        for eps in EPS_GRID:
            conj = flip_conjugate(ca_with_error("1000", eps))
            expected = ca_with_error("1110", eps)
            assert np.allclose(conj.as_tuple(), expected.as_tuple(),
                               atol=1e-15)


class TestSimulation:
    def test_determinism(self):
        a = simulate_refined(0.2, steps=10 ** 4, burn_in=100, seed=5)
        b = simulate_refined(0.2, steps=10 ** 4, burn_in=100, seed=5)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    def test_rejects_negative_steps_or_burn_in(self):
        for steps, burn_in in ((1000, -5), (-5, 1000)):
            with pytest.raises(ValueError):
                simulate_refined(0.2, steps=steps, burn_in=burn_in, seed=0)

    def test_matches_exact_pair_chain(self):
        for eps, seed in ((0.1, 1), (0.2, 2), (0.3, 3)):
            est = simulate_refined(eps, steps=2 * 10 ** 5, burn_in=10 ** 3,
                                   seed=seed)
            assert abs(est.mean - exact_refined_drift(eps)) <= 3 * est.stderr

    def test_stationary_mean_dominates_worst_state_mean(self):
        for eps in (0.1, 0.3):
            assert exact_refined_drift(eps) >= mean_00(eps) - 1e-12

    def test_sweep_csv(self):
        text = sweep_to_csv([0.1, 0.2], steps=2000, burn_in=100, seed=0)
        lines = text.splitlines()
        assert text.count("\r\n") == len(lines)  # csv-module line ends
        assert lines[0] == \
            "eps,mean_s1,mean_00,drift_bound,empirical_drift,stderr"
        assert len(lines) == 3
        row = lines[1].split(",")
        assert float(row[0]) == 0.1
        assert float(row[1]) == pytest.approx(mean_s1(0.1), abs=1e-15)
        assert float(row[3]) == pytest.approx(refined_drift_bound(0.1),
                                              abs=1e-15)


class TestConjugateDynamics:
    def test_extinction_times_agree_in_distribution(self):
        # rules 1000 and 1110 are bit-flip conjugates, so their envelope
        # extinction times are identically distributed
        scipy_stats = pytest.importorskip("scipy.stats")
        eps = 0.2
        hits = {}
        for code in ("1000", "1110"):
            d = derive(ca_with_error(code, eps))
            times = []
            for seed in range(80):
                hit, _ = run_to_decorrelation(d, n=30, max_steps=5000,
                                              seed=seed)
                assert hit is not None
                times.append(hit)
            hits[code] = times
        res = scipy_stats.ks_2samp(hits["1000"], hits["1110"])
        assert res.pvalue > 0.01
