import csv
import io
import itertools

import numpy as np
import pytest

from pca_ergo import (BState, ParamQuad, Side, asymptotic_increment_bound,
                      boundary_chain, ca_with_error, derive, mean_increment)
from pca_ergo.chain import BLOCK, AtomChain, AtomLaw, batch_means_stderr
from pca_ergo.params import tree_weights
from pca_ergo.walk import (creation_states, empirical_drift,
                           exact_simulated_drift, increment_law,
                           simulate_island, trajectory_to_csv)

from conftest import (EDGES_11, chain_block, law_probs, random_quads,
                      sample_increment, state_marginal, truncated_expectation)

FIG1 = ParamQuad(0.8, 0.3, 0.5, 0.6)
EDGE_LATTICE = np.array(list(itertools.product(np.linspace(0.0, 1.0, 7),
                                               repeat=4)))


def atoms(law):
    return [(base, to, mass) for base, slope, to, _, mass in law.moves
            if slope == 0]


def tails(law):
    return [(base, slope, to, mass) for base, slope, to, _, mass in law.moves
            if slope != 0]


def island_block_by_block(d, n0, horizon, seed, until_gap=None):
    """Reference island loop: one block at a time, the left boundary's
    (2, n) uniforms drawn before the right's, stepped in Python until
    death, the gap target or the horizon.  Lists of i, j, x, y."""
    rng = np.random.default_rng(seed)
    x, y = creation_states(d, rng)
    left, right = (AtomChain(increment_law(d, side, BState.ZERO),
                             increment_law(d, side, BState.ONE))
                   for side in (Side.LEFT, Side.RIGHT))
    i, j, xs, ys = [0], [n0], [x.value], [y.value]
    cx, cy = x.value, y.value
    done = until_gap is not None and n0 >= until_gap
    while len(i) - 1 < horizon and not done:
        n = min(BLOCK, horizon - (len(i) - 1))
        di, tx, cx = chain_block(left, rng, cx, n)
        dj, ty, cy = chain_block(right, rng, cy, n)
        for k in range(n):
            i.append(i[-1] + int(di[k]))
            j.append(j[-1] + int(dj[k]))
            xs.append(int(tx[k]))
            ys.append(int(ty[k]))
            gap = j[-1] - i[-1]
            if gap < 3 or (until_gap is not None and gap >= until_gap):
                done = True
                break
    return i, j, xs, ys


def tree_weight_drift(d, side):
    """Reference oracle: stationary law of the 3-state marginal chain of the
    laws from 0, 1 and Star by the tree weights, against the law means."""
    laws = [increment_law(d, side, s) for s in BState]
    rows = [[state_marginal(law)[t.value] for t in BState] for law in laws]
    w = tree_weights(np.array(rows))
    if sum(w) == 0.0:
        raise ValueError("several closed classes")
    return sum(wi * law.mean() for wi, law in zip(w, laws)) / sum(w)


class TestIncrementLaw:
    def test_fig1_right_zero_atoms(self):
        d = derive(FIG1)
        law = increment_law(d, Side.RIGHT, BState.ZERO)
        minus_one = sum(p for delta, _, p in atoms(law) if delta == -1)
        assert minus_one == pytest.approx(0.5, abs=1e-12)  # r_0_0
        zero = sum(p for delta, _, p in atoms(law) if delta == 0)
        assert zero == pytest.approx(0.25, abs=1e-12)      # (1-r_0_0) r
        # P(delta = k) = 0.25 * 0.5^k for k >= 1 via the tail
        w = sum(mass for _, _, _, mass in tails(law)) * (1.0 - law.ratio)
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
                    marg = state_marginal(increment_law(d, side, s))
                    row = chain.rows[s.value]
                    for b, idx in ((BState.ZERO, 0), (BState.ONE, 1),
                                   (BState.STAR, 2)):
                        assert marg[b.value] == pytest.approx(row[idx],
                                                              abs=1e-12)

    def test_bounded_adverse_increments(self):
        # right head never goes below -1; the left boundary never retreats
        # (its cell has both parents inside the island), so its max is 0
        for quad in random_quads(200, seed=9):
            d = derive(ParamQuad(*quad))
            right = increment_law(d, Side.RIGHT, BState.ZERO)
            assert min(delta for delta, _, _ in atoms(right)) == -1
            assert {t[:2] for t in tails(right)} <= {(1, 1)}
            left = increment_law(d, Side.LEFT, BState.ONE)
            assert max(delta for delta, _, _ in atoms(left)) == 0
            assert {t[:2] for t in tails(left)} <= {(-2, -1)}

    def test_star_substitutes_worse_state(self):
        d = derive(FIG1)  # r_0_0 = 0.5 > r_0_1 = 0.1: worst right state is 0
        star = increment_law(d, Side.RIGHT, BState.STAR)
        zero = increment_law(d, Side.RIGHT, BState.ZERO)
        assert star == zero
        # a move into Star lands in the class of the worst state 0
        assert {m[3] for m in star.moves if m[2] == BState.STAR.value} == {0}

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            increment_law(derive(ParamQuad(0.4, 0.4, 0.4, 0.4)),
                          Side.RIGHT, BState.ZERO)


class TestSampler:
    """The scalar `conftest.sample_increment` is the independent reference
    draw; the vectorised chain sampler is checked in tests/test_chain.py."""

    def test_degenerate_single_atom(self):
        law = AtomLaw(moves=((3, 0, BState.ONE.value, 1, 1.0),), ratio=0.5)
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
            counts[(delta, s.value)] = counts.get((delta, s.value), 0) + 1
            total += delta
        probs = law_probs(law, max_k=11)
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
            if traj.alive[-1]:
                survived += 1
        assert survived > runs // 2

    def test_death_below_threshold(self):
        d = derive(ca_with_error("1000", 0.01))  # strongly negative drift
        died = False
        for seed in range(50):
            traj = simulate_island(d, n0=3, horizon=10 ** 4, seed=seed)
            if not traj.alive[-1]:
                died = True
                assert traj.j[-1] - traj.i[-1] < 3
                assert traj.alive[:-1].all()
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
                reached = (traj.j - traj.i >= until if until is not None
                           else np.zeros(len(traj.i), bool))
                assert traj.alive[:-1].all()
                assert not reached[:-1].any()
                assert (not traj.alive[-1] or reached[-1]
                        or len(traj.i) - 1 == horizon)

    def test_until_gap_at_or_below_start_stops_at_once(self):
        traj = simulate_island(derive(FIG1), n0=8, horizon=100, seed=3,
                               until_gap=8)
        assert len(traj.i) == 1 and traj.j[0] - traj.i[0] == 8

    @pytest.mark.parametrize("quad, n0, until_gap, horizons", [
        # pass seams (one block, then two, then four) fall after steps
        # 1024, 3072, 7168 and 11264
        (FIG1, 50, None, (1, 1023, 1024, 1025, 3071, 3072, 3073, 7169,
                          11265)),
        # the gap grows ~1.84 a step: targets reached across the seams
        (FIG1, 50, 2000, (12000,)),
        (FIG1, 50, 5700, (12000,)),
        (FIG1, 50, 13300, (12000,)),
        # drift ~ -0.01: deaths at scattered times
        (ParamQuad(0.63, 0.82, 0.93, 0.16), 30, None, (12000,)),
    ])
    def test_passes_match_block_by_block_loop(self, quad, n0, until_gap,
                                              horizons):
        d = derive(quad)
        lengths = set()
        for horizon in horizons:
            for seed in range(6):
                traj = simulate_island(d, n0, horizon, seed, until_gap)
                want = island_block_by_block(d, n0, horizon, seed, until_gap)
                got = [a.tolist() for a in (traj.i, traj.j, traj.x, traj.y)]
                assert got == list(want), (horizon, seed)
                lengths.add(len(traj.i) - 1)
        assert max(lengths) > BLOCK

    def test_positions_leaving_int64_are_an_error(self):
        # at r ~ 1e-15 a step moves ~1/r cells, so the gap passes 2**63
        # within 10^4 steps but not within 2000
        lattice = (derive(ParamQuad(*q))
                   for q in itertools.product(EDGES_11, repeat=4))
        tiny = [d for d in lattice if 0.0 < d.r < 1e-14]
        assert len(tiny) == 28
        for seed, d in enumerate(tiny):
            with pytest.raises(ValueError, match="int64 range at step"):
                simulate_island(d, 3, 10 ** 4, seed)
            traj = simulate_island(d, 3, 2000, seed)
            got = [a.tolist() for a in (traj.i, traj.j, traj.x, traj.y)]
            assert got == list(island_block_by_block(d, 3, 2000, seed))
        # the error names the first state outside int64, as the Python-int
        # reference loop finds it
        for seed, d in enumerate(tiny[:4]):
            i, j, _, _ = island_block_by_block(d, 3, 10 ** 4, seed)
            out = next(t for t, (a, b) in enumerate(zip(i, j))
                       if not all(-2 ** 63 <= v < 2 ** 63
                                  for v in (a, b, b - a)))
            with pytest.raises(ValueError, match=f"at step {out}$"):
                simulate_island(d, 3, 10 ** 4, seed)

    def test_start_gap_outside_int64_is_an_error(self):
        # rejected at the start, whatever the horizon, not as a wrapped or
        # uint64 gap nor as an overflow at step 1
        d = derive(FIG1)
        for n0, horizon in ((10 ** 20, 0), (10 ** 19, 0), (10 ** 19, 10 ** 4),
                            (2 ** 63, 0)):
            with pytest.raises(ValueError, match="initial gap"):
                simulate_island(d, n0, horizon, seed=0)
        traj = simulate_island(d, 2 ** 63 - 1, 0, seed=0)
        assert traj.j.dtype == np.int64 and traj.j.tolist() == [2 ** 63 - 1]

    def test_seed_determinism(self):
        d = derive(FIG1)
        a = simulate_island(d, n0=5, horizon=200, seed=99)
        b = simulate_island(d, n0=5, horizon=200, seed=99)
        for u, v in zip((a.i, a.j, a.x, a.y), (b.i, b.j, b.x, b.y)):
            assert u.dtype == v.dtype and np.array_equal(u, v)

    def test_rejects_small_gap(self):
        with pytest.raises(ValueError):
            simulate_island(derive(FIG1), n0=2, horizon=10, seed=0)

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            simulate_island(derive(FIG1), n0=5, horizon=-1, seed=0)
        traj = simulate_island(derive(FIG1), n0=5, horizon=0, seed=0)
        assert traj.i.tolist() == [0] and traj.j.tolist() == [5]

    def test_rows_are_the_arrays(self):
        # the row view that perfbench's tracer reads
        traj = simulate_island(derive(FIG1), n0=4, horizon=300, seed=2)
        rows = list(traj)
        assert len(rows) == len(traj.i) and traj[-1] == rows[-1]
        assert [(s.t, s.i, s.j, s.x.value, s.y.value) for s in rows] == \
            list(zip(range(len(traj.i)), traj.i.tolist(), traj.j.tolist(),
                     traj.x.tolist(), traj.y.tolist()))

    def test_csv_export(self):
        d = derive(FIG1)
        traj = simulate_island(d, n0=4, horizon=50, seed=1)
        lines = trajectory_to_csv(traj).splitlines()
        assert lines[0] == "t,i,j,x,y,alive"
        assert len(lines) == len(traj.i) + 1
        first = lines[1].split(",")
        assert first[:3] == ["0", "0", "4"]
        assert first[3] in "01*" and first[4] in "01*"

    def test_csv_matches_per_row_writer(self):
        # reference: one row at a time, each state through its BState
        def per_row(traj):
            buf = io.StringIO()
            w = csv.writer(buf)
            w.writerow(["t", "i", "j", "x", "y", "alive"])
            for t in range(len(traj.i)):
                i, j = int(traj.i[t]), int(traj.j[t])
                w.writerow([t, i, j, str(BState(int(traj.x[t]))),
                            str(BState(int(traj.y[t]))),
                            "true" if j - i >= 3 else "false"])
            return buf.getvalue()

        died = survived = reached = 0
        stars = set()
        for quad, n0, horizon, until in ((FIG1, 10, 3000, None),
                                         (FIG1, 3, 600, 40),
                                         (FIG1, 5, 0, None),
                                         (ca_with_error("1000", 0.01), 3,
                                          2000, None)):
            d = derive(quad)
            for seed in range(4):
                traj = simulate_island(d, n0, horizon, seed, until)
                assert trajectory_to_csv(traj) == per_row(traj)
                gap = int(traj.j[-1] - traj.i[-1])
                died += gap < 3
                reached += until is not None and gap >= until
                survived += len(traj.i) == horizon + 1 and gap >= 3
                stars |= {c for c in "xy"
                          if (getattr(traj, c) == BState.STAR.value).any()}
        assert died and survived and reached and stars == {"x", "y"}


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
        # right drift >= its bound and left drift <= its bound, wherever
        # both are defined: r > 0, a unique stationary law and no
        # degenerate gamma cell
        count = 0
        for quad in np.concatenate((EDGE_LATTICE, random_quads(20000,
                                                               seed=29))):
            d = derive(ParamQuad(*quad))
            if d.r <= 0.0:
                continue
            for side, sign in ((Side.RIGHT, 1.0), (Side.LEFT, -1.0)):
                try:
                    exact = exact_simulated_drift(d, side)
                    bound = asymptotic_increment_bound(d, side)
                except ValueError:
                    continue
                assert sign * (exact - bound) >= -1e-10, (quad, side)
                count += 1
        assert count > 40000
        # and one Monte Carlo spot check
        d = derive(FIG1)
        est = empirical_drift(d, Side.RIGHT, steps=5 * 10 ** 4,
                              burn_in=10 ** 3, seed=31)
        assert est.mean >= asymptotic_increment_bound(d, Side.RIGHT) \
            - 3 * est.stderr

    def test_two_class_oracle_matches_tree_weights(self):
        # the two-class closed form against the stationary law of the
        # 3-state marginal chain; both refuse exactly the same quads
        answered = 0
        for quad in np.concatenate((EDGE_LATTICE, random_quads(5000,
                                                               seed=37))):
            d = derive(ParamQuad(*quad))
            for side in Side:
                try:
                    want = tree_weight_drift(d, side)
                except ValueError:
                    with pytest.raises(ValueError):
                        exact_simulated_drift(d, side)
                    continue
                got = exact_simulated_drift(d, side)
                assert abs(got - want) <= 1e-15 * max(1.0, abs(want)), \
                    (quad, side)
                answered += 1
        assert answered > 4740 + 2 * 4900

    def test_island_gap_grows_at_the_exact_drift_difference(self):
        # the two boundaries are stepped independently, so past burn-in
        # the gap j - i moves by exact(RIGHT) - exact(LEFT) a step on
        # average
        d = derive(FIG1)
        want = (exact_simulated_drift(d, Side.RIGHT)
                - exact_simulated_drift(d, Side.LEFT))
        horizon, burn_in = 10 ** 5, 10 ** 3
        for seed in range(5):
            traj = simulate_island(d, n0=50, horizon=horizon, seed=seed)
            assert len(traj.i) == horizon + 1
            incr = np.diff(traj.j - traj.i)[burn_in:].astype(float)
            se = batch_means_stderr(incr)
            assert abs(incr.mean() - want) <= 4 * se, seed

    def test_exact_drift_needs_a_unique_stationary_law(self):
        # rule 0001 without errors: 0 and Star are both closed
        d = derive(ca_with_error("0001", 0.0))
        with pytest.raises(ValueError):
            exact_simulated_drift(d, Side.RIGHT)

    def test_batch_means_is_numpy_std_of_batch_means(self):
        rng = np.random.default_rng(8)
        series = [rng.standard_normal(n) * 3.0 + 0.7
                  for n in (100, 157, 40000)]
        # integer increments, as the walks make
        series += [rng.integers(-3, 9, n).astype(float) for n in (6000, 13500)]
        for values in series:
            m = len(values) // 100
            batches = values[:100 * m].reshape(100, m).mean(axis=1)
            assert batch_means_stderr(values) == np.std(batches, ddof=1) / 10

    def test_negative_steps_or_burn_in_rejected(self):
        d = derive(FIG1)
        for steps, burn_in in ((1000, -5), (-5, 1000), (-1, 0)):
            with pytest.raises(ValueError):
                empirical_drift(d, Side.RIGHT, steps=steps, burn_in=burn_in,
                                seed=0)

    def test_batch_means_requires_enough_samples(self):
        with pytest.raises(ValueError):
            batch_means_stderr(np.arange(10.0))
