import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from pca_ergo import (BState, DegenerateDenominatorError, ParamQuad, Side,
                      asymptotic_increment_bound, boundary_chain,
                      ca_with_error, condition_check, derive, flip_conjugate,
                      gamma_table, mean_increment, stationary_solve)
from pca_ergo.params import (BoundaryChain, _CHUNK_ROWS,
                             _holds_chunk, condition_holds_batch,
                             favourable_state)
from pca_ergo.sweep import ALL_CODES

from conftest import (EDGES_11, exact, positive_quads, prob_one, quads,
                      random_quads)

FIG1 = ParamQuad(0.8, 0.3, 0.5, 0.6)
EPS_GRID = [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5]


class TestDerive:
    def test_fig1_values(self):
        d = derive(FIG1)
        assert d.p == pytest.approx(0.3, abs=1e-15)
        assert d.q == pytest.approx(0.2, abs=1e-15)
        assert d.r == pytest.approx(0.5, abs=1e-15)
        assert d.rr[0][0] == pytest.approx(0.5, abs=1e-15)
        assert d.rr[0][1] == pytest.approx(0.1, abs=1e-15)
        assert d.rr[1][0] == pytest.approx(0.3, abs=1e-15)
        assert d.rr[1][1] == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("c", [0.0, 0.2, 0.5, 1.0])
    def test_constant_quadruplet_has_no_remainder(self, c):
        d = derive(ParamQuad(c, c, c, c))
        assert d.p == c and d.q == 1 - c and d.r == 0.0
        for i in (0, 1):
            for x in (0, 1):
                assert d.rr[i][x] == 0.0

    def test_ca0011_remainders(self):
        eps = 0.1
        d = derive(ca_with_error("0011", eps))
        assert d.rr[0][0] == 0.0 and d.rr[0][1] == 0.0
        assert d.r == pytest.approx(1 - 2 * eps, abs=1e-15)
        assert d.rr[1][0] == pytest.approx(1 - 2 * eps, abs=1e-15)
        assert d.rr[1][1] == pytest.approx(1 - 2 * eps, abs=1e-15)

    @given(quads)
    @settings(max_examples=200)
    def test_partition_identities(self, q):
        d = derive(q)
        assert abs(d.p + d.q + d.r - 1.0) <= 1e-12
        for i in (0, 1):
            for x in (0, 1):
                assert abs(d.pp[i][x] + d.qq[i][x] + d.rr[i][x] - 1.0) <= 1e-12
                assert abs(d.QQ[i][x] + d.PP[i][x] + d.RR[x] - 1.0) <= 1e-12

    @given(quads)
    @settings(max_examples=100)
    def test_zero_r_zeroes_all_remainders(self, q):
        d = derive(q)
        if d.r == 0.0:
            assert all(d.rr[i][x] == 0.0 for i in (0, 1) for x in (0, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ParamQuad(1.2, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ParamQuad(-0.1, 0.5, 0.5, 0.5)


class TestCaWithError:
    def test_rule_0001(self):
        assert ca_with_error("0001", 0.1).as_tuple() == (0.1, 0.1, 0.1, 0.9)

    def test_zero_error_is_deterministic(self):
        assert ca_with_error("1000", 0.0).as_tuple() == (1.0, 0.0, 0.0, 0.0)

    def test_rule_1110(self):
        assert ca_with_error("1110", 0.2).as_tuple() == (0.8, 0.8, 0.8, 0.2)

    def test_rejects_large_eps(self):
        with pytest.raises(ValueError):
            ca_with_error("0001", 0.6)

    def test_rejects_bad_code(self):
        with pytest.raises(ValueError):
            ca_with_error("00112", 0.1)


class TestFlipConjugate:
    def test_maps_1000_to_1110(self):
        assert flip_conjugate(ParamQuad(1, 0, 0, 0)).as_tuple() == (1, 1, 1, 0)

    def test_conjugated_dynamics_on_all_parent_words(self):
        # flipping a configuration, stepping with the conjugate parameter,
        # and flipping back reproduces the original one-step law exactly
        q = FIG1
        fq = flip_conjugate(q)
        for a, b in itertools.product((0, 1), repeat=2):
            p_orig = prob_one(q, a, b)
            p_flip_back = 1.0 - prob_one(fq, 1 - a, 1 - b)
            assert p_orig == pytest.approx(p_flip_back, abs=1e-15)

    @given(quads)
    @settings(max_examples=100)
    def test_involution(self, q):
        assert flip_conjugate(flip_conjugate(q)).as_tuple() == pytest.approx(
            q.as_tuple(), abs=1e-15)


class TestBoundaryChain:
    def test_fig1_right_zero_row(self):
        rows = boundary_chain(derive(FIG1), Side.RIGHT).rows
        assert rows[0] == pytest.approx([0.30, 0.55, 0.15], abs=1e-12)

    def test_zero_remainders_zero_star_column(self):
        d = derive(ca_with_error("0000", 0.3))  # r = 0, all remainders 0
        rows = boundary_chain(d, Side.RIGHT).rows
        assert rows[0][2] == 0.0 and rows[1][2] == 0.0

    def test_exact_rows_sum_to_exactly_one(self):
        rows = [[Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)],
                [Fraction(1), Fraction(0), Fraction(0)],
                [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]]
        BoundaryChain(rows=np.array(rows, dtype=object))
        rows[2][2] += Fraction(1, 10 ** 15)
        with pytest.raises(ValueError, match="do not sum to 1"):
            BoundaryChain(rows=np.array(rows, dtype=object))

    def test_rows_sum_to_one_randomised(self):
        for quad in random_quads(2000, seed=11):
            d = derive(ParamQuad(*quad))
            for side in Side:
                sums = boundary_chain(d, side).rows.sum(axis=1)
                assert np.abs(sums - 1.0).max() <= 1e-12


class TestGammaTable:
    @pytest.mark.parametrize("eps", [e for e in EPS_GRID if e > 0])
    def test_ca0001_gamma_half(self, eps):
        d = derive(ca_with_error("0001", eps))
        assert gamma_table(d, Side.RIGHT) == pytest.approx(0.5, abs=1e-12)
        assert gamma_table(d, Side.LEFT) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("eps", [e for e in EPS_GRID if e > 0])
    def test_ca0010_gammas(self, eps):
        d = derive(ca_with_error("0010", eps))
        expected0 = 1 - 2 * eps * (1 - eps)
        assert gamma_table(d, Side.RIGHT) == pytest.approx(expected0, abs=1e-12)
        assert gamma_table(d, Side.LEFT) == pytest.approx(
            2 * eps * (1 - eps), abs=1e-12)

    def test_matches_stationary_solve(self):
        for quad in random_quads(500, seed=23):
            d = derive(ParamQuad(*quad))
            for side in Side:
                g = gamma_table(d, side)
                nu = stationary_solve(boundary_chain(d, side))
                assert g == pytest.approx(nu[favourable_state(d, side)],
                                          abs=1e-10)

    # The three cell names the 11^4 edge lattice reaches; the second is a
    # state-0 cell read at the exchanged arguments.
    @pytest.mark.parametrize("quad, cell", [
        ((0.0, 0.0, 0.0, 1.0), "w0/Q1<=Q0"),
        ((0.0, 1e-15, 1.0, 1.0), "w1/P0<=P1"),
        ((1.0, 0.0, 1.0, 0.0), "w0/Q1>=Q0,P0>=P1"),
    ], ids=["w0_cell1", "w1_cell1", "w0_cell3"])
    def test_degenerate_denominator_flagged(self, quad, cell):
        with pytest.raises(DegenerateDenominatorError) as exc:
            gamma_table(derive(ParamQuad(*quad)), Side.RIGHT)
        assert exc.value.cell == cell
        holds, degen = condition_holds_batch(np.array([quad]))
        assert degen[0] and not holds[0]


class TestStationarySolve:
    def test_star_absorbing(self):
        rows = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        nu = stationary_solve(BoundaryChain(rows=rows))
        assert nu[BState.STAR] == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_chain(self):
        rows = np.array([[0.2, 0.5, 0.3]] * 3)
        nu = stationary_solve(BoundaryChain(rows=rows))
        assert nu[BState.ZERO] == pytest.approx(0.2, abs=1e-12)
        assert nu[BState.ONE] == pytest.approx(0.5, abs=1e-12)
        assert nu[BState.STAR] == pytest.approx(0.3, abs=1e-12)

    def test_linear_solve_agrees_with_power_iteration(self):
        chain = boundary_chain(derive(FIG1), Side.RIGHT)
        nu = stationary_solve(chain)
        # independent power iteration from the Star point mass
        v = np.array([0.0, 0.0, 1.0])
        for _ in range(10 ** 5):
            nxt = v @ chain.rows
            if np.abs(nxt - v).max() < 1e-14:
                break
            v = nxt
        for s, idx in ((BState.ZERO, 0), (BState.ONE, 1), (BState.STAR, 2)):
            assert nu[s] == pytest.approx(v[idx], abs=1e-10)
        assert abs(sum(nu.values()) - 1.0) <= 1e-12


class TestMeanIncrement:
    def test_fig1_right_means(self):
        d = derive(FIG1)
        assert mean_increment(d, Side.RIGHT, BState.ZERO) == pytest.approx(0.0, abs=1e-12)
        assert mean_increment(d, Side.RIGHT, BState.ONE) == pytest.approx(0.8, abs=1e-12)

    def test_star_is_conservative_extremum(self):
        d = derive(FIG1)
        r0 = mean_increment(d, Side.RIGHT, BState.ZERO)
        r1 = mean_increment(d, Side.RIGHT, BState.ONE)
        assert mean_increment(d, Side.RIGHT, BState.STAR) == min(r0, r1)
        l0 = mean_increment(d, Side.LEFT, BState.ZERO)
        l1 = mean_increment(d, Side.LEFT, BState.ONE)
        assert mean_increment(d, Side.LEFT, BState.STAR) == max(l0, l1)

    def test_rejects_r_zero(self):
        d = derive(ParamQuad(0.4, 0.4, 0.4, 0.4))
        with pytest.raises(ValueError, match="requires r > 0"):
            mean_increment(d, Side.RIGHT, BState.ZERO)
        with pytest.raises(ValueError, match="requires r > 0"):
            asymptotic_increment_bound(d, Side.LEFT)


class TestAsymptoticBound:
    def test_ca0001_right_bound(self):
        d = derive(ca_with_error("0001", 0.1))
        assert asymptotic_increment_bound(d, Side.RIGHT) == pytest.approx(
            -0.25, abs=1e-12)

    def test_equal_remainders_make_gamma_irrelevant(self):
        # p01 = p10 with matching rows gives r_0_0 = r_0_1
        d = derive(ParamQuad(0.9, 0.4, 0.8, 0.3))
        rho = d.rr[0][0]
        assert d.rr[0][1] == pytest.approx(rho, abs=1e-15)
        expected = -1 + (1 - rho) / d.r
        assert asymptotic_increment_bound(d, Side.RIGHT) == pytest.approx(
            expected, abs=1e-12)


class TestConditionCheck:
    def test_ca0011(self):
        rep = condition_check(derive(ca_with_error("0011", 0.1)))
        assert rep.holds
        assert rep.lhs == pytest.approx(1.2, abs=1e-12)
        assert rep.rhs == pytest.approx(0.8, abs=1e-12)

    def test_constant_parameter_r_zero_path(self):
        # r = 0 takes the general path: the gammas are gamma_table's, the
        # stationary mass of the favourable state, in floats and exactly
        lattice = [q for q in itertools.product(EDGES_11, repeat=4)
                   if derive(ParamQuad(*q)).r == 0.0]
        assert len(lattice) == 11
        ca = [ca_with_error(code, 0.5).as_tuple() for code in ALL_CODES]
        for q in lattice + ca:
            for d in (derive(ParamQuad(*q)), exact(q)):
                assert d.r == 0
                rep = condition_check(d)
                assert rep.holds and rep.lhs == 2 and rep.rhs == 0
                assert math.isinf(rep.drift_bound)
                for gamma, side in ((rep.gamma0, Side.RIGHT),
                                    (rep.gamma1, Side.LEFT)):
                    assert gamma == gamma_table(d, side)
                    nu = stationary_solve(boundary_chain(d, side))
                    mass = nu[favourable_state(d, side)]
                    if isinstance(gamma, Fraction):
                        assert gamma == mass, (q, side)
                    else:
                        assert gamma == pytest.approx(mass, rel=1e-15)

    def test_ca1000_small_eps_fails(self):
        assert not condition_check(derive(ca_with_error("1000", 0.01))).holds

    def test_drift_bound_is_gap_over_r(self):
        d = derive(FIG1)
        rep = condition_check(d)
        assert rep.drift_bound == pytest.approx((rep.lhs - rep.rhs) / d.r,
                                                abs=1e-12)

    def test_drift_bound_sign_is_the_verdict(self):
        # On the edge lattice the margin cancels: a bound taken by another
        # rounding route than lhs - rhs came out positive on quads that fail
        answered = 0
        for quad in itertools.product(EDGES_11, repeat=4):
            try:
                rep = condition_check(derive(ParamQuad(*quad)))
            except DegenerateDenominatorError:
                continue
            answered += 1
            assert (rep.drift_bound > 0) == rep.holds, quad
        assert answered == 14555

    def test_json_fields(self):
        rep = condition_check(derive(FIG1))
        payload = rep.to_dict()
        assert set(payload) == {"gamma0", "gamma1", "lhs", "rhs", "holds",
                                "drift_bound"}
        inf_payload = condition_check(
            derive(ParamQuad(0.5, 0.5, 0.5, 0.5))).to_dict()
        assert inf_payload["drift_bound"] == "inf"

    @given(positive_quads)
    @settings(max_examples=150, deadline=None)
    def test_mirror_symmetry(self, q):
        mirrored = ParamQuad(q.p00, q.p10, q.p01, q.p11)
        try:
            a = condition_check(derive(q))
            b = condition_check(derive(mirrored))
        except DegenerateDenominatorError:
            return
        assert a.holds == b.holds
        assert a.gamma0 == pytest.approx(b.gamma1, abs=1e-10)
        assert a.rhs == pytest.approx(b.rhs, abs=1e-10)

    @given(positive_quads)
    @settings(max_examples=150, deadline=None)
    def test_flip_symmetry(self, q):
        try:
            a = condition_check(derive(q))
            b = condition_check(derive(flip_conjugate(q)))
        except DegenerateDenominatorError:
            return
        assert a.holds == b.holds

    # The 11^4 lattice quads whose float verdict the 0<->1 exchange changes.
    FLOAT_EXCHANGE_FLIPS = [
        (1e-15, 0.999999999999999, 0.999999999999999, 0.999999999),
        (1e-9, 0.9999, 0.999999999, 0.999999999),
        (1e-9, 0.999999999, 0.9999, 0.999999999),
    ]

    def test_exact_verdict_is_symmetric_at_the_edges(self):
        """The 0<->1 exchange and the left-right mirror keep the exact
        margin, verdict and degeneracy; the mirror swaps gamma0 and gamma1."""
        def report(d):
            try:
                return condition_check(d)
            except DegenerateDenominatorError:
                return None

        lattice = itertools.product((0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0),
                                    repeat=4)
        n_degenerate = 0
        for q in itertools.chain(lattice, self.FLOAT_EXCHANGE_FLIPS):
            d = exact(q)
            a = report(d)
            b = report(derive(flip_conjugate(d.quad)))
            m = report(exact((q[0], q[2], q[1], q[3])))
            if a is None:
                assert b is None and m is None, q
                n_degenerate += 1
                continue
            assert (b.lhs, b.rhs, b.holds) == (a.lhs, a.rhs, a.holds), q
            assert (m.lhs, m.rhs, m.holds) == (a.lhs, a.rhs, a.holds), q
            assert (m.gamma0, m.gamma1) == (a.gamma1, a.gamma0), q
        assert n_degenerate == 18


EDGE_VALUES = (0.0, 1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9, 1.0)


class TestBatchCondition:
    def test_agrees_with_scalar(self):
        quads = random_quads(3000, seed=41)
        holds, degen = condition_holds_batch(quads)
        assert not degen.any()
        for k in range(len(quads)):
            rep = condition_check(derive(ParamQuad(*quads[k])))
            assert rep.holds == bool(holds[k])

        # Exact 0/1 entries, ties and near-degenerate values: degenerate
        # means the scalar path raises DegenerateDenominatorError.  The
        # 11-value lattice reaches the exchanged cells under cancellation.
        for values, n_want in ((EDGE_VALUES, 38), (EDGES_11, 86)):
            lattice = np.array(list(itertools.product(values, repeat=4)))
            holds, degen = condition_holds_batch(lattice)
            n_degenerate = 0
            for k in range(len(lattice)):
                try:
                    rep = condition_check(derive(ParamQuad(*lattice[k])))
                except DegenerateDenominatorError:
                    assert degen[k] and not holds[k]
                    n_degenerate += 1
                else:
                    assert not degen[k]
                    assert rep.holds == bool(holds[k])
            assert n_degenerate == n_want

    def test_dobrushin_condition_implies_the_condition(self):
        # Dobrushin's contraction criterion is c < 1, with
        # c = max_x |p(x,0) - p(x,1)| + max_x |p(0,x) - p(1,x)|.  Each
        # side's term of rhs is at most its max, so rhs <= c < 1 <= lhs:
        # every such quad holds, and none may be degenerate.
        lattice = np.array(list(itertools.product(EDGES_11, repeat=4)))
        rand = random_quads(20000, seed=0)
        # c is exact in the float entries: 48 lattice quads whose rational
        # c is 1 have c just below 1 once 1 - v is rounded
        for quads, n_want in ((lattice, 3411), (rand, 11659)):
            c = [max(abs(p00 - p01), abs(p10 - p11))
                 + max(abs(p00 - p10), abs(p01 - p11))
                 for p00, p01, p10, p11 in (map(Fraction, q) for q in quads)]
            inside = np.array([ck < 1 for ck in c])
            assert inside.sum() == n_want
            holds, degen = condition_holds_batch(quads[inside])
            assert holds.all() and not degen.any()
            for q in quads[inside]:
                assert condition_check(derive(ParamQuad(*q))).holds, q

    def test_r_zero_rows_hold(self):
        holds, degen = condition_holds_batch(
            np.array([[0.4, 0.4, 0.4, 0.4]]))
        assert holds[0] and not degen[0]

    def test_slices_are_bit_identical_to_one_pass(self):
        quads = random_quads(2 * _CHUNK_ROWS + 5, seed=43)
        quads[:7] = [[0.0, 0.0, 1.0, 1.0], [0.4] * 4, [0.0] * 4, [1.0] * 4,
                     [0.0, 1e-9, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 0.999999999]]
        holds, degen = condition_holds_batch(quads)
        one_holds, one_degen = _holds_chunk(quads)
        assert np.array_equal(holds, one_holds)
        assert np.array_equal(degen, one_degen)
        assert degen[0] and holds[1]
