"""The closed-form stationary solves against exact rational oracles.

The oracle works in `Fraction`s and finds the limit law from Star by
Gaussian elimination: the stationary law of each closed class, weighted by
the probability of absorption into that class from Star.  It never uses the
tree formula the solve is built on, nor the gamma cells' case split.
"""
import itertools
from fractions import Fraction

import numpy as np
import pytest

from pca_ergo import (BState, DegenerateDenominatorError, ParamQuad, Side,
                      boundary_chain, ca_with_error, derive, favourable_state,
                      gamma_table)
from pca_ergo.params import _GAMMA_CELLS, BoundaryChain, stationary_solve
from pca_ergo.refined import (REACHABLE, S1, exact_refined_drift,
                              refined_law_00, refined_law_s1)
from pca_ergo.sweep import ALL_CODES

from conftest import exact, state_marginal

EDGE_VALUES = (0.0, 1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9, 1.0)
STAR = 2


def _solve(A, b):
    """x with A x = b, exact Gaussian elimination; A is non-singular."""
    n = len(b)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col] / M[col][col]
                M[r] = [a - f * c for a, c in zip(M[r], M[col])]
    return [M[k][n] / M[k][k] for k in range(n)]


def exact_limit_from_star(rows):
    """Exact limit law of the chain started at Star, as three Fractions.

    The diagonal is 1 - sum(off-diagonal): float rows need not sum to 1
    exactly, and only the off-diagonal rates define the chain's law.
    """
    m = [[Fraction(v) for v in row] for row in rows.tolist()]
    for i in range(3):
        m[i][i] = 1 - sum(m[i][j] for j in range(3) if j != i)
    reach = [{i} for i in range(3)]
    for _ in range(3):
        reach = [set().union(*({j} | reach[j] for j in range(3) if m[i][j] > 0))
                 | {i} for i in range(3)]
    closed = {frozenset(reach[i]) for i in range(3)
              if all(i in reach[j] for j in reach[i])}
    transient = [i for i in range(3) if not any(i in c for c in closed)]
    law = [Fraction(0)] * 3
    for cls in closed:
        states = sorted(cls)
        # pi (M_C - I) = 0 with the last balance equation replaced by sum = 1
        A = [[m[j][i] - (i == j) for j in states] for i in states[:-1]]
        pi = _solve(A + [[Fraction(1)] * len(states)],
                    [Fraction(0)] * (len(states) - 1) + [Fraction(1)])
        if STAR in cls:
            absorb = Fraction(1)
        elif STAR in transient:
            # h = M h on the transient states, h = 1 on cls, 0 elsewhere
            h = _solve([[(i == j) - m[i][j] for j in transient] for i in transient],
                       [sum(m[i][j] for j in cls) for i in transient])
            absorb = h[transient.index(STAR)]
        else:
            absorb = Fraction(0)
        for s, v in zip(states, pi):
            law[s] += absorb * v
    return law, len(closed)


def _assert_matches(chain, law):
    nu = stationary_solve(chain)
    got = [nu[BState.ZERO], nu[BState.ONE], nu[BState.STAR]]
    for g, want in zip(got, law):
        if want == 0:
            assert g == 0.0, (chain.rows, got, law)
        else:
            assert abs(Fraction(g) - want) <= Fraction(1e-14) * want, \
                (chain.rows, got, [float(v) for v in law])


def test_edge_lattice_matches_exact_oracle():
    several_closed = 0
    for quad in itertools.product(EDGE_VALUES, repeat=4):
        d = derive(ParamQuad(*quad))
        for side in Side:
            chain = boundary_chain(d, side)
            law, n_closed = exact_limit_from_star(chain.rows)
            assert sum(law) == 1
            several_closed += n_closed > 1
            _assert_matches(chain, law)
    assert several_closed == 52


# The CA grid: every rule at eps = k/40 (k = 1..20), 1/6 and 1e-9.
CA_EPS = ([Fraction(k, 40) for k in range(1, 21)]
          + [Fraction(1, 6), Fraction(1, 10 ** 9)])


@pytest.mark.parametrize("grid, n_pairs, n_degenerate", [
    ("lattice", 4750, 26),
    ("ca", 704, 0),
])
def test_exact_closed_forms_match_oracle_fed_exact_rows(grid, n_pairs,
                                                         n_degenerate):
    """On exact rows, the gamma cells and the tree-weight solve equal the
    oracle's limit law from Star with `==`.  A gamma cell's denominator is
    exactly 0 only on a chain with several closed classes, where no closed
    form is owed: 26 lattice quads, where floats flag 38."""
    if grid == "lattice":
        cases = [exact(q) for q in itertools.product(EDGE_VALUES, repeat=4)]
    else:
        cases = [derive(ca_with_error(code, eps))
                 for code in ALL_CODES for eps in CA_EPS]
    pairs, degenerate = 0, 0
    for d in cases:
        raised = False
        for side in Side:
            chain = boundary_chain(d, side)
            law, n_closed = exact_limit_from_star(chain.rows)
            nu = stationary_solve(chain)
            assert [nu[s] for s in BState] == law, (d.quad, side)
            try:
                gamma = gamma_table(d, side)
            except DegenerateDenominatorError:
                assert n_closed > 1, (d.quad, side)
                raised = True
                continue
            assert gamma == law[favourable_state(d, side).value], \
                (d.quad, side)
            pairs += 1
        degenerate += raised
    assert (pairs, degenerate) == (n_pairs, n_degenerate)


def test_tied_gamma_cells_agree_exactly():
    """Where a tie makes several gamma cells applicable, they give the same
    exact gamma, and a zero denominator in one means zero in all, so
    `gamma_table` loses nothing by taking the first applicable cell."""
    quads = itertools.chain(
        itertools.product(EDGE_VALUES, repeat=4),
        (ca_with_error(code, eps).as_tuple()
         for code in ALL_CODES for eps in CA_EPS),
        itertools.product((0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0), repeat=4))
    n_quads, tied = 0, 0
    for q in quads:
        d = exact(q)
        n_quads += 1
        for side in Side:
            i = side.sup
            QP = (d.QQ[i][0], d.QQ[i][1], d.PP[i][0], d.PP[i][1])
            if favourable_state(d, side) is BState.ONE:
                QP = QP[::-1]
            cells = [fraction(*QP) for _, applies, fraction in _GAMMA_CELLS
                     if applies(*QP)]
            tied += len(cells) > 1
            zero = {den == 0 for _, den in cells}
            assert len(zero) == 1, (q, side)
            if zero.pop():
                with pytest.raises(DegenerateDenominatorError):
                    gamma_table(d, side)
            else:
                gammas = {num / den for num, den in cells}
                assert gammas == {gamma_table(d, side)}, (q, side)
    assert (n_quads, tied) == (3378, 1860)


@pytest.mark.parametrize("rows", [
    # periodic 0 <-> 1, Star transient: Cesaro limit (1/2, 1/2, 0)
    [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.3, 0.2, 0.5]],
    # periodic 3-cycle 0 -> 1 -> Star -> 0
    [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
    # Star absorbing, 0 <-> 1 closed: point mass on Star
    [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
    # closed pair {0, Star}, 1 absorbing
    [[0.6, 0.0, 0.4], [0.0, 1.0, 0.0], [0.1, 0.0, 0.9]],
    # closed pair {1, Star}, 0 absorbing
    [[1.0, 0.0, 0.0], [0.0, 0.7, 0.3], [0.0, 0.25, 0.75]],
    # Star transient between absorbing 0 and 1
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.125, 0.375, 0.5]],
    # near-absorbing Star, one closed class
    [[1.0 - 1e-9, 0.0, 1e-9], [0.0, 1.0 - 1e-9, 1e-9], [1e-18, 1e-18, 1.0 - 2e-18]],
])
def test_reducible_and_periodic_chains(rows):
    chain = BoundaryChain(rows=np.array(rows))
    law, _ = exact_limit_from_star(chain.rows)
    _assert_matches(chain, law)


def test_iteration_keywords_are_accepted_and_inert():
    chain = boundary_chain(derive(ParamQuad(0.0, 0.0, 0.0, 0.999999999)),
                           Side.RIGHT)
    assert (stationary_solve(chain, tol=1.0, max_iter=1)
            == stationary_solve(chain))


def exact_refined_oracle(eps):
    """Stationary mean of the six-state refined pair chain, in Fractions.

    Built from the float law tables (moves labelled by their index in
    REACHABLE, displacements doubled), diagonal 1 - sum(off-diagonal); also
    returns the scale sum(nu_s * |mean_s|) that float rounding acts on.
    """
    laws = {pair: refined_law_s1(eps) if pair in S1 else refined_law_00(eps)
            for pair in REACHABLE}
    states = list(REACHABLE)
    n = len(states)
    m = [[Fraction(0)] * n for _ in range(n)]
    for a, s in enumerate(states):
        for t, mass in state_marginal(laws[s]).items():
            m[a][t] += Fraction(mass)
        m[a][a] = 1 - sum(m[a][b] for b in range(n) if b != a)
    # nu (M - I) = 0 with the last balance equation replaced by sum = 1
    A = [[m[j][i] - (i == j) for j in range(n)] for i in range(n - 1)]
    nu = _solve(A + [[Fraction(1)] * n], [Fraction(0)] * (n - 1) + [Fraction(1)])
    means = [Fraction(laws[s].mean()) / 2 for s in states]
    return (sum(v * mu for v, mu in zip(nu, means)),
            sum(v * abs(mu) for v, mu in zip(nu, means)))


@pytest.mark.parametrize("eps", [1e-6, 1e-3, 0.05, 0.1, 0.17, 0.2, 0.25,
                                 0.3, 0.4, 0.49, 0.499999])
def test_refined_drift_matches_exact_pair_chain(eps):
    want, scale = exact_refined_oracle(eps)
    assert abs(Fraction(exact_refined_drift(eps)) - want) <= Fraction(1e-14) * scale
