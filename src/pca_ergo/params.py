"""Analytic layer: derived quantities, boundary-state chain, gamma closed forms
and the ergodicity condition for two-neighbour binary PCA.

The condition's formulas are written once: the derived quantities
(`_derived`), the three closed-form gamma cells of favourable state 0
(`_GAMMA_CELLS`; state 1 reads them through the 0<->1 exchange) and the
right-hand side (`_rhs`).  Two drivers run them: the scalar API (`derive`,
`gamma_table`, `condition_check`) on plain floats and small dataclasses, and
`condition_holds_batch` on numpy columns, for sweeps.  The scalar driver
runs on `Fraction`s too, and then every answer is exact (see `derive`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Tolerance for exact identities checked in floating point.
TOL_IDENTITY = 1e-12


class DegenerateDenominatorError(ValueError):
    """A selected gamma closed-form cell has a zero denominator."""

    def __init__(self, cell: str):
        self.cell = cell
        super().__init__(f"degenerate denominator in gamma cell {cell}")


class Side(Enum):
    """Which island boundary a quantity refers to.

    RIGHT uses the superscript-(0) quantities (left parent known),
    LEFT uses the superscript-(1) quantities (right parent known).
    """

    RIGHT = 0
    LEFT = 1

    @property
    def sup(self) -> int:
        return self.value


class BState(Enum):
    """Boundary-cell state: known 0, known 1, or decorrelated-but-forgotten."""

    ZERO = 0
    ONE = 1
    STAR = 2

    def __str__(self) -> str:
        return {BState.ZERO: "0", BState.ONE: "1", BState.STAR: "*"}[self]


def _check_prob(value: float, name: str) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name}={value!r} is not a probability in [0,1]")


@dataclass(frozen=True, slots=True)
class ParamQuad:
    """PCA parameter: probability the child is 1 given parents (left,right)."""

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self):
        for name in ("p00", "p01", "p10", "p11"):
            _check_prob(getattr(self, name), name)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p00, self.p01, self.p10, self.p11)


def ca_with_error(code: str, eps: float) -> ParamQuad:
    """Parameter of a deterministic rule whose output bit flips w.p. eps.

    `code` is the 4-bit rule word b00 b01 b10 b11, a string like "1000".
    Entries are eps where the bit is 0 and 1-eps where it is 1.
    """
    if len(code) != 4 or any(c not in "01" for c in code):
        raise ValueError(f"CA code {code!r} is not a 4-bit word")
    if not (0.0 <= eps <= 0.5):
        raise ValueError(f"eps={eps!r} must lie in [0, 1/2]")
    vals = tuple(1 - eps if b == "1" else eps for b in code)
    return ParamQuad(*vals)


def flip_conjugate(quad: ParamQuad) -> ParamQuad:
    """Parameter of the PCA conjugated by the global 0<->1 exchange."""
    return ParamQuad(1 - quad.p11, 1 - quad.p10,
                     1 - quad.p01, 1 - quad.p00)


@dataclass(frozen=True, slots=True)
class DerivedParams:
    """All derived min/max/rest probabilities of a parameter quadruplet.

    Per-side entries are indexed [i][x]: i is the superscript (0 = left
    parent known, 1 = right parent known), x the known parent value.
    """

    quad: ParamQuad
    p: float
    q: float
    r: float
    pp: tuple[tuple[float, float], tuple[float, float]]  # p^(i)_x
    qq: tuple[tuple[float, float], tuple[float, float]]  # q^(i)_x
    rr: tuple[tuple[float, float], tuple[float, float]]  # r^(i)_x
    PP: tuple[tuple[float, float], tuple[float, float]]  # P^(i)_x
    QQ: tuple[tuple[float, float], tuple[float, float]]  # Q^(i)_x
    RR: tuple[float, float]                              # R_x

    def star_row(self, side: Side) -> tuple[float, float, float]:
        """Chain row from the forgotten state: (Q^(i), P^(i), R^(i))."""
        i = side.sup
        Q = min(self.QQ[i][0], self.QQ[i][1])
        P = min(self.PP[i][0], self.PP[i][1])
        return (Q, P, 1 - Q - P)


def _grid(f):
    """The per-side table ((f(0, 0), f(0, 1)), (f(1, 0), f(1, 1))), [i][x]."""
    return ((f(0, 0), f(0, 1)), (f(1, 0), f(1, 1)))


def _derived(p00, p01, p10, p11, lo, hi):
    """The derived-quantity formulas, on floats or elementwise on columns.

    `lo`/`hi` take the smaller/larger of two values: `min`/`max` on floats,
    `np.minimum`/`np.maximum` on arrays.  Returns the fields of
    `DerivedParams` after `quad`: (p, q, r, pp, qq, rr, PP, QQ, RR).
    """
    p = lo(lo(p00, p01), lo(p10, p11))
    q = 1 - hi(hi(p00, p01), hi(p10, p11))
    r = 1 - p - q
    # i = 0: left parent known to be x, right parent free;
    # i = 1: right parent known to be x, left parent free.
    pairs = (((p00, p01), (p10, p11)), ((p00, p10), (p01, p11)))
    pp = _grid(lambda i, x: lo(*pairs[i][x]))
    qq = _grid(lambda i, x: 1 - hi(*pairs[i][x]))
    rr = _grid(lambda i, x: 1 - pp[i][x] - qq[i][x])
    # P^(i)_x from pp and p, Q^(i)_x from qq and q, by one formula.
    mix = lambda m, whole: _grid(
        lambda i, x: r * m[i][x] + (1 - rr[i][x]) * whole + rr[i][x] * m[1 - i][x])
    PP = mix(pp, p)
    QQ = mix(qq, q)
    RR = (rr[0][0] * rr[1][0], rr[0][1] * rr[1][1])
    return p, q, r, pp, qq, rr, PP, QQ, RR


def derive(quad: ParamQuad) -> DerivedParams:
    """Compute every derived quantity of a parameter quadruplet.

    The formulas hold no float constant, so a quad of `Fraction`s gives
    exact results here and in `boundary_chain`, `stationary_solve`,
    `gamma_table`, `condition_check`, `mean_increment` and
    `asymptotic_increment_bound`; `ca_with_error` and `flip_conjugate` keep
    such a quad exact.  At eps = 1/6 rule 0110's margin lhs - rhs is
    exactly 0; floats put it at -2.2e-16:

    >>> from fractions import Fraction
    >>> rep = condition_check(derive(ca_with_error("0110", Fraction(1, 6))))
    >>> rep.lhs - rep.rhs, rep.holds
    (Fraction(0, 1), False)
    >>> rep = condition_check(derive(ca_with_error("0110", 1 / 6)))
    >>> rep.lhs - rep.rhs, rep.holds
    (-2.220446049250313e-16, False)
    """
    return DerivedParams(quad, *_derived(*quad.as_tuple(), min, max))


@dataclass(frozen=True, slots=True)
class BoundaryChain:
    """3x3 transition matrix of the boundary-state chain, rows Zero/One/Star."""

    rows: np.ndarray  # shape (3, 3), float (object for Fraction entries)

    def __post_init__(self):
        # exact (object) rows sum to exactly 1, float rows to TOL_IDENTITY
        sums = self.rows.sum(axis=1)
        if not ((sums == 1).all() if self.rows.dtype == object else
                np.allclose(sums, 1.0, rtol=0.0, atol=TOL_IDENTITY)):
            raise ValueError(f"chain rows do not sum to 1: {sums}")


def boundary_chain(d: DerivedParams, side: Side) -> BoundaryChain:
    """Markov chain of the boundary state in {0, 1, *}."""
    i = side.sup
    rows = np.array([
        [d.QQ[i][0], d.PP[i][0], d.RR[0]],
        [d.QQ[i][1], d.PP[i][1], d.RR[1]],
        list(d.star_row(side)),
    ])
    return BoundaryChain(rows=rows)


def tree_weights(rows) -> tuple[float, float, float]:
    """Markov-chain tree theorem weights of a 3-state chain.

    w_i is the sum, over the three spanning trees directed into state i, of
    the products of their off-diagonal entries, e.g.
    w0 = m10*m20 + m12*m20 + m21*m10.  When their sum is positive the chain
    has one closed class and w / sum(w) is its stationary law; the sum is 0
    exactly when there are several closed classes.  Only off-diagonal
    entries enter and nothing is subtracted, so each weight carries a
    relative error of a few ulps however close the chain is to absorbing.
    This is Grassmann-Taksar-Heyman elimination (Operations Research 33,
    1985) written out for 3 states.
    Entries that rounding left slightly negative count as 0.
    """
    (_, m01, m02), (m10, _, m12), (m20, m21, _) = np.maximum(rows, 0).tolist()
    return (m10 * m20 + m12 * m20 + m21 * m10,
            m01 * m21 + m02 * m21 + m20 * m01,
            m02 * m12 + m01 * m12 + m10 * m02)


def stationary_solve(chain: BoundaryChain,
                     tol: float = 1e-13,
                     max_iter: int = 10 ** 6) -> dict:
    """Stationary law of the boundary chain, or its limit from Star, as
    {BState: mass}.

    Closed form, no iteration: nu = w / sum(w) with the tree weights w of
    `tree_weights`.  With one closed class this is the unique stationary
    law, which for a periodic class (e.g. 0 <-> 1) is the Cesaro limit.
    With several closed classes (sum(w) = 0) it is the limit law of the
    chain started at Star, matching the all-? initial condition of the
    envelope:
    - Star absorbing: the point mass on Star;
    - Star in a closed pair {a, Star}: that pair's law, (m*a, ma*)
      normalised;
    - Star transient (0 and 1 absorbing): 0 and 1 in the ratio m*0 : m*1.

    `tol` and `max_iter` are accepted for compatibility and do nothing.
    """
    w0, w1, w2 = tree_weights(chain.rows)
    if w0 + w1 + w2 == 0.0:
        (_, _, m02), (_, _, m12), (m20, m21, _) = \
            np.maximum(chain.rows, 0).tolist()
        if m20 == m21 == 0.0:
            w0, w1, w2 = 0, 0, 1
        elif m20 > 0.0 and m02 > 0.0:
            w0, w1, w2 = m20, 0, m02
        elif m21 > 0.0 and m12 > 0.0:
            w0, w1, w2 = 0, m21, m12
        else:
            w0, w1, w2 = m20, m21, 0
    total = w0 + w1 + w2
    return {BState.ZERO: w0 / total, BState.ONE: w1 / total,
            BState.STAR: w2 / total}


def _favours_one(rri):
    """Whether the favourable state is 1: r^(i)_0 <= r^(i)_1 picks 0.

    On a side's (r^(i)_0, r^(i)_1) as floats or as columns."""
    return rri[0] > rri[1]


def favourable_state(d: DerivedParams, side: Side) -> BState:
    """The boundary value w with the smaller r^(i)_w (ties -> Zero)."""
    return BState.ONE if _favours_one(d.rr[side.sup]) else BState.ZERO


def worst_state(d: DerivedParams, side: Side) -> BState:
    """The concrete state with the larger remainder r^(i) (ties -> Zero):
    Star's stand-in in the boundary walk."""
    i = side.sup
    return BState.ZERO if d.rr[i][0] >= d.rr[i][1] else BState.ONE


# The three closed-form gamma cells of favourable state 0, as (names,
# applicable, (numerator, denominator)) over (Q0, Q1, P0, P1) =
# (Q^(i)_0, Q^(i)_1, P^(i)_0, P^(i)_1), on floats or on columns; the cell's
# gamma is numerator / denominator.  The cells are in order of precedence
# and between them cover every (Q, P).  Exchanging the labels 0 and 1 maps
# (Q0, Q1, P0, P1) to (P1, P0, Q1, Q0), the reversed tuple, so favourable
# state 1's cells are the same cells read at the reversed arguments;
# names[w] names the cell for favourable state w.
_GAMMA_CELLS = (
    (("w0/Q1<=Q0", "w1/P0<=P1"),
     lambda Q0, Q1, P0, P1: Q1 <= Q0,
     lambda Q0, Q1, P0, P1: (Q1, 1 - (Q0 - Q1))),
    (("w0/Q1>=Q0,P0<=P1", "w1/P0>=P1,Q1<=Q0"),
     lambda Q0, Q1, P0, P1: (Q1 >= Q0) & (P0 <= P1),
     lambda Q0, Q1, P0, P1: (Q1 * P0 + Q0 * (1 - P1), 1 - (P1 - P0))),
    (("w0/Q1>=Q0,P0>=P1", "w1/P0>=P1,Q1>=Q0"),
     lambda Q0, Q1, P0, P1: (Q1 >= Q0) & (P0 >= P1),
     lambda Q0, Q1, P0, P1: (Q0 + P1 * (Q1 - Q0),
                             1 - (Q1 - Q0) * (P0 - P1))),
)


def gamma_table(d: DerivedParams, side: Side) -> float:
    """Closed-form stationary mass of the favourable boundary state.

    The case split is on the ordering of r^(i)_0 vs r^(i)_1, then on the
    orderings of Q^(i)_1 vs Q^(i)_0 and P^(i)_0 vs P^(i)_1.  The first
    applicable cell is taken, as in the batch kernel: tied cells agree
    algebraically, and at r = 0 the first applies with denominator 1.
    """
    i = side.sup
    w = _favours_one(d.rr[i])
    QP = (d.QQ[i][0], d.QQ[i][1], d.PP[i][0], d.PP[i][1])
    if w:
        QP = QP[::-1]
    for names, applies, fraction in _GAMMA_CELLS:
        if applies(*QP):
            break
    num, den = fraction(*QP)
    if den == 0:
        raise DegenerateDenominatorError(names[int(w)])
    return num / den


def mean_increment(d: DerivedParams, side: Side, y: BState) -> float:
    """Exact per-state mean of the one-step boundary displacement.

    For the forgotten state the worst concrete state's mean is used (the
    smaller on the right, the larger on the left), preserving the direction
    of the drift bounds.
    """
    if d.r <= 0.0:
        raise ValueError("drift analysis requires r > 0")
    x = (worst_state(d, side) if y is BState.STAR else y).value
    outward = (1 - d.rr[side.sup][x]) / d.r
    return -1 + outward if side is Side.RIGHT else -outward


def asymptotic_increment_bound(d: DerivedParams, side: Side) -> float:
    """Stationary-mean bound on the boundary displacement.

    Lower bound for the right boundary, upper bound for the left one.
    """
    if d.r <= 0.0:
        raise ValueError("drift analysis requires r > 0")
    gamma = gamma_table(d, side)
    i = side.sup
    lo = min(d.rr[i][0], d.rr[i][1])
    gap = abs(d.rr[i][0] - d.rr[i][1])
    weighted = lo + (1 - gamma) * gap
    if side is Side.RIGHT:
        return -1 + 1 / d.r - weighted / d.r
    return -1 / d.r + weighted / d.r


@dataclass(frozen=True, slots=True)
class ConditionReport:
    """Result of evaluating the ergodicity condition on one parameter."""

    gamma0: float
    gamma1: float
    lhs: float
    rhs: float
    holds: bool
    drift_bound: float  # math.inf when r = 0

    def to_dict(self) -> dict:
        return {
            "gamma0": self.gamma0,
            "gamma1": self.gamma1,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "drift_bound": "inf" if math.isinf(self.drift_bound)
                           else self.drift_bound,
        }


def _rhs(rr, gamma0, gamma1, lo):
    """Right-hand side of the condition 2 - r > rhs; `lo` as in `_derived`."""
    return (lo(rr[0][0], rr[0][1]) + (1 - gamma0) * abs(rr[0][0] - rr[0][1])
            + lo(rr[1][0], rr[1][1]) + (1 - gamma1) * abs(rr[1][0] - rr[1][1]))


def condition_check(d: DerivedParams) -> ConditionReport:
    """Evaluate the sufficient ergodicity condition 2 - r > rhs."""
    gamma0 = gamma_table(d, Side.RIGHT)
    gamma1 = gamma_table(d, Side.LEFT)
    lhs = 2 - d.r
    rhs = _rhs(d.rr, gamma0, gamma1, min)
    # The right bound minus the left one is (lhs - rhs) / r algebraically;
    # taking it from the margin keeps its sign that of `holds`.  At r = 0
    # every r^(i)_x is 0, so rhs = 0 and the bound is infinite.
    drift_bound = math.inf if d.r == 0 else (lhs - rhs) / d.r
    return ConditionReport(gamma0=gamma0, gamma1=gamma1, lhs=lhs, rhs=rhs,
                           holds=lhs > rhs, drift_bound=drift_bound)


def bisect_crossover(code: str) -> float:
    """Smallest error rate at which the condition starts to hold for a CA.

    Bisects 60 times over [1e-9, 1/2], assuming the condition fails at 1e-9
    and holds at 1/2 (the four rules the condition misses near zero error).
    """
    lo, hi = 1e-9, 0.5
    if condition_check(derive(ca_with_error(code, lo))).holds:
        raise ValueError(f"condition already holds at eps={lo} for CA {code}")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if condition_check(derive(ca_with_error(code, mid))).holds:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Vectorised condition evaluation (used by the volume estimator).

# Rows per slice of the batch kernel: its ~50 temporaries then take ~3 MiB
# whatever the batch size, instead of ~360 B per row.
_CHUNK_ROWS = 1 << 13


def condition_holds_batch(quads: np.ndarray):
    """Evaluate the condition on an (n, 4) array of parameter quadruplets.

    Returns (holds, degenerate): boolean arrays.  Rows whose selected gamma
    cell has a zero denominator are flagged degenerate and reported as not
    holding.  Rows are independent; they are evaluated in slices of
    _CHUNK_ROWS to bound the memory of the temporaries.
    """
    P = np.asarray(quads, dtype=float)
    holds = np.empty(len(P), dtype=bool)
    degenerate = np.empty(len(P), dtype=bool)
    for start in range(0, len(P), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        holds[rows], degenerate[rows] = _holds_chunk(P[rows])
    return holds, degenerate


def _holds_chunk(P: np.ndarray):
    """condition_holds_batch on one slice of rows."""
    _, _, r, _, _, rr, PP, QQ, _ = _derived(*P.T, np.minimum, np.maximum)
    g0, den0 = _gamma_batch(QQ[0], PP[0], rr[0])
    g1, den1 = _gamma_batch(QQ[1], PP[1], rr[1])
    degenerate = (den0 == 0.0) | (den1 == 0.0)
    holds = 2.0 - r > _rhs(rr, g0, g1, np.minimum)
    return holds & ~degenerate, degenerate


def _gamma_batch(QQi, PPi, rri):
    """Per row of one side: gamma of its first applicable cell, and that
    cell's denominator (the favourable state as in `favourable_state`)."""
    QP = (QQi[0], QQi[1], PPi[0], PPi[1])
    one = _favours_one(rri)  # rows read at the exchanged arguments
    QP = [np.where(one, b, a) for a, b in zip(QP, QP[::-1])]
    first = np.argmax([applies(*QP) for _, applies, _ in _GAMMA_CELLS], axis=0)
    nums, dens = zip(*(fraction(*QP) for *_, fraction in _GAMMA_CELLS))
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = np.choose(first, [n / d for n, d in zip(nums, dens)])
    return gamma, np.choose(first, dens)
