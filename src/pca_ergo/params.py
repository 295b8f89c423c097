"""Analytic layer: derived quantities, boundary-state chain, gamma closed forms
and the ergodicity condition for two-neighbour binary PCA.

All functions here are pure and operate on plain floats / small dataclasses.
A vectorised condition evaluator over numpy arrays is provided for sweeps.
"""
from __future__ import annotations

import json
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


@dataclass(frozen=True)
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

    @property
    def positive_rates(self) -> bool:
        return all(0.0 < v < 1.0 for v in self.as_tuple())

    def p(self, left: int, right: int) -> float:
        return self.as_tuple()[2 * left + right]


def ca_with_error(code: str | int, eps: float) -> ParamQuad:
    """Parameter of a deterministic rule whose output bit flips w.p. eps.

    `code` is the 4-bit rule word b00 b01 b10 b11 (string like "1000" or an
    int 0..15). Entries are eps where the bit is 0 and 1-eps where it is 1.
    """
    if isinstance(code, int):
        if not 0 <= code <= 15:
            raise ValueError(f"CA code {code} out of range 0..15")
        bits = f"{code:04b}"
    else:
        bits = str(code)
        if len(bits) != 4 or any(c not in "01" for c in bits):
            raise ValueError(f"CA code {code!r} is not a 4-bit word")
    if not (0.0 <= eps <= 0.5):
        raise ValueError(f"eps={eps!r} must lie in [0, 1/2]")
    vals = tuple(1.0 - eps if b == "1" else eps for b in bits)
    return ParamQuad(*vals)


def flip_conjugate(quad: ParamQuad) -> ParamQuad:
    """Parameter of the PCA conjugated by the global 0<->1 exchange."""
    return ParamQuad(1.0 - quad.p11, 1.0 - quad.p10,
                     1.0 - quad.p01, 1.0 - quad.p00)


@dataclass(frozen=True)
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
        return (Q, P, 1.0 - Q - P)


def derive(quad: ParamQuad) -> DerivedParams:
    """Compute every derived quantity of a parameter quadruplet."""
    t = quad.as_tuple()
    p = min(t)
    q = 1.0 - max(t)
    r = 1.0 - p - q

    pp = [[0.0, 0.0], [0.0, 0.0]]
    qq = [[0.0, 0.0], [0.0, 0.0]]
    rr = [[0.0, 0.0], [0.0, 0.0]]
    for x in (0, 1):
        # i = 0: left parent known to be x, right parent free.
        row = (quad.p(x, 0), quad.p(x, 1))
        pp[0][x] = min(row)
        qq[0][x] = 1.0 - max(row)
        rr[0][x] = 1.0 - pp[0][x] - qq[0][x]
        # i = 1: right parent known to be x, left parent free.
        col = (quad.p(0, x), quad.p(1, x))
        pp[1][x] = min(col)
        qq[1][x] = 1.0 - max(col)
        rr[1][x] = 1.0 - pp[1][x] - qq[1][x]

    PP = [[0.0, 0.0], [0.0, 0.0]]
    QQ = [[0.0, 0.0], [0.0, 0.0]]
    for i in (0, 1):
        for x in (0, 1):
            PP[i][x] = r * pp[i][x] + (1.0 - rr[i][x]) * p + rr[i][x] * pp[1 - i][x]
            QQ[i][x] = r * qq[i][x] + (1.0 - rr[i][x]) * q + rr[i][x] * qq[1 - i][x]
    RR = (rr[0][0] * rr[1][0], rr[0][1] * rr[1][1])

    as_t = lambda m: (tuple(m[0]), tuple(m[1]))
    return DerivedParams(quad=quad, p=p, q=q, r=r,
                         pp=as_t(pp), qq=as_t(qq), rr=as_t(rr),
                         PP=as_t(PP), QQ=as_t(QQ), RR=RR)


@dataclass(frozen=True)
class BoundaryChain:
    """3x3 transition matrix of the boundary-state chain, rows Zero/One/Star."""

    side: Side
    rows: np.ndarray  # shape (3, 3), float

    def __post_init__(self):
        sums = self.rows.sum(axis=1)
        if not np.allclose(sums, 1.0, rtol=0.0, atol=TOL_IDENTITY):
            raise ValueError(f"chain rows do not sum to 1: {sums}")


def boundary_chain(d: DerivedParams, side: Side) -> BoundaryChain:
    """Markov chain of the boundary state in {0, 1, *}."""
    i = side.sup
    rows = np.array([
        [d.QQ[i][0], d.PP[i][0], d.RR[0]],
        [d.QQ[i][1], d.PP[i][1], d.RR[1]],
        list(d.star_row(side)),
    ])
    return BoundaryChain(side=side, rows=rows)


@dataclass(frozen=True)
class StationaryDist:
    """Stationary (or Star-started limiting) distribution of a boundary chain."""

    mass: dict  # BState -> float

    def __getitem__(self, s: BState) -> float:
        return self.mass[s]


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
    (_, m01, m02), (m10, _, m12), (m20, m21, _) = np.maximum(rows, 0.0).tolist()
    return (m10 * m20 + m12 * m20 + m21 * m10,
            m01 * m21 + m02 * m21 + m20 * m01,
            m02 * m12 + m01 * m12 + m10 * m02)


def stationary_solve(chain: BoundaryChain,
                     tol: float = 1e-13,
                     max_iter: int = 10 ** 6) -> StationaryDist:
    """Stationary law of the boundary chain, or its limit from Star.

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
            np.maximum(chain.rows, 0.0).tolist()
        if m20 == m21 == 0.0:
            w0, w1, w2 = 0.0, 0.0, 1.0
        elif m20 > 0.0 and m02 > 0.0:
            w0, w1, w2 = m20, 0.0, m02
        elif m21 > 0.0 and m12 > 0.0:
            w0, w1, w2 = 0.0, m21, m12
        else:
            w0, w1, w2 = m20, m21, 0.0
    total = w0 + w1 + w2
    return StationaryDist(mass={BState.ZERO: w0 / total,
                                BState.ONE: w1 / total,
                                BState.STAR: w2 / total})


def favourable_state(d: DerivedParams, side: Side) -> BState:
    """The boundary value w with the smaller r^(i)_w (ties -> Zero)."""
    i = side.sup
    return BState.ZERO if d.rr[i][0] <= d.rr[i][1] else BState.ONE


def gamma_table(d: DerivedParams, side: Side) -> float:
    """Closed-form stationary mass of the favourable boundary state.

    The case split is on the ordering of r^(i)_0 vs r^(i)_1, then on the
    orderings of Q^(i)_1 vs Q^(i)_0 and P^(i)_0 vs P^(i)_1.  Whenever a tie
    makes several cells applicable their values agree algebraically; this is
    asserted and the first is returned.
    """
    i = side.sup
    Q0, Q1 = d.QQ[i][0], d.QQ[i][1]
    P0, P1 = d.PP[i][0], d.PP[i][1]

    candidates: list[tuple[str, float, float]] = []  # (cell, numerator, denominator)
    if d.rr[i][0] <= d.rr[i][1]:
        # favourable state is 0
        if Q1 <= Q0:
            candidates.append(("w0/Q1<=Q0", Q1, 1.0 - (Q0 - Q1)))
        if Q1 >= Q0 and P0 <= P1:
            candidates.append(("w0/Q1>=Q0,P0<=P1",
                               Q1 * P0 + Q0 * (1.0 - P1), 1.0 - (P1 - P0)))
        if Q1 >= Q0 and P0 >= P1:
            candidates.append(("w0/Q1>=Q0,P0>=P1",
                               Q0 + P1 * (Q1 - Q0),
                               1.0 - (Q1 - Q0) * (P0 - P1)))
    else:
        # favourable state is 1
        if P0 <= P1:
            candidates.append(("w1/P0<=P1", P0, 1.0 - (P1 - P0)))
        if P0 >= P1 and Q1 <= Q0:
            candidates.append(("w1/P0>=P1,Q1<=Q0",
                               P0 * Q1 + P1 * (1.0 - Q0), 1.0 - (Q0 - Q1)))
        if P0 >= P1 and Q1 >= Q0:
            candidates.append(("w1/P0>=P1,Q1>=Q0",
                               P1 + Q0 * (P0 - P1),
                               1.0 - (Q1 - Q0) * (P0 - P1)))

    values = []
    for cell, num, den in candidates:
        if den == 0.0:
            raise DegenerateDenominatorError(cell)
        values.append(num / den)
    first = values[0]
    for v in values[1:]:
        if abs(v - first) > TOL_IDENTITY:
            raise AssertionError(
                f"tied gamma cells disagree: {values} for side {side}")
    return first


def mean_increment(d: DerivedParams, side: Side, y: BState) -> float:
    """Exact per-state mean of the one-step boundary displacement.

    For the forgotten state the conservative extremum is used (min on the
    right, max on the left), preserving the direction of the drift bounds.
    """
    if d.r <= 0.0:
        raise ZeroDivisionError("mean increment undefined when r = 0")
    i = side.sup
    if side is Side.RIGHT:
        if y is BState.STAR:
            return -1.0 + (1.0 - max(d.rr[i][0], d.rr[i][1])) / d.r
        return -1.0 + (1.0 - d.rr[i][y.value]) / d.r
    else:
        if y is BState.STAR:
            return -(1.0 - max(d.rr[i][0], d.rr[i][1])) / d.r
        return -(1.0 - d.rr[i][y.value]) / d.r


def asymptotic_increment_bound(d: DerivedParams, side: Side) -> float:
    """Stationary-mean bound on the boundary displacement.

    Lower bound for the right boundary, upper bound for the left one.
    """
    if d.r <= 0.0:
        raise ZeroDivisionError("asymptotic bound undefined when r = 0")
    i = side.sup
    gamma = gamma_table(d, side)
    lo = min(d.rr[i][0], d.rr[i][1])
    gap = abs(d.rr[i][0] - d.rr[i][1])
    weighted = lo + (1.0 - gamma) * gap
    if side is Side.RIGHT:
        return -1.0 + 1.0 / d.r - weighted / d.r
    return -1.0 / d.r + weighted / d.r


@dataclass(frozen=True)
class ConditionReport:
    """Result of evaluating the ergodicity condition on one parameter."""

    gamma0: float
    gamma1: float
    lhs: float
    rhs: float
    holds: bool
    w0: BState
    w1: BState
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def condition_check(d: DerivedParams) -> ConditionReport:
    """Evaluate the sufficient ergodicity condition 2 - r > rhs."""
    w0 = favourable_state(d, Side.RIGHT)
    w1 = favourable_state(d, Side.LEFT)
    if d.r == 0.0:
        # No division anywhere: all per-side remainders vanish too.
        return ConditionReport(gamma0=1.0, gamma1=1.0, lhs=2.0, rhs=0.0,
                               holds=True, w0=w0, w1=w1,
                               drift_bound=math.inf)
    gamma0 = gamma_table(d, Side.RIGHT)
    gamma1 = gamma_table(d, Side.LEFT)
    lhs = 2.0 - d.r
    rhs = (min(d.rr[0][0], d.rr[0][1])
           + (1.0 - gamma0) * abs(d.rr[0][0] - d.rr[0][1])
           + min(d.rr[1][0], d.rr[1][1])
           + (1.0 - gamma1) * abs(d.rr[1][0] - d.rr[1][1]))
    drift = (asymptotic_increment_bound(d, Side.RIGHT)
             - asymptotic_increment_bound(d, Side.LEFT))
    return ConditionReport(gamma0=gamma0, gamma1=gamma1, lhs=lhs, rhs=rhs,
                           holds=lhs > rhs, w0=w0, w1=w1, drift_bound=drift)


def bisect_crossover(code: str, lo: float = 1e-9, hi: float = 0.5,
                     iters: int = 60) -> float:
    """Smallest error rate at which the condition starts to hold for a CA.

    Assumes the condition fails at `lo` and holds at `hi` (the four rules the
    condition misses near zero error).
    """
    if condition_check(derive(ca_with_error(code, lo))).holds:
        raise ValueError(f"condition already holds at eps={lo} for CA {code}")
    for _ in range(iters):
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
    p00, p01, p10, p11 = P[:, 0], P[:, 1], P[:, 2], P[:, 3]
    p = P.min(axis=1)
    q = 1.0 - P.max(axis=1)
    r = 1.0 - p - q

    def side_quants(a, b, c, e):
        # per-side rows (a,b) and (c,e): known parent 0 resp. 1
        p_0 = np.minimum(a, b)
        q_0 = 1.0 - np.maximum(a, b)
        r_0 = 1.0 - p_0 - q_0
        p_1 = np.minimum(c, e)
        q_1 = 1.0 - np.maximum(c, e)
        r_1 = 1.0 - p_1 - q_1
        return (p_0, q_0, r_0), (p_1, q_1, r_1)

    s0 = side_quants(p00, p01, p10, p11)   # superscript (0)
    s1 = side_quants(p00, p10, p01, p11)   # superscript (1)

    pp = np.empty((2, 2, len(P)))
    qq = np.empty_like(pp)
    rr = np.empty_like(pp)
    for i, s in ((0, s0), (1, s1)):
        for x in (0, 1):
            pp[i, x], qq[i, x], rr[i, x] = s[x]

    PP = np.empty_like(pp)
    QQ = np.empty_like(pp)
    for i in (0, 1):
        for x in (0, 1):
            PP[i, x] = r * pp[i, x] + (1.0 - rr[i, x]) * p + rr[i, x] * pp[1 - i, x]
            QQ[i, x] = r * qq[i, x] + (1.0 - rr[i, x]) * q + rr[i, x] * qq[1 - i, x]

    def gamma_vec(Q0, Q1, P0, P1, r0, r1):
        with np.errstate(divide="ignore", invalid="ignore"):
            dA = 1.0 - (Q0 - Q1)
            dB = 1.0 - (P1 - P0)
            dC = 1.0 - (Q1 - Q0) * (P0 - P1)
            top = np.where(Q1 <= Q0, Q1 / dA,
                           np.where(P0 <= P1,
                                    (Q1 * P0 + Q0 * (1.0 - P1)) / dB,
                                    (Q0 + P1 * (Q1 - Q0)) / dC))
            top_den = np.where(Q1 <= Q0, dA, np.where(P0 <= P1, dB, dC))
            bot = np.where(P0 <= P1, P0 / dB,
                           np.where(Q1 <= Q0,
                                    (P0 * Q1 + P1 * (1.0 - Q0)) / dA,
                                    (P1 + Q0 * (P0 - P1)) / dC))
            bot_den = np.where(P0 <= P1, dB, np.where(Q1 <= Q0, dA, dC))
        wtop = r0 <= r1
        return (np.where(wtop, top, bot), np.where(wtop, top_den, bot_den))

    g0, den0 = gamma_vec(QQ[0, 0], QQ[0, 1], PP[0, 0], PP[0, 1], rr[0, 0], rr[0, 1])
    g1, den1 = gamma_vec(QQ[1, 0], QQ[1, 1], PP[1, 0], PP[1, 1], rr[1, 0], rr[1, 1])

    lhs = 2.0 - r
    rhs = (np.minimum(rr[0, 0], rr[0, 1]) + (1.0 - g0) * np.abs(rr[0, 0] - rr[0, 1])
           + np.minimum(rr[1, 0], rr[1, 1]) + (1.0 - g1) * np.abs(rr[1, 0] - rr[1, 1]))
    degenerate = ((den0 == 0.0) | (den1 == 0.0)) & (r > 0.0)
    holds = np.where(r == 0.0, True, lhs > rhs)
    holds = holds & ~degenerate
    return holds, degenerate
