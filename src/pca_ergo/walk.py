"""Island-boundary random walks: exact one-step laws, samplers and Monte
Carlo drift estimation.

A law is a finite head plus a geometric tail: runs of freshly decorrelated
cells attach to the boundary with ratio 1 - r per extra cell.
"""
from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .chain import BLOCK, AtomChain
from .params import BState, DerivedParams, Side, TOL_IDENTITY, tree_weights


@dataclass(frozen=True)
class IncrementLaw:
    """Distribution of (position increment, new boundary state).

    head holds the atoms at the small displacements; the tail means
    P(delta = tail_start + tail_step * k, state s) = ratio**k * weights[s]
    for k >= 0.  tail_step is +1 on the right boundary and -1 on the left
    (fresh cells extend the island outward on either side).
    """

    side: Side
    from_state: BState
    head: tuple  # of (delta: int, to: BState, prob: float)
    tail_start: int
    tail_step: int
    ratio: float
    tail_weights: dict  # BState -> float

    def total_mass(self) -> float:
        head = sum(p for _, _, p in self.head)
        tail = sum(self.tail_weights.values())
        if tail == 0.0:
            return head
        return head + tail / (1.0 - self.ratio)

    def mean(self) -> float:
        m = sum(delta * p for delta, _, p in self.head)
        w = sum(self.tail_weights.values())
        if w > 0.0:
            geo = 1.0 / (1.0 - self.ratio)
            # E[start + step*K] summed against the un-normalised tail
            m += w * (self.tail_start * geo
                      + self.tail_step * self.ratio * geo * geo)
        return m

    def state_marginal(self) -> dict:
        """Total mass landing on each new state (head plus tail)."""
        out = {s: 0.0 for s in BState}
        for _, s, p in self.head:
            out[s] += p
        for s, w in self.tail_weights.items():
            if w > 0.0:
                out[s] += w / (1.0 - self.ratio)
        return out


def _worst_state(d: DerivedParams, side: Side) -> BState:
    """The concrete state with the larger remainder r^(i): Star's stand-in."""
    i = side.sup
    return BState.ZERO if d.rr[i][0] >= d.rr[i][1] else BState.ONE


def increment_law(d: DerivedParams, side: Side, y: BState) -> IncrementLaw:
    """Exact one-step law of a boundary, by known-state y.

    The forgotten state substitutes the concrete state with the larger
    remainder r^(i), the worst case for the island.
    """
    if d.r <= 0.0:
        raise ValueError("increment law requires r > 0")
    if y is BState.STAR:
        law = increment_law(d, side, _worst_state(d, side))
        return IncrementLaw(side=side, from_state=BState.STAR, head=law.head,
                            tail_start=law.tail_start, tail_step=law.tail_step,
                            ratio=law.ratio, tail_weights=law.tail_weights)
    x = y.value
    p, q, r = d.p, d.q, d.r
    if side is Side.RIGHT:
        r0, q0, p0 = d.rr[0][x], d.qq[0][x], d.pp[0][x]
        r1, q1, p1 = d.rr[1][x], d.qq[1][x], d.pp[1][x]
        head = (
            (-1, BState.STAR, r1 * r0),
            (-1, BState.ZERO, q1 * r0),
            (-1, BState.ONE, p1 * r0),
            (0, BState.ZERO, q0 * r),
            (0, BState.ONE, p0 * r),
        )
        tail_start, tail_step = 1, 1
        w = {BState.ZERO: (1.0 - r0) * q * r,
             BState.ONE: (1.0 - r0) * p * r,
             BState.STAR: 0.0}
    else:
        # Left boundary: the cell just above the boundary has both parents
        # inside the island, so it never turns back into ?; the boundary
        # never retreats (max delta = 0) and the island keeps sliding left.
        r0, q0, p0 = d.rr[0][x], d.qq[0][x], d.pp[0][x]
        r1, q1, p1 = d.rr[1][x], d.qq[1][x], d.pp[1][x]
        head = (
            (0, BState.STAR, r0 * r1),
            (0, BState.ZERO, q0 * r1),
            (0, BState.ONE, p0 * r1),
            (-1, BState.ZERO, q1 * r),
            (-1, BState.ONE, p1 * r),
        )
        tail_start, tail_step = -2, -1
        w = {BState.ZERO: (1.0 - r1) * q * r,
             BState.ONE: (1.0 - r1) * p * r,
             BState.STAR: 0.0}
    law = IncrementLaw(side=side, from_state=y, head=head,
                       tail_start=tail_start, tail_step=tail_step,
                       ratio=1.0 - r, tail_weights=w)
    assert abs(law.total_mass() - 1.0) <= 64 * TOL_IDENTITY
    return law


def sample_increment(law: IncrementLaw, rng: np.random.Generator):
    """One exact draw of (delta, new state) from a law.

    A scalar draw that shares no code with `AtomChain`; the tests use it as
    the independent reference for the vectorised sampler.
    """
    u = rng.random()
    acc = 0.0
    for delta, s, prob in law.head:
        acc += prob
        if u < acc:
            return delta, s
    # tail: state and geometric index are independent
    weights = [(s, w) for s, w in law.tail_weights.items() if w > 0.0]
    total = sum(w for _, w in weights)
    v = rng.random() * total
    state = weights[-1][0]
    for s, w in weights:
        if v < w:
            state = s
            break
        v -= w
    if law.ratio == 0.0:
        k = 0
    else:
        k = int(math.log(1.0 - rng.random()) / math.log(law.ratio))
    return law.tail_start + law.tail_step * k, state


def _sampler(d: DerivedParams, side: Side):
    """The boundary's state chain as an `AtomChain`, and each state's class.

    Class 0 carries the law from 0 and class 1 the law from 1; Star copies
    the law of its worst-case concrete state, so it shares that class.  The
    `to` labels are `BState` values.
    """
    cls = {BState.ZERO: 0, BState.ONE: 1,
           BState.STAR: _worst_state(d, side).value}
    moves = []
    for y in (BState.ZERO, BState.ONE):
        law = increment_law(d, side, y)
        ms = [(delta, 0, s.value, cls[s], p) for delta, s, p in law.head]
        ms += [(law.tail_start, law.tail_step, s.value, cls[s],
                w / (1.0 - law.ratio))
               for s, w in law.tail_weights.items() if w > 0.0]
        moves.append(ms)
    return AtomChain(moves, 1.0 - d.r), cls


@dataclass
class IslandState:
    """Snapshot of one decorrelated island: boundary positions and states."""

    t: int
    i: int
    j: int
    x: BState
    y: BState

    @property
    def alive(self) -> bool:
        return self.j - self.i >= 3


class Trajectory(Sequence):
    """States of one island at t = 0, 1, ..., kept as arrays of boundary
    positions and `BState` values; indexing builds the `IslandState`s."""

    def __init__(self, i: np.ndarray, j: np.ndarray, x: np.ndarray,
                 y: np.ndarray):
        self.i, self.j, self.x, self.y = i, j, x, y

    def __len__(self) -> int:
        return len(self.i)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[t] for t in range(*k.indices(len(self)))]
        t = range(len(self))[k]
        return IslandState(t=t, i=int(self.i[t]), j=int(self.j[t]),
                           x=BState(int(self.x[t])), y=BState(int(self.y[t])))


def creation_states(d: DerivedParams, rng: np.random.Generator,
                    n: int = 2) -> list:
    """Boundary values at island creation: the envelope (?,?) outcome
    conditioned on being decorrelated, i.e. 0 w.p. q/(p+q), 1 w.p. p/(p+q)."""
    if d.p + d.q <= 0.0:
        raise ValueError("island creation impossible when p + q = 0")
    prob_one = d.p / (d.p + d.q)
    return [BState.ONE if rng.random() < prob_one else BState.ZERO
            for _ in range(n)]


def simulate_island(d: DerivedParams, n0: int, horizon: int,
                    seed: int, until_gap: int | None = None) -> Trajectory:
    """Trajectory of one island started with gap n0, until death or horizon,
    as a sequence of `IslandState`s.

    Death is the first time the gap j - i drops below 3, after which the
    two boundaries are no longer independent.  With until_gap set, the
    trajectory also ends at the first state whose gap is >= until_gap.
    Both boundaries are stepped in blocks of `chain.BLOCK` steps; the draws
    after the last state are discarded.
    """
    if n0 < 3:
        raise ValueError("initial gap must be >= 3")
    if d.r <= 0.0:
        raise ValueError("island simulation requires r > 0")
    rng = np.random.default_rng(seed)
    x, y = creation_states(d, rng)
    pieces = [([0], [n0], np.int8([x.value]), np.int8([y.value]))]
    left, cls_left = _sampler(d, Side.LEFT)
    right, cls_right = _sampler(d, Side.RIGHT)
    cx, cy = cls_left[x], cls_right[y]
    t, i, j = 0, 0, n0
    done = until_gap is not None and n0 >= until_gap
    while t < horizon and not done:
        n = min(BLOCK, horizon - t)
        di, xs, cx = left.block(rng, cx, n)
        dj, ys, cy = right.block(rng, cy, n)
        ii = i + np.cumsum(di)
        jj = j + np.cumsum(dj)
        stop = jj - ii < 3
        if until_gap is not None:
            stop |= jj - ii >= until_gap
        hit = np.flatnonzero(stop)
        done = hit.size > 0
        m = int(hit[0]) + 1 if done else n
        pieces.append((ii[:m], jj[:m], xs[:m], ys[:m]))
        t, i, j = t + m, int(ii[m - 1]), int(jj[m - 1])
    return Trajectory(*(np.concatenate(p) for p in zip(*pieces)))


def trajectory_to_csv(traj: Sequence, path: str) -> None:
    """Write a trajectory as CSV with columns t,i,j,x,y,alive."""
    try:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "i", "j", "x", "y", "alive"])
            for s in traj:
                w.writerow([s.t, s.i, s.j, str(s.x), str(s.y),
                            "true" if s.alive else "false"])
    except OSError as exc:
        raise OSError(f"cannot write trajectory to {path}: {exc}") from exc


@dataclass(frozen=True)
class DriftEstimate:
    mean: float
    stderr: float
    steps: int
    seed: int


def batch_means_stderr(values: np.ndarray, n_batches: int = 100) -> float:
    """Standard error of the mean of an autocorrelated series."""
    n = len(values) // n_batches
    if n < 1:
        raise ValueError("too few samples for batch means")
    batches = values[: n * n_batches].reshape(n_batches, n).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(n_batches))


def empirical_drift(d: DerivedParams, side: Side, steps: int, burn_in: int,
                    seed: int) -> DriftEstimate:
    """Monte Carlo estimate of the stationary boundary drift: the mean of
    `steps` increments of one chain started in 0, after `burn_in` steps."""
    chain, cls = _sampler(d, side)
    increments = chain.sample(np.random.default_rng(seed), cls[BState.ZERO],
                              steps, burn_in).astype(float)
    return DriftEstimate(mean=float(increments.mean()),
                         stderr=batch_means_stderr(increments),
                         steps=steps, seed=seed)


def marginal_chain(d: DerivedParams, side: Side) -> np.ndarray:
    """Transition matrix of the simulated state chain, Star law included.

    Differs from the analytic boundary chain in the Star row, which here is
    the marginal of the substituted worst-case law.
    """
    rows = []
    for s in (BState.ZERO, BState.ONE, BState.STAR):
        m = increment_law(d, side, s).state_marginal()
        rows.append([m[BState.ZERO], m[BState.ONE], m[BState.STAR]])
    return np.array(rows)


def exact_simulated_drift(d: DerivedParams, side: Side) -> float:
    """Stationary mean increment of the simulated (state, increment) chain.

    The stationary law comes from the tree weights of the marginal chain;
    ValueError when that chain has several closed classes, so no unique
    stationary law.
    """
    w = tree_weights(marginal_chain(d, side))
    total = sum(w)
    if total == 0.0:
        raise ValueError("marginal chain has several closed classes: "
                         "no unique stationary law")
    means = [increment_law(d, side, s).mean()
             for s in (BState.ZERO, BState.ONE, BState.STAR)]
    return sum(wi * m for wi, m in zip(w, means)) / total
