"""Island-boundary random walks: exact one-step laws, samplers and Monte
Carlo drift estimation.

A law is a finite head plus a geometric tail: runs of freshly decorrelated
cells attach to the boundary with ratio 1 - r per extra cell.
"""
from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

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


def increment_law(d: DerivedParams, side: Side, y: BState) -> IncrementLaw:
    """Exact one-step law of a boundary, by known-state y.

    The forgotten state substitutes the concrete state with the larger
    remainder r^(i), the worst case for the island.
    """
    if d.r <= 0.0:
        raise ValueError("increment law requires r > 0")
    if y is BState.STAR:
        i = side.sup
        worst = BState.ZERO if d.rr[i][0] >= d.rr[i][1] else BState.ONE
        law = increment_law(d, side, worst)
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
    """One exact draw of (delta, new state) from a law."""
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


class _LawSampler:
    """Vectorisable cumulative-table sampler for one law."""

    def __init__(self, law: IncrementLaw):
        self.law = law
        probs = [p for _, _, p in law.head]
        self.cum = []
        acc = 0.0
        for p in probs:
            acc += p
            self.cum.append(acc)
        self.head_mass = acc
        weights = [(s, w) for s, w in law.tail_weights.items() if w > 0.0]
        self.tail_states = [s for s, _ in weights]
        self.tail_cum = []
        acc2 = 0.0
        for _, w in weights:
            acc2 += w
            self.tail_cum.append(acc2)
        self.tail_mass = acc2
        self.log_ratio = math.log(law.ratio) if law.ratio > 0.0 else None

    def draw(self, rng: np.random.Generator):
        u = rng.random()
        if u < self.head_mass:
            idx = bisect_right(self.cum, u)
            delta, s, _ = self.law.head[idx]
            return delta, s
        v = rng.random() * self.tail_mass
        s = self.tail_states[bisect_right(self.tail_cum, v)]
        if self.log_ratio is None:
            k = 0
        else:
            k = int(math.log(1.0 - rng.random()) / self.log_ratio)
        return self.law.tail_start + self.law.tail_step * k, s


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
                    seed: int) -> list:
    """Trajectory of one island started with gap n0, until death or horizon.

    Death is the first time the gap j - i drops below 3, after which the
    two boundaries are no longer independent.
    """
    if n0 < 3:
        raise ValueError("initial gap must be >= 3")
    if d.r <= 0.0:
        raise ValueError("island simulation requires r > 0")
    rng = np.random.default_rng(seed)
    x, y = creation_states(d, rng)
    laws_left = {s: _LawSampler(increment_law(d, Side.LEFT, s)) for s in BState}
    laws_right = {s: _LawSampler(increment_law(d, Side.RIGHT, s)) for s in BState}
    i, j = 0, n0
    traj = [IslandState(t=0, i=i, j=j, x=x, y=y)]
    for t in range(1, horizon + 1):
        di, x = laws_left[x].draw(rng)
        dj, y = laws_right[y].draw(rng)
        i += di
        j += dj
        state = IslandState(t=t, i=i, j=j, x=x, y=y)
        traj.append(state)
        if not state.alive:
            break
    return traj


def trajectory_to_csv(traj: list, path: str) -> None:
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
    """Monte Carlo estimate of the stationary boundary drift."""
    rng = np.random.default_rng(seed)
    samplers = {s: _LawSampler(increment_law(d, side, s)) for s in BState}
    state = BState.ZERO
    increments = np.empty(steps, dtype=float)
    for _ in range(burn_in):
        _, state = samplers[state].draw(rng)
    for t in range(steps):
        delta, state = samplers[state].draw(rng)
        increments[t] = delta
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
