"""Island-boundary random walks: exact one-step laws, samplers and Monte
Carlo drift estimation.

A law is a `chain.AtomLaw`: atoms at the small displacements plus a
geometric tail, since runs of freshly decorrelated cells attach to the
boundary with ratio 1 - r per extra cell.  Its `to` labels are `BState`
values.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .chain import (BLOCK, GROUP, AtomChain, AtomLaw, DriftEstimate,
                    estimate_drift, two_class_mean, uniforms)
from .params import BState, DerivedParams, Side, TOL_IDENTITY, worst_state


def increment_law(d: DerivedParams, side: Side, y: BState) -> AtomLaw:
    """Exact one-step law of a boundary, by known-state y.

    The forgotten state substitutes the concrete state with the larger
    remainder r^(i), the worst case for the island, so a move into Star
    has that state's law class; a concrete state's class is its value.
    The tail families step by +1 on the right boundary and by -1 on the
    left (fresh cells extend the island outward on either side).
    """
    if d.r <= 0.0:
        raise ValueError("increment law requires r > 0")
    worst = worst_state(d, side)
    x = (worst if y is BState.STAR else y).value
    p, q, r = d.p, d.q, d.r
    a, b = side.sup, 1 - side.sup
    ra, qa, pa = d.rr[a][x], d.qq[a][x], d.pp[a][x]
    rb, qb, pb = d.rr[b][x], d.qq[b][x], d.pp[b][x]
    ratio = 1.0 - r
    # The right boundary's law, in superscripts a = side.sup and b = 1 - a.
    head = (
        (-1, BState.STAR, rb * ra),
        (-1, BState.ZERO, qb * ra),
        (-1, BState.ONE, pb * ra),
        (0, BState.ZERO, qa * r),
        (0, BState.ONE, pa * r),
    )
    moves = tuple((delta, 0, s.value,
                   worst.value if s is BState.STAR else s.value, prob)
                  for delta, s, prob in head)
    moves += tuple((1, 1, s.value, s.value, w / (1.0 - ratio))
                   for s, w in ((BState.ZERO, (1.0 - ra) * q * r),
                                (BState.ONE, (1.0 - ra) * p * r))
                   if w > 0.0)
    if side is Side.LEFT:
        # Cell k reads cells (k, k+1) of the row below, so the mirror image
        # of the right boundary's move delta is -1 - delta, not -delta: the
        # cell just above the left boundary has both parents inside the
        # island and never turns back into ?, so the boundary never
        # retreats (max delta = 0) and the island keeps sliding left.
        moves = tuple((-1 - base, -slope, *rest)
                      for base, slope, *rest in moves)
    law = AtomLaw(moves, ratio)
    assert abs(law.total_mass() - 1.0) <= 64 * TOL_IDENTITY
    return law


def _class_laws(d: DerivedParams, side: Side) -> tuple:
    """The laws from 0 and from 1: class c steps by the law from c."""
    return (increment_law(d, side, BState.ZERO),
            increment_law(d, side, BState.ONE))


@dataclass
class IslandState:
    """One row of a `Trajectory`: step t, boundary positions and states."""

    t: int
    i: int
    j: int
    x: BState
    y: BState


# eq=False: a generated __eq__ would compare the arrays elementwise
@dataclass(frozen=True, eq=False)
class Trajectory:
    """States of one island at t = 0, 1, ..., one entry per step: boundary
    positions i and j, and the boundary states x and y as int8 `BState`
    codes."""

    i: np.ndarray
    j: np.ndarray
    x: np.ndarray
    y: np.ndarray

    @property
    def alive(self) -> np.ndarray:
        """Per step, whether the island is alive: its gap j - i is >= 3."""
        return self.j - self.i >= 3

    def __getitem__(self, k) -> IslandState:
        """Row k as an `IslandState`.  The package reads the arrays; the
        benchmark's tracer (perfbench/tracer.py) reads `traj[-1].t` and
        iterates the rows."""
        t = range(len(self.i))[k]
        return IslandState(t=t, i=int(self.i[t]), j=int(self.j[t]),
                           x=BState(int(self.x[t])), y=BState(int(self.y[t])))


def creation_states(d: DerivedParams, rng: np.random.Generator) -> list:
    """Both boundary values at island creation: the envelope (?,?) outcome
    conditioned on being decorrelated, 0 w.p. q/(p+q), 1 w.p. p/(p+q)."""
    if d.p + d.q <= 0.0:
        raise ValueError("island creation impossible when p + q = 0")
    prob_one = d.p / (d.p + d.q)
    return [BState.ONE if rng.random() < prob_one else BState.ZERO
            for _ in range(2)]


def _leaves_int64(i: int, j: int, di, dj, until_gap: int | None):
    """Index in a pass of the first step after which a position or the gap
    lies outside int64 while the island still runs, or None: the pass summed
    in Python ints."""
    ii = i + np.cumsum(di, dtype=object)
    jj = j + np.cumsum(dj, dtype=object)
    gap = jj - ii
    outside = np.flatnonzero(np.any([(v < -2 ** 63) | (v >= 2 ** 63)
                                     for v in (ii, jj, gap)], axis=0))
    stop = gap < 3
    if until_gap is not None:
        stop |= gap >= until_gap
    ends = np.flatnonzero(stop)
    if outside.size and not (ends.size and ends[0] < outside[0]):
        return int(outside[0])
    return None


def simulate_island(d: DerivedParams, n0: int, horizon: int,
                    seed: int, until_gap: int | None = None) -> Trajectory:
    """Trajectory of one island started with gap n0, until death or horizon:
    the arrays of its states at t = 0, 1, ..., so horizon = 0 gives the start
    state alone.

    Death is the first time the gap j - i drops below 3, after which the
    two boundaries are no longer independent.  With until_gap set, the
    trajectory also ends at the first state whose gap is >= until_gap.
    Both boundaries are stepped side by side in passes of whole
    `chain.BLOCK`-step blocks, one block on the first pass, then doubling up
    to `chain.GROUP`, so an island that dies young draws one block; the
    draws after the last state are discarded.  ValueError when the start
    gap lies outside [3, 2**63), or when a boundary position or the gap
    would leave int64 before the trajectory ends.
    """
    if not 3 <= n0 < 2 ** 63:
        raise ValueError("initial gap must be >= 3 and < 2**63")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if d.r <= 0.0:
        raise ValueError("island simulation requires r > 0")
    rng = np.random.default_rng(seed)
    x, y = creation_states(d, rng)
    pieces = [([0], [n0], np.int8([x.value]), np.int8([y.value]))]
    left = AtomChain(*_class_laws(d, Side.LEFT))
    right = AtomChain(*_class_laws(d, Side.RIGHT))
    cx, cy = x.value, y.value
    # a step moves a boundary by at most 2 + K cells (the laws' bases lie
    # in [-2, 1] and their slopes are +-1), and K <= 36.74 / |log ratio|
    # since y <= 1 - 2**-53 gives log1p(-y) >= -53 log 2
    log_ratio = left.log_ratio
    step = 2 + (0 if log_ratio is None else math.floor(37 / -log_ratio))
    t, i, j = 0, 0, n0
    done = until_gap is not None and n0 >= until_gap
    g = 1
    while t < horizon and not done:
        n = min(g * BLOCK, horizon - t)
        (lx, ly), (rx, ry) = uniforms(rng, n, 2)
        di, xs, cx = left.run(lx, ly, cx, True)
        dj, ys, cy = right.run(rx, ry, cy, True)
        # a pass that stays inside int64 even at the largest steps needs no
        # check; only the others are summed in Python ints
        if max(abs(i), abs(j), abs(j - i)) + 2 * n * step >= 2 ** 63:
            out = _leaves_int64(i, j, di, dj, until_gap)
            if out is not None:
                raise ValueError(f"island positions leave the int64 range "
                                 f"at step {t + out + 1}")
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
        g = min(2 * g, GROUP)
    return Trajectory(*(np.concatenate(p) for p in zip(*pieces)))


def trajectory_to_csv(traj: Trajectory) -> str:
    """A trajectory as CSV text with columns t,i,j,x,y,alive."""
    states = np.array([str(BState(code)) for code in range(3)])
    alive = np.where(traj.alive, "true", "false")
    rows = zip(range(len(traj.i)), traj.i.tolist(), traj.j.tolist(),
               states[traj.x].tolist(), states[traj.y].tolist(),
               alive.tolist())
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t", "i", "j", "x", "y", "alive"])
    w.writerows(rows)
    return buf.getvalue()


def empirical_drift(d: DerivedParams, side: Side, steps: int, burn_in: int,
                    seed: int) -> DriftEstimate:
    """Monte Carlo estimate of the stationary boundary drift: the mean of
    `steps` increments of one chain started in 0, after `burn_in` steps."""
    return estimate_drift(*_class_laws(d, side), BState.ZERO.value, steps,
                          burn_in, seed)


def exact_simulated_drift(d: DerivedParams, side: Side) -> float:
    """Stationary mean increment of the simulated (state, increment) chain.

    The step law depends on the state only through its class (Star shares
    its worst concrete state's), so this is `two_class_mean` of the laws
    from 0 and from 1; ValueError when both classes are closed, so no
    unique stationary law.
    """
    return two_class_mean(*_class_laws(d, side))
