"""Size-2 boundary refinement for the rule-1000 automaton with errors.

Boundary states are pairs over {0,1,*} (outermost island cells), effective
positions are half-integers smoothing the period-2 oscillation of the
error-free dynamics, and the two scenario laws carry a geometric tail of
ratio 2*eps.  All position arithmetic uses doubled integers, never floats.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .chain import AtomChain
from .params import TOL_IDENTITY, Side
from .walk import DriftEstimate, batch_means_stderr

# Pair states as 2-char strings, outermost cell first on the right boundary.
S1 = ("01", "11", "*1", "10")
STATE_00 = "00"
STATE_STAR0 = "*0"
REACHABLE = S1 + (STATE_00, STATE_STAR0)


@dataclass(frozen=True)
class HalfInt:
    """Exact half-integer: value = doubled / 2."""

    doubled: int

    def __add__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.doubled + other.doubled)

    def __sub__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.doubled - other.doubled)

    def __float__(self) -> float:
        return self.doubled / 2.0

    def __str__(self) -> str:
        if self.doubled % 2 == 0:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"


def _check_eps(eps: float) -> None:
    if not (0.0 < eps < 0.5):
        raise ValueError(f"eps={eps!r} must lie strictly inside (0, 1/2)")


def tilde_offset(pair: str, side: Side) -> HalfInt:
    """Offset turning a raw boundary position into the effective one."""
    if side is Side.RIGHT:
        if pair in ("01", "11", "*1"):
            return HalfInt(0)
        if pair == "00":
            return HalfInt(-1)
        return HalfInt(-2)
    # left side: mirror with opposite signs
    if pair in ("10", "11", "1*"):
        return HalfInt(0)
    if pair == "00":
        return HalfInt(1)
    return HalfInt(2)


@dataclass(frozen=True)
class RefinedLaw:
    """Displacement law for the refined right boundary.

    head atoms: (doubled delta, new pair, prob).  Each tail family means
    P(doubled delta = start + 2k, pair) = ratio**k * weight for k >= 0,
    with ratio = 2*eps.
    """

    from_class: str
    head: tuple
    tails: tuple  # of (start_doubled: int, pair: str, weight: float)
    ratio: float

    def total_mass(self) -> float:
        head = sum(p for _, _, p in self.head)
        tail = sum(w for _, _, w in self.tails) / (1.0 - self.ratio)
        return head + tail

    def mean(self) -> float:
        m = sum(dd * p for dd, _, p in self.head) / 2.0
        geo = 1.0 / (1.0 - self.ratio)
        for start, _, w in self.tails:
            m += w * (start / 2.0 * geo + self.ratio * geo * geo)
        return m

    def state_marginal(self) -> dict:
        out: dict = {}
        for _, s, p in self.head:
            out[s] = out.get(s, 0.0) + p
        for _, s, w in self.tails:
            out[s] = out.get(s, 0.0) + w / (1.0 - self.ratio)
        return out


def refined_law_s1(eps: float) -> RefinedLaw:
    """One-step law when the right pair lies in {(0,1),(1,1),(*,1),(1,0)}."""
    _check_eps(eps)
    e, f, g = eps, 1.0 - eps, 1.0 - 2.0 * eps
    head = (
        (-2, "10", e * f * g),
        (-1, "00", f * f * g),
        (0, "01", f * e * g),
        (0, "11", e * e * g),
        (0, "10", e * e * g),
        (1, "00", f * e * g),
        (2, "01", f * e * g),
        (2, "11", e * e * g),
    )
    w = e * e * g
    tails = ((2, "10", w), (3, "00", w), (4, "01", w), (4, "11", w))
    law = RefinedLaw(from_class="S1", head=head, tails=tails, ratio=2.0 * eps)
    assert abs(law.total_mass() - 1.0) <= 64 * TOL_IDENTITY
    return law


def refined_law_00(eps: float) -> RefinedLaw:
    """One-step law when the right pair is (0,0)."""
    _check_eps(eps)
    e, f, g = eps, 1.0 - eps, 1.0 - 2.0 * eps
    head = (
        (-3, "*0", g * e * g),
        (-3, "10", e * e * g),
        (-2, "00", e * e * g),
        (-1, "*1", g * f * g),
        (-1, "01", e * f * g),
        (-1, "11", e * f * g),
        (-1, "10", f * e * g),
        (0, "00", e * e * g),
        (1, "01", e * e * g),
        (1, "11", f * e * g),
    )
    w = e * e * g
    tails = ((1, "10", w), (2, "00", w), (3, "01", w), (3, "11", w))
    law = RefinedLaw(from_class="00", head=head, tails=tails, ratio=2.0 * eps)
    assert abs(law.total_mass() - 1.0) <= 64 * TOL_IDENTITY
    return law


def mean_s1(eps: float) -> float:
    """Closed-form mean displacement from the S1 pair class."""
    _check_eps(eps)
    return (-0.5 + 2.5 * eps + 3.5 * eps ** 2
            + 8.0 * eps ** 3 / (1.0 - 2.0 * eps))


def mean_00(eps: float) -> float:
    """Closed-form mean displacement from the (0,0) pair."""
    _check_eps(eps)
    return (-0.5 + 7.5 * eps ** 2 + 6.0 * eps ** 3
            + 16.0 * eps ** 4 / (1.0 - 2.0 * eps))


def refined_drift_bound(eps: float) -> float:
    """Lower bound on the asymptotic growth rate of the effective gap."""
    _check_eps(eps)
    bound = (15.0 * eps ** 2 + 12.0 * eps ** 3
             + 32.0 * eps ** 4 / (1.0 - 2.0 * eps))
    assert abs(bound - 2.0 * (mean_00(eps) + 0.5)) <= 64 * TOL_IDENTITY
    return bound


# Law class of each reachable pair: S1 -> 0, {(0,0), (*,0)} -> 1.  (*,0)
# gets the (0,0) law: the smaller-mean concrete case, keeping the simulated
# drift a valid lower-bound companion.
_CLASS = {**{pair: 0 for pair in S1}, STATE_00: 1, STATE_STAR0: 1}


def _sampler(eps: float) -> AtomChain:
    """The pair chain as an `AtomChain` on its two law classes; the `to`
    labels are the classes, displacements are doubled integers."""
    moves = []
    for law in (refined_law_s1(eps), refined_law_00(eps)):
        ms = [(dd, 0, _CLASS[s], _CLASS[s], p) for dd, s, p in law.head]
        ms += [(start, 2, _CLASS[s], _CLASS[s], w / (1.0 - law.ratio))
               for start, s, w in law.tails]
        moves.append(ms)
    return AtomChain(moves, 2.0 * eps)


def simulate_refined(eps: float, steps: int, burn_in: int,
                     seed: int) -> DriftEstimate:
    """Monte Carlo stationary mean of the refined right-boundary increment.

    The mean of `steps` increments of one chain started in (0,0), the
    worst-mean state, after `burn_in` steps.  Increments are accumulated as
    doubled integers and halved only for reporting.
    """
    _check_eps(eps)
    doubled = _sampler(eps).sample(np.random.default_rng(seed),
                                   _CLASS[STATE_00], steps, burn_in)
    incr = doubled / 2.0
    return DriftEstimate(mean=float(incr.mean()),
                         stderr=batch_means_stderr(incr),
                         steps=steps, seed=seed)


def exact_refined_drift(eps: float) -> float:
    """Stationary mean of the simulated pair chain (oracle).

    The law of a step depends on the pair only through its class, so the
    classes form a two-state chain: it leaves S1 with mass a (into (0,0)
    and (*,0)) and enters S1 from (0,0) with mass b, and S1 has stationary
    weight b / (a + b).
    """
    law_s1, law_00 = refined_law_s1(eps), refined_law_00(eps)
    a = sum(m for s, m in law_s1.state_marginal().items() if _CLASS[s] == 1)
    b = sum(m for s, m in law_00.state_marginal().items() if _CLASS[s] == 0)
    return (b * law_s1.mean() + a * law_00.mean()) / (a + b)


def sweep_to_csv(eps_grid: list, path: str, steps: int = 10 ** 5,
                 burn_in: int = 10 ** 3, seed: int = 0) -> None:
    """CSV of closed forms vs simulation across an error grid."""
    try:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["eps", "mean_s1", "mean_00", "drift_bound",
                        "empirical_drift", "stderr"])
            for i, eps in enumerate(eps_grid):
                est = simulate_refined(eps, steps, burn_in, seed + i)
                w.writerow([format(v, ".17g") for v in
                            (eps, mean_s1(eps), mean_00(eps),
                             refined_drift_bound(eps), est.mean, est.stderr)])
    except OSError as exc:
        raise OSError(f"cannot write refined sweep to {path}: {exc}") from exc
