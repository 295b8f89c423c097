"""Size-2 boundary refinement for the rule-1000 automaton with errors.

Boundary states are pairs over {0,1,*} (outermost island cells), effective
positions are half-integers smoothing the period-2 oscillation of the
error-free dynamics, and the two scenario laws carry a geometric tail of
ratio 2*eps.  All position arithmetic uses doubled integers, never floats.
"""
from __future__ import annotations

import csv
import io

from .chain import AtomLaw, DriftEstimate, estimate_drift, two_class_mean
from .params import TOL_IDENTITY

# Pair states as 2-char strings, outermost cell first on the right boundary.
S1 = ("01", "11", "*1", "10")
STATE_00 = "00"
STATE_STAR0 = "*0"
REACHABLE = S1 + (STATE_00, STATE_STAR0)


def _check_eps(eps: float) -> None:
    if not (0.0 < eps < 0.5):
        raise ValueError(f"eps={eps!r} must lie strictly inside (0, 1/2)")


# Law class of each reachable pair: S1 -> 0, {(0,0), (*,0)} -> 1.  (*,0)
# gets the (0,0) law: the smaller-mean concrete case, keeping the simulated
# drift a valid lower-bound companion.
_CLASS = {**{pair: 0 for pair in S1}, STATE_00: 1, STATE_STAR0: 1}


def _law(eps: float, head: tuple, tails: tuple) -> AtomLaw:
    """`AtomLaw` of head atoms (doubled delta, pair, prob) and tail
    families (doubled start, pair, weight), each family stepping by 2 with
    ratio 2*eps; `to` labels are indices into `REACHABLE`."""
    ratio = 2.0 * eps
    moves = tuple((dd, 0, REACHABLE.index(s), _CLASS[s], p)
                  for dd, s, p in head)
    moves += tuple((start, 2, REACHABLE.index(s), _CLASS[s],
                    w / (1.0 - ratio))
                   for start, s, w in tails)
    law = AtomLaw(moves, ratio)
    assert abs(law.total_mass() - 1.0) <= 64 * TOL_IDENTITY
    return law


def refined_law_s1(eps: float) -> AtomLaw:
    """One-step law when the right pair lies in {(0,1),(1,1),(*,1),(1,0)},
    in doubled displacements."""
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
    return _law(eps, head, tails)


def refined_law_00(eps: float) -> AtomLaw:
    """One-step law when the right pair is (0,0), in doubled
    displacements."""
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
    return _law(eps, head, tails)


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


def simulate_refined(eps: float, steps: int, burn_in: int,
                     seed: int) -> DriftEstimate:
    """Monte Carlo stationary mean of the refined right-boundary increment.

    The mean of `steps` increments of one chain started in (0,0), the
    worst-mean state, after `burn_in` steps.  Increments are accumulated as
    doubled integers and halved only for reporting; halving is exact, so
    the halved mean and stderr are those of the halved increments.
    """
    _check_eps(eps)
    est = estimate_drift(refined_law_s1(eps), refined_law_00(eps),
                         _CLASS[STATE_00], steps, burn_in, seed)
    return DriftEstimate(mean=est.mean / 2.0, stderr=est.stderr / 2.0,
                         steps=steps, seed=seed)


def exact_refined_drift(eps: float) -> float:
    """Stationary mean of the simulated pair chain (oracle).

    The law of a step depends on the pair only through its class, S1 or
    {(0,0), (*,0)}, so this is `two_class_mean` of the two laws, halved.
    """
    return two_class_mean(refined_law_s1(eps), refined_law_00(eps)) / 2.0


def sweep_to_csv(eps_grid: list, steps: int, burn_in: int, seed: int) -> str:
    """CSV text of closed forms vs simulation across an error grid; the
    i-th error rate is simulated with seed + i."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["eps", "mean_s1", "mean_00", "drift_bound",
                "empirical_drift", "stderr"])
    for i, eps in enumerate(eps_grid):
        est = simulate_refined(eps, steps, burn_in, seed + i)
        w.writerow([format(v, ".17g") for v in
                    (eps, mean_s1(eps), mean_00(eps),
                     refined_drift_bound(eps), est.mean, est.stderr)])
    return buf.getvalue()
