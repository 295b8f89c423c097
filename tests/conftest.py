import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from pca_ergo import BState, ParamQuad, derive

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
open_probs = st.floats(min_value=1e-3, max_value=1.0 - 1e-3, allow_nan=False)

# 0, 1 and values 1e-15 .. 1e-4 from each end, where the formulas cancel
NEAR = (0.0, 1e-15, 1e-9, 1e-4, 0.25)
EDGES_11 = NEAR + (0.5,) + tuple(1.0 - v for v in reversed(NEAR))

quads = st.builds(ParamQuad, probs, probs, probs, probs)
positive_quads = st.builds(ParamQuad, open_probs, open_probs,
                           open_probs, open_probs)


def random_quads(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random((n, 4))


def exact(quad):
    """`derive` of the quad's entries as `Fraction`s: every result exact."""
    return derive(ParamQuad(*map(Fraction, quad)))


def prob_one(quad, left: int, right: int):
    """p(left, right): the probability the child of (left, right) is 1."""
    return quad.as_tuple()[2 * left + right]


def state_marginal(law) -> dict:
    """Total mass of a `chain.AtomLaw` landing on each `to` label."""
    out: dict = {}
    for _, _, to, _, mass in law.moves:
        out[to] = out.get(to, 0.0) + mass
    return out


def chain_block(chain, rng: np.random.Generator, c0: int, n: int):
    """One block of n steps of an `AtomChain` from class c0, drawn alone:
    (displacements, `to` labels, last class).  The per-block reference for
    `AtomChain.sample`."""
    x, y = rng.random((2, n))
    return chain.run(x, y, c0, True)


def truncated_expectation(law, mass_tol=1e-13):
    """Independent oracle for `AtomLaw.mean`: sum the atoms, and each tail
    family term by term until its remaining mass drops below mass_tol."""
    total = 0.0
    for base, slope, _, _, mass in law.moves:
        if slope == 0:
            total += base * mass
            continue
        k = 0
        while mass * law.ratio ** k > mass_tol:
            total += (base + slope * k) * mass * (1.0 - law.ratio) \
                * law.ratio ** k
            k += 1
    return total


def sample_increment(law, rng: np.random.Generator):
    """One exact draw of (delta, new state) from a law.

    A scalar draw over the move list that shares no code with `AtomChain`;
    the tests use it as the independent reference for the vectorised
    sampler.
    """
    u = rng.random()
    for base, slope, to, _, mass in law.moves:
        if mass > 0.0:
            # a u past the last move by rounding takes the last move
            move = base, slope, to
            if u < mass:
                break
            u -= mass
    base, slope, to = move
    if slope == 0 or law.ratio == 0.0:
        k = 0
    else:
        k = int(math.log(1.0 - rng.random()) / math.log(law.ratio))
    return base + slope * k, BState(to)


def law_probs(law, max_k):
    """P(delta, to) of a law, tail families enumerated up to K = max_k."""
    probs = {}
    for base, slope, to, _, mass in law.moves:
        for k in range(max_k + 1 if slope else 1):
            p = mass * (1.0 - law.ratio) * law.ratio ** k if slope else mass
            probs[base + slope * k, to] = probs.get((base + slope * k, to),
                                                    0.0) + p
    return probs


@pytest.fixture(scope="session")
def artifacts_dir():
    """The committed artifacts directory; tests only read it."""
    import pathlib
    return pathlib.Path(__file__).resolve().parent.parent / "artifacts"
