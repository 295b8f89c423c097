"""One law type, one drift oracle and one sampler for the boundary chains.

Both boundary laws (`walk.increment_law` and `refined.refined_law_s1` /
`refined_law_00`) are `AtomLaw`s: a finite list of moves ``(base, slope,
to, to_class, mass)``.  An atom is a move with slope 0.  A tail family is a
move with slope != 0 and mass w / (1 - ratio): its displacement is
``base + slope * K`` with K geometric, P(K >= k) = ratio**k, one ratio for
the whole chain.

A step's law depends on the from-state only through its law class, and both
boundary chains have two classes, so the chain is sampled on the classes
and its stationary mean step is a two-class closed form (`two_class_mean`).
Each step uses two uniforms, drawn in blocks of `BLOCK` steps: x picks the
move by inversion and y sets K.  Each class lists its moves with those into
class 0 first, so the class after a step is one comparison of x with a
threshold; the class path of a block then follows from a scan over the
resulting maps {0,1} -> {0,1} (`_class_path`), and one search over both
classes' tables finds the moves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BLOCK = 1024


def _class_path(c0: int, next0: np.ndarray, next1: np.ndarray) -> np.ndarray:
    """Class before each step, for a two-class chain started in class c0.

    Step t sends class 0 to next0[t] and class 1 to next1[t] (booleans).
    After step t the class is the image of the last constant step L <= t,
    flipped once per swapping step in (L, t]; with no constant step, c0
    flipped once per swapping step in [0, t].
    """
    n = len(next0)
    parity = np.logical_xor.accumulate(next0 & ~next1)
    # at a constant step L store 2 (L + 1) + (image of L xor flips up to L),
    # elsewhere c0 < 2; a running maximum then finds the last L
    enc = np.where(next0 == next1,
                   2 * np.arange(1, n + 1) + (next0 ^ parity), c0)
    after = (np.maximum.accumulate(enc) & 1).astype(bool) ^ parity
    path = np.empty(n, dtype=np.int64)
    path[0] = c0
    path[1:] = after[:-1]
    return path


@dataclass(frozen=True)
class AtomLaw:
    """One step's law: moves ``(base, slope, to, to_class, mass)`` whose
    tail families share the geometric ratio.  `to` labels the new state and
    `to_class` is its law class, 0 or 1."""

    moves: tuple
    ratio: float

    def total_mass(self) -> float:
        return sum(m[4] for m in self.moves)

    def mean(self) -> float:
        """Mean displacement; a tail family adds slope * E[K] with
        E[K] = ratio / (1 - ratio)."""
        m = sum(base * mass for base, _, _, _, mass in self.moves)
        tail = sum(slope * mass for _, slope, _, _, mass in self.moves)
        if tail != 0.0:
            m += tail * self.ratio / (1.0 - self.ratio)
        return m

    def state_marginal(self) -> dict:
        """Total mass landing on each `to` label."""
        out: dict = {}
        for _, _, to, _, mass in self.moves:
            out[to] = out.get(to, 0.0) + mass
        return out


def two_class_mean(law0: AtomLaw, law1: AtomLaw) -> float:
    """Stationary mean step of the chain that steps by law c from class c.

    The classes form a two-state chain that leaves class 0 with mass a and
    class 1 with mass b, so class 0 has stationary weight b / (a + b).
    ValueError when a + b = 0: both classes are closed and there is no
    unique stationary law.
    """
    a = sum(m[4] for m in law0.moves if m[3] == 1)
    b = sum(m[4] for m in law1.moves if m[3] == 0)
    if a + b == 0.0:
        raise ValueError("both law classes are closed: no unique "
                         "stationary law")
    return (b * law0.mean() + a * law1.mean()) / (a + b)


class AtomChain:
    """Two-class chain that steps by law0 from class 0 and by law1 from
    class 1; both laws share one tail ratio and their masses each sum to 1
    up to rounding.  `to` labels are returned to callers that need the
    states."""

    def __init__(self, law0: AtomLaw, law1: AtomLaw):
        ratio = law0.ratio
        if law1.ratio != ratio:
            raise ValueError(f"tail ratios {ratio!r} and {law1.ratio!r} "
                             "differ")
        if not 0.0 <= ratio < 1.0:
            raise ValueError(f"tail ratio {ratio!r} must lie in [0, 1)")
        self.log_ratio = math.log(ratio) if ratio > 0.0 else None
        kept = [sorted((m for m in law.moves if m[4] > 0.0),
                       key=lambda m: m[3])
                for law in (law0, law1)]
        width = max(len(ms) for ms in kept)
        rows, cums, self.threshold = [], [], []
        for c, ms in enumerate(kept):
            # class c's cumulative masses live in [c, c + 1]; padding in
            # front repeats the lower end, so its interval is empty
            pad = width - len(ms)
            rows += [(0, 0, 0, 0, 0.0)] * pad + ms
            cum = np.cumsum([m[4] for m in ms])
            cum = c + np.concatenate((np.zeros(pad), cum / cum[-1]))
            cums.append(cum)
            # x >= threshold exactly when the search lands on a move into
            # class 1; with none, never
            first1 = pad + sum(m[3] == 0 for m in ms)
            self.threshold.append(np.inf if first1 == width
                                  else np.concatenate(([c], cum))[first1])
        table = np.array(rows, dtype=float)
        self.cum = np.concatenate(cums)
        self.base = table[:, 0].astype(np.int64)
        self.slope = table[:, 1].astype(np.int64)
        self.to = table[:, 2].astype(np.int8)

    def block(self, rng: np.random.Generator, c0: int, n: int):
        """n steps from class c0: (displacements, `to` labels, last class).

        Class c searches x + c, so the class decision and the move come from
        the same rounded value.
        """
        x, y = rng.random((2, n))
        next0 = x >= self.threshold[0]
        next1 = x + 1.0 >= self.threshold[1]
        path = _class_path(c0, next0, next1)
        move = np.minimum(np.searchsorted(self.cum, x + path, side="right"),
                          len(self.cum) - 1)
        delta = self.base[move]
        if self.log_ratio is not None:
            k = np.floor(np.log1p(-y) / self.log_ratio).astype(np.int64)
            delta += self.slope[move] * k
        last = next1[-1] if path[-1] else next0[-1]
        return delta, self.to[move], int(last)

    def sample(self, rng: np.random.Generator, c0: int, steps: int,
               burn_in: int = 0) -> np.ndarray:
        """Displacements of `steps` moves that follow `burn_in` discarded
        moves, all one chain started in class c0."""
        out = np.empty(steps, dtype=np.int64)
        total = burn_in + steps
        c = c0
        for lo in range(0, total, BLOCK):
            n = min(BLOCK, total - lo)
            delta, _, c = self.block(rng, c, n)
            skip = max(0, burn_in - lo)
            if skip < n:
                out[lo + skip - burn_in:lo + n - burn_in] = delta[skip:]
        return out
