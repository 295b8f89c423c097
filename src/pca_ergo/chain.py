"""One law type, one drift oracle, one sampler and one Monte Carlo drift
estimator for the boundary chains.

Both boundary laws (`walk.increment_law` and `refined.refined_law_s1` /
`refined_law_00`) are `AtomLaw`s: a finite list of moves ``(base, slope,
to, to_class, mass)``.  An atom is a move with slope 0.  A tail family is a
move with slope != 0 and mass w / (1 - ratio): its displacement is
``base + slope * K`` with K geometric, P(K >= k) = ratio**k, one ratio for
the whole chain.

A step's law depends on the from-state only through its law class, and both
boundary chains have two classes, so the chain is sampled on the classes
and its stationary mean step is a two-class closed form (`two_class_mean`).
Each step uses two uniforms: x picks the move by inversion and y sets K.
The stream is laid out in blocks of `BLOCK` steps, each block drawing its x
row and then its y row (`uniforms`); the sampler steps up to `GROUP` blocks
in one vectorised pass, which reads the same stream as block-by-block
draws.  Each class lists its moves with those into class 0 first, so the
class after a step is one comparison of x with a threshold; the class path
of a pass then follows from a scan over the resulting maps {0,1} -> {0,1}
(`_class_path`), and one search over both classes' tables, started from a
guide table (Chen and Asau's method for inversion by table lookup), finds
the moves.  `estimate_drift` takes the mean of one sampled chain and its
batch-means standard error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BLOCK = 1024    # steps per block of the uniform stream
GROUP = 4       # blocks per vectorised pass, chosen by a timing sweep
_RAMP = np.arange(2, 2 * GROUP * BLOCK + 2, 2)   # 2 (t + 1) over one pass
_GUIDE = 64     # guide-table cells per unit of the search value
_GRID = np.arange(2 * _GUIDE + 1) / _GUIDE


def uniforms(rng: np.random.Generator, n: int, chains: int = 1) -> np.ndarray:
    """(chains, 2, n) uniforms: the x and y rows of n steps of each of
    `chains` chains stepped side by side.

    The stream is that of per-block draws: block by block, the (2, BLOCK)
    rows of chain 0, then of chain 1, ...; a last partial block draws
    (chains, 2, rem).  Generator.random fills in order, so one draw of many
    blocks reads the same numbers as one draw per block.
    """
    full, rem = divmod(n, BLOCK)
    parts = []
    if full:
        u = rng.random((full, chains, 2, BLOCK))
        parts.append(u.transpose(1, 2, 0, 3).reshape(chains, 2, full * BLOCK))
    if rem:
        parts.append(rng.random((chains, 2, rem)))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=2)


def _class_path(c0: int, next0: np.ndarray, next1: np.ndarray,
                swaps: bool) -> np.ndarray:
    """Class before each step, then after the last: n + 1 values 0/1 for a
    two-class chain started in class c0.

    Step t sends class 0 to next0[t] and class 1 to next1[t] (booleans).
    After step t the class is the image of the last constant step L <= t,
    flipped once per swapping step in (L, t]; with no constant step, c0
    flipped once per swapping step in [0, t].  swaps=False promises that no
    step swaps (next0 & ~next1 is all false) and skips the flip scan.
    """
    n = len(next0)
    ramp = _RAMP[:n] if n <= len(_RAMP) else np.arange(2, 2 * n + 2, 2)
    # at a constant step L store 2 (L + 1) + (image of L xor flips up to L),
    # elsewhere 0; behind a leading c0 < 2, a running maximum finds the
    # last L
    enc = np.empty(n + 1, dtype=np.int64)
    enc[0] = c0
    if swaps:
        flips = np.zeros(n + 1, dtype=bool)
        np.logical_xor.accumulate(next0 > next1, out=flips[1:])
        np.add(ramp, next0 ^ flips[1:], out=enc[1:])
    else:
        np.add(ramp, next0, out=enc[1:])
    enc[1:] *= next0 == next1
    np.maximum.accumulate(enc, out=enc)
    enc &= 1
    if swaps:
        enc ^= flips
    return enc


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
        rows, cum, self.threshold = [], [], []
        for c, ms in enumerate(kept):
            # class c's cumulative masses live in [c, c + 1]; padding in
            # front repeats the lower end, so its interval is empty
            pad = width - len(ms)
            rows += [(0, 0, 0)] * pad + [m[:3] for m in ms]
            sums, total = [], 0.0
            for m in ms:
                total += m[4]
                sums.append(total)
            col = [float(c)] * pad + [c + s / total for s in sums]
            cum += col
            # x >= threshold exactly when the search lands on a move into
            # class 1; with none, never
            first1 = pad + sum(m[3] == 0 for m in ms)
            self.threshold.append(math.inf if first1 == width
                                  else ([float(c)] + col)[first1])
        # guide table: guide[b] counts the cum entries <= b / _GUIDE, so a
        # search value in cell b starts there and steps forward over the
        # entries strictly inside the cell (`passes` is the most in one);
        # the inf sentinel stops the steps at the end of the table
        self.cum = np.array(cum + [math.inf])
        self.guide = np.searchsorted(self.cum, _GRID, side="right")
        below = np.searchsorted(self.cum, _GRID, side="left")
        self.passes = int((below[1:] - self.guide[:-1]).max())
        base, slope, to = zip(*rows)
        self.base = np.array(base, dtype=np.int64)
        self.slope = np.array(slope, dtype=np.int64)
        self.to = np.array(to, dtype=np.int8)
        # no step swaps the classes when every x that leaves class 0 for 1
        # also keeps class 1 in 1; th1 - 1 is exact for th1 in [1, 2]
        self.swaps = not self.threshold[0] >= self.threshold[1] - 1.0

    def run(self, x: np.ndarray, y: np.ndarray, c0: int, labels: bool):
        """Step from class c0 over one uniform pair (x[t], y[t]) per step:
        (displacements, `to` labels or None, class after the last step).

        Class c searches x + c, so the class decision and the move come from
        the same rounded value.
        """
        path = _class_path(c0, x >= self.threshold[0],
                           x + 1.0 >= self.threshold[1], self.swaps)
        move = self._find(x + path[:-1])
        # x + 1 rounds up to 2.0 for x within 2**-53 of 1, past the last
        # move's upper end: clip to the last move
        delta = self.base.take(move, mode="clip")
        if self.log_ratio is not None:
            # K = floor(log1p(-y) / log ratio) >= 0, so the cast's
            # truncation is the floor
            k = np.negative(y)
            np.log1p(k, out=k)
            k /= self.log_ratio
            delta += self.slope.take(move, mode="clip") * k.astype(np.int64)
        to = self.to.take(move, mode="clip") if labels else None
        return delta, to, int(path[-1])

    def _find(self, xs: np.ndarray) -> np.ndarray:
        """Count of cum entries <= each search value, as
        np.searchsorted(cum, xs, side="right") finds it.  Scaling by the
        power of two _GUIDE is exact, so a value lies in the cell its
        truncation names."""
        move = self.guide.take((xs * _GUIDE).astype(np.intp))
        for _ in range(self.passes):
            move += self.cum.take(move) <= xs
        return move

    def sample(self, rng: np.random.Generator, c0: int, steps: int,
               burn_in: int = 0) -> np.ndarray:
        """Displacements of `steps` moves that follow `burn_in` discarded
        moves, all one chain started in class c0, stepped `GROUP` blocks a
        pass."""
        if steps < 0 or burn_in < 0:
            raise ValueError(f"steps ({steps}) and burn-in ({burn_in}) "
                             "must be >= 0")
        out = np.empty(steps, dtype=np.int64)
        total = burn_in + steps
        c = c0
        for lo in range(0, total, GROUP * BLOCK):
            n = min(GROUP * BLOCK, total - lo)
            x, y = uniforms(rng, n)[0]
            delta, _, c = self.run(x, y, c, False)
            skip = max(0, burn_in - lo)
            if skip < n:
                out[lo + skip - burn_in:lo + n - burn_in] = delta[skip:]
        return out


@dataclass(frozen=True)
class DriftEstimate:
    mean: float
    stderr: float
    steps: int
    seed: int


def batch_means_stderr(values: np.ndarray) -> float:
    """Standard error of the mean of an autocorrelated series, from the
    means of 100 equal batches."""
    n_batches = 100
    n = len(values) // n_batches
    if n < 1:
        raise ValueError("too few samples for batch means")
    # np.std(ddof=1)'s arithmetic (pairwise sums, the same divisions) in
    # fewer calls
    batches = np.add.reduce(values[: n * n_batches].reshape(n_batches, n),
                            axis=1) / n
    dev = batches - np.add.reduce(batches) / n_batches
    var = np.add.reduce(dev * dev) / (n_batches - 1)
    return float(np.sqrt(var) / math.sqrt(n_batches))


def estimate_drift(law0: AtomLaw, law1: AtomLaw, c0: int, steps: int,
                   burn_in: int, seed: int) -> DriftEstimate:
    """Monte Carlo stationary mean step of the `AtomChain` of law0 and law1:
    the mean of `steps` displacements of one chain started in class c0,
    after `burn_in` steps."""
    delta = AtomChain(law0, law1).sample(np.random.default_rng(seed), c0,
                                         steps, burn_in).astype(float)
    stderr = batch_means_stderr(delta)  # first: it rejects an empty series
    return DriftEstimate(mean=float(delta.mean()), stderr=stderr,
                         steps=steps, seed=seed)
