"""Envelope and coupled PCA simulation on a finite periodic ring.

Cells take values 0, 1 or ? (? = still depends on the initial condition).
A single uniform per cell drives the three coupled processes through
nested thresholds, which realises the envelope transition table and the
dominance property simultaneously.  Every ring steps through one kernel: a
flat 9-entry threshold table per parameter set, indexed by 3 * left + right
parent, and the thresholds the cell's uniform passes.
"""
from __future__ import annotations

import functools
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .params import DerivedParams

Q = 2  # cell code for ?; 0 and 1 are themselves

_BYTE_MAP = np.array([255, 0, 128], dtype=np.uint8)  # cell 0/1/? -> byte
_KNOWN = [0, 1, 3, 4]   # 3 * left + right for parents 00, 01, 10, 11
_COUPLED_TOP = np.array([[Q], [1], [1]], np.uint8)  # top code per coupled row
_WORD = (1 << 64) - 1
_BLOCK = 1 << 16    # cells per kernel block: its scratch arrays fit in L2
_local = threading.local()                           # one generator per thread


@dataclass
class RingState:
    """Periodic configuration; cells is an int8 array with values 0/1/2(=?)."""

    cells: np.ndarray

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.int8)
        if self.cells.ndim != 1 or len(self.cells) < 2:
            raise ValueError("ring needs at least 2 cells")

    @property
    def n(self) -> int:
        return len(self.cells)


def all_q_ring(n: int) -> RingState:
    return RingState(cells=np.full(n, Q, dtype=np.int8))


def step_uniforms(seed: int, step: int, n: int) -> np.ndarray:
    """Per-(step, cell) uniforms from a counter-based stream.

    The stream is Philox4x64-10 keyed by the run seed (an integer in
    [0, 2**128)) with the step index (an integer in [0, 2**63)) in the top
    counter word, so the draw for a cell does not depend on how a step is
    split up.  Each thread keeps one generator and resets its state per
    call, with an empty output buffer so no word carries over between
    calls; the bits are those of a fresh
    ``np.random.Philox(key=seed, counter=[0, 0, 0, step])``.
    """
    seed = _checked_int("seed", seed, 128)
    step = _checked_int("step", step, 63)
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, step],
                  "key": [seed & _WORD, seed >> 64]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return gen.random(n)


def _checked_int(name: str, value, bits: int) -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, "
                         f"not {type(value).__name__}") from None
    if not 0 <= value < 1 << bits:
        raise ValueError(f"{name} must be in [0, 2**{bits}), got {value}")
    return value


@functools.lru_cache(maxsize=256)
def _envelope_table(d: DerivedParams) -> tuple[np.ndarray, np.ndarray]:
    """Flat (one, zero) thresholds indexed by 3 * left + right parent.

    Outcome for uniform u: 1 if u < one, 0 if u >= zero, else ?.  zero is
    raised to at least one, which changes no outcome and makes u >= zero
    imply u >= one, so the thresholds passed name the new cell.  At two
    known parents both thresholds are p(a, b), so a binary ring steps as
    the PCA.
    """
    one, zero = np.empty(9), np.empty(9)
    one[_KNOWN] = zero[_KNOWN] = d.quad.as_tuple()
    for a in (0, 1):
        one[3 * a + Q], zero[3 * a + Q] = d.pp[0][a], 1.0 - d.qq[0][a]
        one[3 * Q + a], zero[3 * Q + a] = d.pp[1][a], 1.0 - d.qq[1][a]
    one[3 * Q + Q], zero[3 * Q + Q] = d.p, 1.0 - d.q
    return _frozen(one), _frozen(np.maximum(zero, one))


def _frozen(table: np.ndarray) -> np.ndarray:
    """Read-only, since the cache hands the same table to every caller."""
    table.flags.writeable = False
    return table


def _step_cells(cells: np.ndarray, one: np.ndarray, zero: np.ndarray,
                uniforms: np.ndarray) -> np.ndarray:
    """New cells of one ring, or of each row of rings, under shared uniforms.

    Cell i looks at (i, i+1) around the ring.  The last axis is walked in
    blocks of _BLOCK cells, so the scratch arrays stay in cache on long
    rings; a short ring is a single block.  The last block reads cell 0
    as the right parent of the last cell.
    """
    n = cells.shape[-1]
    out = np.empty_like(cells)
    shape = cells.shape[:-1] + (min(n, _BLOCK),)
    pair, idx = np.empty(shape, np.int8), np.empty(shape, np.intp)
    thresh = np.empty(shape)
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        if e - s < shape[-1]:
            pair, idx, thresh = (a[..., :e - s] for a in (pair, idx, thresh))
        u, new = uniforms[s:e], out[..., s:e]
        np.multiply(cells[..., s:e], 3, out=pair)
        pair[..., :-1] += cells[..., s + 1:e]
        pair[..., -1] += cells[..., e % n]
        np.copyto(idx, pair)
        # new cell = (u below zero) << (u at or above one): 1, ? (= 2) or 0.
        # "below" is not (u >= zero), so a NaN uniform passes no threshold.
        below = new.view(bool)
        np.greater_equal(u, zero.take(idx, out=thresh, mode="clip"), out=below)
        np.logical_not(below, out=below)
        np.greater_equal(u, one.take(idx, out=thresh, mode="clip"),
                         out=pair.view(bool))
        np.left_shift(new, pair, out=new)
    return out


def _check_step(cells: np.ndarray, top, uniforms, what: str) -> None:
    """Cell codes in 0..top, and one uniform per cell of each ring.

    The kernel reads its tables in clip mode, so it would step an unknown
    code silently; codes are read as uint8, so a negative one fails too.
    A shorter or wider uniforms array would broadcast over the ring.
    """
    if (cells.view(np.uint8) > top).any():
        raise ValueError(what)
    if np.shape(uniforms) != cells.shape[-1:]:
        raise ValueError(f"uniforms of shape {np.shape(uniforms)} do not "
                         f"match a ring of shape {cells.shape[-1:]}")


def envelope_step(ring: RingState, d: DerivedParams,
                  uniforms: np.ndarray) -> RingState:
    """One update of the envelope ring via the threshold coupling: cell i
    looks at (i, i+1).  A binary ring steps as the PCA, since at two known
    parents both thresholds are p(a, b)."""
    _check_step(ring.cells, Q, uniforms, "envelope cells must be 0, 1 or ?")
    one, zero = _envelope_table(d)
    return RingState(cells=_step_cells(ring.cells, one, zero, uniforms))


@dataclass
class CoupledTriple:
    """Envelope ring plus two binary copies it dominates."""

    envelope: RingState
    copy_a: RingState
    copy_b: RingState

    def check_dominance(self) -> None:
        env = self.envelope.cells
        a, b = self.copy_a.cells, self.copy_b.cells
        if (a.shape != env.shape or b.shape != env.shape
                or (((a != env) | (b != env)) & (env != Q)).any()):
            raise AssertionError("envelope dominance violated")


def coupled_step(triple: CoupledTriple, d: DerivedParams,
                 uniforms: np.ndarray) -> CoupledTriple:
    """Advance the three rings with shared uniforms; dominance is preserved.

    The three rings step as the rows of one array through the envelope
    table, which at known parents is the PCA's.  Dominance is checked once,
    on the result, so along a run every state after the start is checked.
    """
    rings = (triple.envelope, triple.copy_a, triple.copy_b)
    cells = np.array([r.cells for r in rings])
    _check_step(cells, _COUPLED_TOP, uniforms,
                "coupled rings take cells 0, 1 or ? and binary copies")
    new = _step_cells(cells, *_envelope_table(d), uniforms)
    out = CoupledTriple(*(RingState(cells=row) for row in new))
    out.check_dominance()
    return out


def run_to_decorrelation(d: DerivedParams, n: int, max_steps: int, seed: int,
                         rows: list | None = None):
    """Run the envelope from the all-? ring until no ? remains.

    Returns (hit_time or None, density) where density is the per-step
    ?-density as exact (numerator, denominator) pairs.  `rows`, when
    given, receives the space-time raster in the same pass: one uint8 row
    per density entry, cell 0 -> 255, 1 -> 0 and ? -> 128.  The seed is
    checked even when no step is drawn; max_steps must be >= 0, and 0 gives
    the start ring alone.
    """
    _checked_int("seed", seed, 128)
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    density = [(n, n)]
    cells = all_q_ring(n).cells
    one, zero = _envelope_table(d)
    if rows is not None:
        rows.append(_BYTE_MAP[cells])
    for t in range(1, max_steps + 1):
        cells = _step_cells(cells, one, zero, step_uniforms(seed, t, n))
        if rows is not None:
            rows.append(_BYTE_MAP[cells])
        k = int(np.count_nonzero(cells == Q))
        density.append((k, n))
        if k == 0:
            return t, density
    return None, density


def density_to_csv(density: list) -> str:
    """The ?-density series as CSV text: step, numerator, denominator."""
    return "step,q_density_num,q_density_den\n" + "".join(
        f"{step},{num},{den}\n" for step, (num, den) in enumerate(density))


def raster_to_pgm(rows: list) -> list:
    """Binary PGM (P5) of equal-width uint8 rows, row 0 = earliest time, as
    the chunks [header, *rows]: written in turn, the rows are not copied."""
    header = f"P5\n{len(rows[0])} {len(rows)}\n255\n".encode("ascii")
    return [header, *rows]


def read_pgm(path: str) -> np.ndarray:
    """Read back a raw 8-bit PGM as `raster_to_pgm` makes it (test helper)."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ValueError(f"{path} is not a binary PGM")
        dims = fh.readline().split()
        n, t = int(dims[0]), int(dims[1])
        maxval = int(fh.readline())
        if maxval != 255:
            raise ValueError("unexpected maxval")
        data = np.frombuffer(fh.read(t * n), dtype=np.uint8)
    return data.reshape(t, n)
