import itertools
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pca_ergo import ParamQuad, ca_with_error, derive
from pca_ergo.envelope import (_BLOCK, Q, CoupledTriple, RingState, all_q_ring,
                               coupled_step, density_to_csv, envelope_step,
                               raster_to_pgm, read_pgm, run_to_decorrelation,
                               step_uniforms)
from pca_ergo.params import condition_holds_batch

from conftest import prob_one, quads

FIG1 = ParamQuad(0.8, 0.3, 0.5, 0.6)


def exact_two_cell_marginals(quad, state):
    """For a ring of length 2 with cells (a, b), each new cell is an
    independent Bernoulli: cell0 ~ Bern(p(a,b)), cell1 ~ Bern(p(b,a))."""
    a, b = state
    return prob_one(quad, a, b), prob_one(quad, b, a)


def q_count(ring):
    return int(np.count_nonzero(ring.cells == Q))


class TestPcaStep:
    """A binary ring steps as the PCA through `envelope_step`."""

    def test_deterministic_limit_1000_eps0(self):
        d = derive(ca_with_error("1000", 0.0))
        zeros = RingState(np.zeros(8, dtype=np.int8))
        out = envelope_step(zeros, d, step_uniforms(0, 0, 8))
        assert np.all(out.cells == 1)
        ones = RingState(np.ones(8, dtype=np.int8))
        out = envelope_step(ones, d, step_uniforms(0, 0, 8))
        assert np.all(out.cells == 0)

    def test_two_cell_ring_matches_exact_marginals(self):
        n, d = 4000, derive(FIG1)
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
            state = RingState(np.array([a, b], dtype=np.int8))
            hits = np.zeros(2)
            for step in range(n):
                out = envelope_step(state, d, step_uniforms(123, step, 2))
                hits += out.cells
            p0, p1 = exact_two_cell_marginals(FIG1, (a, b))
            for freq, p in ((hits[0] / n, p0), (hits[1] / n, p1)):
                assert abs(freq - p) <= 4 * np.sqrt(p * (1 - p) / n)

    def test_rejects_short_ring(self):
        with pytest.raises(ValueError):
            RingState(np.zeros(1, dtype=np.int8))

    def test_counter_stream_determinism(self):
        assert np.array_equal(step_uniforms(5, 9, 6), step_uniforms(5, 9, 6))
        assert not np.array_equal(step_uniforms(5, 9, 6),
                                  step_uniforms(5, 10, 6))
        assert not np.array_equal(step_uniforms(5, 9, 6),
                                  step_uniforms(6, 9, 6))
        # the uniform for cell i is set by (seed, step, i) alone
        assert np.array_equal(step_uniforms(5, 9, 8)[:6],
                              step_uniforms(5, 9, 6))


def fresh_philox(seed, step, n):
    """The stream's definition: a new Philox generator for (seed, step)."""
    bg = np.random.Philox(key=seed, counter=[0, 0, 0, step])
    return np.random.Generator(bg).random(n)


SEEDS = (0, 1, 12345, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 2 ** 100 + 7,
         2 ** 128 - 1)
SIZES = (0, 1, 3, 4, 5, 203)


class TestStepUniforms:
    def test_bit_identical_to_fresh_philox(self):
        for seed, n in itertools.product(SEEDS, SIZES):
            for step in (0, 1, 9, 2 ** 40, 2 ** 63 - 1):
                assert np.array_equal(step_uniforms(seed, step, n),
                                      fresh_philox(seed, step, n))

    def test_interleaved_calls_share_no_buffered_word(self):
        calls = list(itertools.product(SEEDS, (0, 3, 8), SIZES)) * 2
        order = np.random.default_rng(5).permutation(len(calls))
        for i in order:
            seed, step, n = calls[i]
            assert np.array_equal(step_uniforms(seed, step, n),
                                  fresh_philox(seed, step, n))

    def test_threads(self):
        # more threads than cores, switching often, each in its own order
        calls = list(itertools.product(SEEDS, (0, 2, 7), SIZES))
        expected = [fresh_philox(*c) for c in calls]
        orders = [np.random.default_rng(k).permutation(len(calls))
                  for k in range(4)]
        start = threading.Barrier(len(orders), timeout=30)
        bad, done = [], []

        def work(order):
            start.wait()
            for _ in range(10):
                for i in order:
                    if not np.array_equal(step_uniforms(*calls[i]), expected[i]):
                        bad.append(calls[i])
            done.append(True)

        threads = [threading.Thread(target=work, args=(o,)) for o in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(done) == len(threads) and bad == []

    def test_top_of_the_step_domain(self):
        # steps are exact integers: no two steps share a stream
        top = 2 ** 63 - 1
        assert not np.array_equal(step_uniforms(1, top, 8),
                                  step_uniforms(1, top - 1, 8))

    @pytest.mark.parametrize("seed, step", [
        (-1, 0), (2 ** 128, 0), (0, -1), (0, 2 ** 63), (0, 2 ** 64 - 1),
        (1.5, 0), (0, 2.0), ("1", 0)])
    def test_outside_the_domain_raises(self, seed, step):
        with pytest.raises(ValueError):
            step_uniforms(seed, step, 4)


def oracle_tables(d):
    """3x3 (one, zero) thresholds per parent pair, unclamped."""
    one_t, zero_t = np.empty((3, 3)), np.empty((3, 3))
    for a in (0, 1):
        for b in (0, 1):
            one_t[a, b] = zero_t[a, b] = prob_one(d.quad, a, b)
        one_t[a, Q], zero_t[a, Q] = d.pp[0][a], 1.0 - d.qq[0][a]
        one_t[Q, a], zero_t[Q, a] = d.pp[1][a], 1.0 - d.qq[1][a]
    one_t[Q, Q], zero_t[Q, Q] = d.p, 1.0 - d.q
    return one_t, zero_t


def oracle_envelope_cells(cells, d, uniforms):
    """Nested-threshold envelope update, as first written."""
    one_t, zero_t = oracle_tables(d)
    right = np.roll(cells, -1)
    lo, hi = one_t[cells, right], zero_t[cells, right]
    new = np.where(uniforms < lo, 1, np.where(uniforms >= hi, 0, Q))
    return new.astype(np.int8)


def oracle_pca_cells(cells, quad, uniforms):
    probs = np.array([[quad.p00, quad.p01], [quad.p10, quad.p11]])
    return (uniforms < probs[cells, np.roll(cells, -1)]).astype(np.int8)


EDGE = (0.0, 1e-9, 0.25, 0.5, 0.75, 1 - 1e-9, 1.0)


class TestKernelAgainstOracles:
    def test_edge_lattice_random_rings(self):
        rng = np.random.default_rng(17)
        for k, q in enumerate(itertools.product(EDGE, repeat=4)):
            quad = ParamQuad(*q)
            d = derive(quad)
            cells = rng.integers(0, 3, 40).astype(np.int8)
            u = rng.random(40)
            got = envelope_step(RingState(cells), d, u)
            assert got.cells.dtype == np.int8
            assert np.array_equal(got.cells, oracle_envelope_cells(cells, d, u))
            binary = rng.integers(0, 2, 40).astype(np.int8)
            got = envelope_step(RingState(binary), d, u)
            assert got.cells.dtype == np.int8
            assert np.array_equal(got.cells, oracle_pca_cells(binary, quad, u))

    def test_uniforms_on_and_beside_every_threshold(self):
        # each (left, right) pair meets each threshold and its neighbours
        pairs = np.array([(a, b) for a in (0, 1, Q) for b in (0, 1, Q)],
                         dtype=np.int8)
        known = pairs[[0, 1, 3, 4]]
        clamped = 0
        for q in itertools.product(EDGE, repeat=4):
            quad = ParamQuad(*q)
            d = derive(quad)
            one_t, zero_t = oracle_tables(d)
            clamped += bool((zero_t < one_t).any())
            t = np.concatenate([one_t.ravel(), zero_t.ravel()])
            u = np.concatenate([t, np.nextafter(t, -1), np.nextafter(t, 2)])
            # cell 2k has parents pairs[k // len(u)] and uniform u[k % len(u)]
            cells = np.repeat(pairs, len(u), axis=0).ravel()
            uni = np.tile(np.repeat(u, 2), len(pairs))
            got = envelope_step(RingState(cells), d, uni).cells
            assert np.array_equal(got, oracle_envelope_cells(cells, d, uni))
            binary = np.repeat(known, len(u), axis=0).ravel()
            uni = np.tile(np.repeat(u, 2), len(known))
            assert np.array_equal(envelope_step(RingState(binary), d,
                                                uni).cells,
                                  oracle_pca_cells(binary, quad, uni))
        # 1 - q rounds below p on part of the lattice: the clamp is exercised
        assert clamped > 0

    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   2 * _BLOCK + 1])
    def test_block_seams_and_wrap_cell(self, n):
        # the cells on each side of every block seam, and cells 0 and n - 1,
        # get uniforms on and beside their thresholds; the coupled rows
        # step as one (3, n) array, so its seams are checked too
        rng = np.random.default_rng(n)
        seams = np.arange(_BLOCK, n, _BLOCK)
        edge = np.unique(np.concatenate([seams - 1, seams, [0, n - 1]]))
        right = (edge + 1) % n
        for quad in (FIG1, ParamQuad(*rng.random(4))):
            d = derive(quad)
            one_t, zero_t = oracle_tables(d)
            for table, side in itertools.product((one_t, zero_t),
                                                 (None, -1, 2)):
                def on(t):
                    return t if side is None else np.nextafter(t, side)
                a = rng.integers(0, 2, n).astype(np.int8)
                b = np.where(rng.random(n) < 0.5, a, 1 - a).astype(np.int8)
                env = np.where(a == b, a, np.int8(Q)).astype(np.int8)
                u = rng.random(n)
                u[edge] = on(table[env[edge], env[right]])
                expect = oracle_envelope_cells(env, d, u)
                assert np.array_equal(envelope_step(RingState(env), d, u).cells,
                                      expect)
                out = coupled_step(CoupledTriple(RingState(env), RingState(a),
                                                 RingState(b)), d, u)
                assert np.array_equal(out.envelope.cells, expect)
                assert np.array_equal(out.copy_a.cells,
                                      oracle_pca_cells(a, quad, u))
                assert np.array_equal(out.copy_b.cells,
                                      oracle_pca_cells(b, quad, u))
                u[edge] = on(one_t[a[edge], a[right]])
                assert np.array_equal(envelope_step(RingState(a), d, u).cells,
                                      oracle_pca_cells(a, quad, u))


class TestEnvelopeStep:
    def test_all_q_one_step_resolution_rate(self):
        # from the all-? ring a cell resolves with probability p + q
        d = derive(FIG1)
        n_cells, n_seeds = 50, 2000
        resolved = 0
        for seed in range(n_seeds):
            out = envelope_step(all_q_ring(n_cells), d,
                                step_uniforms(seed, 0, n_cells))
            resolved += n_cells - q_count(out)
        p = d.p + d.q
        total = n_cells * n_seeds
        assert abs(resolved / total - p) <= 4 * np.sqrt(p * (1 - p) / total)

    def test_known_region_stays_known(self):
        d = derive(FIG1)
        state = RingState(np.array([0, 1, 1, 0, 1, 0], dtype=np.int8))
        for step in range(20):
            state = envelope_step(state, d, step_uniforms(77, step, 6))
            assert q_count(state) == 0

    @pytest.mark.parametrize("shape", [(1,), (2, 6)])
    def test_uniforms_must_match_the_ring(self, shape):
        # a shorter or wider array would broadcast over the ring
        cells = np.array([0, 1, 1, 0, Q, 0], dtype=np.int8)
        binary = np.array([0, 1, 1, 0, 1, 0], dtype=np.int8)
        u = np.full(shape, 0.5)
        steps = (
            lambda: envelope_step(RingState(cells), derive(FIG1), u),
            lambda: envelope_step(RingState(binary), derive(FIG1), u),
            lambda: coupled_step(CoupledTriple(RingState(cells),
                                               RingState(binary),
                                               RingState(binary)),
                                 derive(FIG1), u))
        for step in steps:
            with pytest.raises(ValueError,
                               match=re.escape(f"{shape}") + r".*\(6,\)"):
                step()

    @pytest.mark.parametrize("code", [3, 5, -1])
    def test_unknown_cell_codes_raise(self, code):
        # the kernel reads its tables in clip mode, so it cannot catch them
        d, u = derive(FIG1), np.full(4, 0.5)
        bad = RingState(np.array([0, 1, code, 0], dtype=np.int8))
        binary = RingState(np.array([0, 1, 1, 0], dtype=np.int8))
        steps = (lambda: envelope_step(bad, d, u),
                 lambda: coupled_step(CoupledTriple(bad, binary, binary), d, u),
                 lambda: coupled_step(CoupledTriple(binary, bad, binary), d, u))
        for step in steps:
            with pytest.raises(ValueError):
                step()

    def test_known_parents_agree_with_pca_step(self):
        d = derive(FIG1)
        state = RingState(np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.int8))
        u = step_uniforms(3, 4, 8)
        assert np.array_equal(envelope_step(state, d, u).cells,
                              oracle_pca_cells(state.cells, FIG1, u))


class TestCoupling:
    @given(quads, st.integers(0, 10 ** 6), st.integers(2, 32))
    @settings(max_examples=150, deadline=None)
    def test_dominance_preserved(self, quad, seed, n):
        d = derive(quad)
        rng = np.random.default_rng(seed)
        binary = rng.integers(0, 2, n).astype(np.int8)
        env = np.where(rng.random(n) < 0.3, np.int8(Q), binary)
        triple = CoupledTriple(envelope=RingState(env),
                               copy_a=RingState(binary.copy()),
                               copy_b=RingState(binary.copy()))
        for step in range(5):
            triple = coupled_step(triple, d, step_uniforms(seed, step, n))
            triple.check_dominance()

    def test_decoupled_copies_merge_after_decorrelation(self):
        # once the envelope has no ?, both binary copies must agree with it
        d = derive(FIG1)
        rng = np.random.default_rng(1)
        n = 24
        binary = rng.integers(0, 2, n).astype(np.int8)
        env = np.where(rng.random(n) < 0.8, np.int8(Q), binary)
        triple = CoupledTriple(envelope=RingState(env),
                               copy_a=RingState(binary.copy()),
                               copy_b=RingState(binary.copy()))
        # perturb copy_b wherever the envelope is ? (still dominated)
        mask = triple.envelope.cells == Q
        cells = triple.copy_b.cells.copy()
        cells[mask] = 1 - cells[mask]
        triple = CoupledTriple(envelope=triple.envelope,
                               copy_a=triple.copy_a,
                               copy_b=RingState(cells))
        triple.check_dominance()
        for step in range(500):
            triple = coupled_step(triple, d, step_uniforms(13, step, n))
            if q_count(triple.envelope) == 0:
                assert np.array_equal(triple.copy_a.cells,
                                      triple.copy_b.cells)
                return
        pytest.fail("envelope never decorrelated")

    def test_coupled_step_matches_separate_steps(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            quad = ParamQuad(*rng.random(4))
            d = derive(quad)
            a = rng.integers(0, 2, 30).astype(np.int8)
            b = np.where(rng.random(30) < 0.5, a, 1 - a).astype(np.int8)
            env = np.where(a == b, a, np.int8(Q)).astype(np.int8)
            triple = CoupledTriple(RingState(env), RingState(a),
                                   RingState(b))
            u = rng.random(30)
            out = coupled_step(triple, d, u)
            assert np.array_equal(out.envelope.cells,
                                  envelope_step(triple.envelope, d, u).cells)
            for got, ring in ((out.copy_a, triple.copy_a),
                              (out.copy_b, triple.copy_b)):
                assert np.array_equal(got.cells,
                                      envelope_step(ring, d, u).cells)

    def test_one_dominance_check_per_step(self, monkeypatch):
        calls = []
        check = CoupledTriple.check_dominance
        monkeypatch.setattr(CoupledTriple, "check_dominance",
                            lambda self: calls.append(1) or check(self))
        d = derive(FIG1)
        cells = np.array([0, 1, 1, 0, 1, 0], dtype=np.int8)
        triple = CoupledTriple(RingState(np.full(6, Q, np.int8)),
                               RingState(cells), RingState(1 - cells))
        for step in range(7):
            triple = coupled_step(triple, d, step_uniforms(9, step, 6))
        assert len(calls) == 7

    def test_coupled_copies_must_be_binary(self):
        ring = RingState(np.array([0, Q, 1], dtype=np.int8))
        triple = CoupledTriple(ring, ring, RingState(np.zeros(3, np.int8)))
        with pytest.raises(ValueError):
            coupled_step(triple, derive(FIG1), step_uniforms(0, 0, 3))

    def test_dominance_check_rejects_violation(self):
        bad = CoupledTriple(
            envelope=RingState(np.array([1, 1], dtype=np.int8)),
            copy_a=RingState(np.array([0, 0], dtype=np.int8)),
            copy_b=RingState(np.array([0, 0], dtype=np.int8)))
        with pytest.raises(AssertionError):
            bad.check_dominance()


class TestDecorrelation:
    def test_r_zero_clears_in_one_step(self):
        d = derive(ParamQuad(0.4, 0.4, 0.4, 0.4))
        hit, density = run_to_decorrelation(d, n=16, max_steps=10, seed=0)
        assert hit == 1
        assert density[0] == (16, 16)
        assert density[1] == (0, 16)

    def test_fig1_envelope_goes_extinct(self):
        d = derive(FIG1)
        hit, density = run_to_decorrelation(d, n=100, max_steps=10 ** 4,
                                            seed=11)
        assert hit is not None
        assert density[-1] == (0, 100)
        # the ?-region is absorbing at zero: once cleared it stays cleared
        assert len(density) == hit + 1

    def test_failing_rule_does_not_clear(self):
        d = derive(ca_with_error("1000", 0.01))
        hit, density = run_to_decorrelation(d, n=200, max_steps=200, seed=2)
        assert hit is None
        assert len(density) == 201
        assert all(num > 0 for num, _ in density)

    def test_condition_implies_extinction(self):
        # where the ergodicity condition holds, the all-? ring dies out
        # inside the benchmark's step cap, at every ring length; the last
        # ring is longer than one kernel block
        rng = np.random.default_rng(2022)
        cand = rng.random((400, 4))
        holds, _ = condition_holds_batch(cand)
        chosen = cand[holds][:40]
        assert len(chosen) == 40
        runs = [(q, n) for q in chosen for n in (64, 256, 1024, 4096)]
        runs.append((chosen[0], 2 * _BLOCK + 1))
        for q, n in runs:
            d = derive(ParamQuad(*map(float, q)))
            seed = int(rng.integers(2 ** 62))
            hit, density = run_to_decorrelation(d, n, 10 ** 4, seed)
            assert hit is not None, (q, n, seed)
            assert density[-1] == (0, n)

    def test_density_csv(self):
        d = derive(FIG1)
        _, density = run_to_decorrelation(d, n=20, max_steps=50, seed=4)
        lines = density_to_csv(density).strip().split("\n")
        assert lines[0] == "step,q_density_num,q_density_den"
        assert lines[1] == "0,20,20"
        assert len(lines) == len(density) + 1

    def test_rejects_negative_max_steps(self):
        d = derive(FIG1)
        for rows in (None, []):
            with pytest.raises(ValueError, match="max_steps"):
                run_to_decorrelation(d, n=8, max_steps=-1, seed=0, rows=rows)
        assert run_to_decorrelation(d, n=8, max_steps=0, seed=0) == \
            (None, [(8, 8)])

    def test_determinism(self):
        d = derive(FIG1)
        a = run_to_decorrelation(d, n=40, max_steps=500, seed=8)
        b = run_to_decorrelation(d, n=40, max_steps=500, seed=8)
        assert a == b


def q_density_over_seeds(d, n=1 << 16, steps=12, seeds=range(20)):
    """Per step t = 1..steps: mean ?-density of the envelope from the
    all-? ring over the seeds, and its across-seed standard error."""
    runs = [run_to_decorrelation(d, n, steps, s)[1] for s in seeds]
    dens = np.array([[k / m for k, m in run] for run in runs])[:, 1:]
    return dens.mean(axis=0), dens.std(axis=0, ddof=1) / np.sqrt(len(seeds))


class TestQDensityRate:
    # With c = max_x |p(x,0) - p(x,1)| + max_x |p(0,x) - p(1,x)|, a cell
    # with parents (?, b) is ? with probability |p(0,b) - p(1,b)|, one
    # with (a, ?) with |p(a,0) - p(a,1)|, one with (?, ?) with r <= c.
    # Each ? cell so adds at most c to the next step's expected ? count,
    # and from the all-? ring E[density_t] <= c^t.
    def test_additive_quad_decays_at_exactly_c(self):
        # p(a, b) = 0.1 + 0.3 a + 0.4 b: a cell is ? with probability
        # 0.3 [left ?] + 0.4 [right ?], so E[density_t] = 0.7^t exactly
        mean, se = q_density_over_seeds(derive(ParamQuad(0.1, 0.5, 0.4, 0.8)))
        z = (mean - 0.7 ** np.arange(1, 13)) / se
        assert np.abs(z).max() <= 4.0, z

    def test_fig1_decays_no_slower_than_c(self):
        mean, se = q_density_over_seeds(derive(FIG1))
        assert (mean <= 0.8 ** np.arange(1, 13) + 4.0 * se).all()

    def test_ca_rule_decays_no_slower_than_c(self):
        # rule 0110 at eps 0.3 is (0.3, 0.7, 0.7, 0.3): each side's
        # |p(x,0) - p(x,1)| is 0.4 for both x, so c = 0.8
        mean, se = q_density_over_seeds(derive(ca_with_error("0110", 0.3)))
        assert (mean <= 0.8 ** np.arange(1, 13) + 4.0 * se).all()


def byte_rows(rings):
    """PGM rows of rings, mapped cell by cell: 0 -> 255, 1 -> 0, ? -> 128."""
    byte = {0: 255, 1: 0, Q: 128}
    return [np.array([byte[c] for c in r.cells], dtype=np.uint8)
            for r in rings]


def envelope_rings(d, n, steps, seed):
    """The all-? ring and `steps` envelope steps from it."""
    rings = [all_q_ring(n)]
    for t in range(1, steps + 1):
        rings.append(envelope_step(rings[-1], d, step_uniforms(seed, t, n)))
    return rings


class TestRaster:
    def test_byte_mapping(self):
        # a failing rule at 6 cells shows 0, 1 and ? cells within 8 steps
        d = derive(ca_with_error("0110", 0.05))
        rows = []
        hit, _ = run_to_decorrelation(d, n=6, max_steps=8, seed=0, rows=rows)
        want = byte_rows(envelope_rings(d, 6, 8, 0))
        assert hit is None and len(rows) == 9
        assert all(r.dtype == np.uint8 for r in rows)
        assert {0, 128, 255} <= set(np.concatenate(rows).tolist())
        assert all(np.array_equal(r, w) for r, w in zip(rows, want))

    @pytest.mark.parametrize("quad, n, max_steps, seed", [
        (FIG1, 30, 10 ** 4, 3), (ca_with_error("1000", 0.01), 20, 60, 2),
        (FIG1, 12, 0, 1)])
    def test_raster_is_the_decorrelation_run(self, quad, n, max_steps, seed):
        d = derive(quad)
        rows = []
        hit, density = run_to_decorrelation(d, n, max_steps, seed, rows=rows)
        assert (hit, density) == run_to_decorrelation(d, n, max_steps, seed)
        want = byte_rows(envelope_rings(d, n, len(density) - 1, seed))
        assert len(rows) == len(want)
        assert all(np.array_equal(r, w) for r, w in zip(rows, want))
        assert [(int((r == 128).sum()), n) for r in rows] == density

    def test_pgm_round_trip(self, tmp_path):
        # a failing rule, so the ?-region outlives the 12 steps
        d = derive(ca_with_error("1000", 0.01))
        rows = []
        hit, _ = run_to_decorrelation(d, n=16, max_steps=12, seed=21,
                                      rows=rows)
        assert hit is None
        img = np.stack(rows)
        assert img.shape == (13, 16)
        pgm = b"".join(raster_to_pgm(rows))
        assert pgm.startswith(b"P5\n16 13\n255\n")
        assert pgm.endswith(img.tobytes())
        path = tmp_path / "out.pgm"
        path.write_bytes(pgm)
        assert np.array_equal(read_pgm(str(path)), img)
