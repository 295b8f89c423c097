"""The vectorised atom-chain sampler against the exact laws it samples.

`conftest.sample_increment` is the scalar reference draw (tests/test_walk.py);
here the block sampler is checked directly: per from-state, the moves a long
chain makes from that state are i.i.d. draws of its law, so their (delta,
to) frequencies must lie in the law's multinomial bands.
"""
import numpy as np
import pytest

from pca_ergo import BState, ParamQuad, Side, derive
from pca_ergo import refined, walk
from pca_ergo.chain import (BLOCK, GROUP, AtomChain, AtomLaw, _class_path,
                            two_class_mean)

from conftest import chain_block, law_probs

FIG1 = ParamQuad(0.8, 0.3, 0.5, 0.6)
N_DRAWS = 10 ** 6
MAX_DELTA = 12      # keys checked: |delta| <= MAX_DELTA, so k <= MAX_DELTA


def chain_moves(chain, c0, from0, seed):
    """N_DRAWS steps of one chain: (from-label, delta, to-label) arrays."""
    rng = np.random.default_rng(seed)
    deltas, tos, c = [], [], c0
    for _ in range(N_DRAWS // BLOCK):
        delta, to, c = chain_block(chain, rng, c, BLOCK)
        deltas.append(delta)
        tos.append(to)
    to = np.concatenate(tos)
    return np.concatenate(([from0], to[:-1])), np.concatenate(deltas), to


def assert_within_bands(delta, to, probs):
    """Multinomial bands: each key's frequency within 4 sigma of its law
    probability, and no key outside the law (keys with |delta| <= MAX_DELTA,
    whose tail terms are all in probs)."""
    n = len(delta)
    keys, counts = np.unique(np.stack([delta, to]), axis=1, return_counts=True)
    seen = {(int(k0), int(k1)): int(c) for k0, k1, c in zip(*keys, counts)}
    assert not [k for k in seen if k not in probs and abs(k[0]) <= MAX_DELTA]
    for key, p in probs.items():
        if abs(key[0]) > MAX_DELTA:
            continue
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(seen.get(key, 0) / n - p) <= 4 * sigma + 1e-9, key


def walk_chain(d, side):
    return AtomChain(walk.increment_law(d, side, BState.ZERO),
                     walk.increment_law(d, side, BState.ONE))


@pytest.mark.parametrize("side", list(Side))
def test_walk_moves_within_multinomial_bands(side):
    d = derive(FIG1)
    frm, delta, to = chain_moves(walk_chain(d, side), 0, BState.ZERO.value,
                                 seed=101 + side.value)
    for s in BState:
        mask = frm == s.value
        assert mask.sum() > 10 ** 4, s
        law = walk.increment_law(d, side, s)
        assert_within_bands(delta[mask], to[mask],
                            law_probs(law, MAX_DELTA))


@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_refined_moves_within_multinomial_bands(eps):
    s1, law00 = refined.refined_law_s1(eps), refined.refined_law_00(eps)
    chain = AtomChain(s1, law00)
    frm, delta, to = chain_moves(chain, 1, refined.REACHABLE.index("00"),
                                 seed=int(eps * 1000))
    for i, pair in enumerate(refined.REACHABLE):
        mask = frm == i
        assert mask.sum() > 10 ** 4, pair
        law = s1 if pair in refined.S1 else law00
        assert_within_bands(delta[mask], to[mask], law_probs(law, MAX_DELTA))


def test_class_path_matches_step_by_step_loop():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 300):
        for _ in range(50):
            next0 = rng.random(n) < rng.random()
            next1 = rng.random(n) < rng.random()
            # no step swaps when every step that sends 0 to 1 keeps 1 in 1
            calm1 = next0 | next1
            for c0 in (0, 1):
                for n1, swaps in ((next1, True), (calm1, True),
                                  (calm1, False)):
                    want, c = [], c0
                    for t in range(n):
                        want.append(c)
                        c = int(n1[t] if c else next0[t])
                    want.append(c)
                    assert _class_path(c0, next0, n1, swaps).tolist() == want


def seam_chains():
    d = derive(FIG1)
    chains = [walk_chain(d, Side.RIGHT), walk_chain(d, Side.LEFT),
              AtomChain(refined.refined_law_s1(0.2),
                        refined.refined_law_00(0.2))]
    # both class-path branches run
    assert {chain.swaps for chain in chains} == {False, True}
    return chains


@pytest.mark.parametrize("total", [GROUP * BLOCK - 1, GROUP * BLOCK,
                                   GROUP * BLOCK + 1, 2 * GROUP * BLOCK + 5])
def test_sample_matches_block_by_block_draws(total):
    # one pass of GROUP blocks reads the stream of one draw per block and
    # carries the class across block and pass seams
    for chain in seam_chains():
        for c0 in (0, 1):
            for burn_in in (0, BLOCK + 3, GROUP * BLOCK - 2, total):
                rng = np.random.default_rng(total + burn_in)
                deltas, c = [], c0
                for lo in range(0, total, BLOCK):
                    delta, _, c = chain_block(chain, rng, c,
                                                  min(BLOCK, total - lo))
                    deltas.append(delta)
                got = chain.sample(np.random.default_rng(total + burn_in), c0,
                                   total - burn_in, burn_in)
                assert np.array_equal(got, np.concatenate(deltas)[burn_in:])


def test_guided_search_matches_searchsorted():
    laws = [(walk.increment_law(derive(FIG1), side, BState.ZERO),
             walk.increment_law(derive(FIG1), side, BState.ONE))
            for side in Side]
    laws.append((refined.refined_law_s1(0.2), refined.refined_law_00(0.2)))
    # masses far below a guide cell, so a cell holds several entries
    tiny = ((0, 1, 0, 0, 1e-9), (1, 1, 1, 1, 3e-9), (2, 0, 0, 0, 0.5),
            (3, 0, 1, 1, 1e-12), (4, 0, 1, 1, 0.5 - 4e-9))
    laws.append((AtomLaw(tiny, 0.5), AtomLaw(tiny[::-1], 0.5)))
    rng = np.random.default_rng(12)
    for law0, law1 in laws:
        chain = AtomChain(law0, law1)
        cum = chain.cum[:-1]
        xs = np.concatenate((rng.random(5000) * 2.0, cum,
                             np.nextafter(cum, 0.0), np.nextafter(cum, 3.0),
                             np.arange(129) / 64, [2.0]))
        xs = xs[(xs >= 0.0) & (xs <= 2.0)]
        assert np.array_equal(chain._find(xs),
                              np.searchsorted(cum, xs, side="right"))
    assert chain.passes > 1


def test_burn_in_is_the_head_of_the_same_chain():
    chain = walk_chain(derive(FIG1), Side.RIGHT)
    c0 = 0
    for steps, burn_in in ((3000, 0), (1500, 700), (10, BLOCK), (1, 1)):
        whole = chain.sample(np.random.default_rng(9), c0, burn_in + steps)
        tail = chain.sample(np.random.default_rng(9), c0, steps, burn_in)
        assert len(tail) == steps
        assert np.array_equal(tail, whole[burn_in:])


def test_rejects_bad_chains():
    atom = ((0, 0, 0, 0, 1.0),)
    with pytest.raises(ValueError):
        AtomChain(AtomLaw(atom, 0.5), AtomLaw(atom, 0.25))
    with pytest.raises(ValueError):
        AtomChain(AtomLaw(atom, 1.0), AtomLaw(atom, 1.0))


def test_two_class_mean():
    # class 0 steps +1 and leaves w.p. 1/4; class 1 steps -2 and leaves
    # w.p. 1/2: stationary weights 2/3 and 1/3, mean 0
    law0 = AtomLaw(((1, 0, 0, 0, 0.75), (1, 0, 1, 1, 0.25)), 0.0)
    law1 = AtomLaw(((-2, 0, 0, 0, 0.5), (-2, 0, 1, 1, 0.5)), 0.0)
    assert two_class_mean(law0, law1) == 0.0
    # a tail family of mass 1 adds slope * ratio / (1 - ratio)
    assert AtomLaw(((3, 2, 0, 0, 1.0),), 0.5).mean() == 5.0
    # both classes closed: no unique stationary law
    stay0 = AtomLaw(((1, 0, 0, 0, 1.0),), 0.0)
    stay1 = AtomLaw(((-1, 0, 1, 1, 1.0),), 0.0)
    with pytest.raises(ValueError):
        two_class_mean(stay0, stay1)
