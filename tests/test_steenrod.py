from __future__ import annotations

import random

import pytest

from qhk.algebra import (
    EL_ZERO,
    _apply_q_mono,
    _coproduct_word,
    apply_q,
    coproduct,
    el_add,
    el_gen,
    el_mul,
    el_square,
    mono_word,
)
from qhk.mod2 import binom_mod2
from qhk.sieve import monomial_basis
from qhk.spaces import RealProj, Sphere, parse_gen, parse_space, sq_down_gen
from qhk.steenrod import (
    _sq_down_mono,
    element_is_A_annihilated,
    madsen_action,
    mono_height,
    nishida_expansion,
    sq_down,
    word_is_A_annihilated,
)
from qhk.words import AdmissibleGen, admissible_words

g1 = parse_gen("g1")
a1 = parse_gen("a1")
a2 = parse_gen("a2")
a3 = parse_gen("a3")


def W(ops, gen):
    return AdmissibleGen(tuple(ops), gen)


def word_el(ops, gen, e=1):
    return frozenset({mono_word(W(ops, gen), e)})


def test_nishida_known_expansions():
    assert nishida_expansion(0, (9, 5)) == frozenset({((9, 5), 0)})
    assert nishida_expansion(4, ()) == frozenset({((), 4)})
    got = nishida_expansion(4, (9, 5))
    assert got == frozenset({((5, 5), 0), ((7, 3), 0), ((7, 4), 1)})
    assert nishida_expansion(2, (9, 5)) == frozenset({((7, 5), 0)})


def test_madsen_known_values():
    assert madsen_action(4, (9, 5)) == frozenset({(5, 5), (7, 3)})
    assert madsen_action(4, (9, 5), normalized=True) == frozenset({(5, 5)})
    assert madsen_action(2, (9, 5)) == frozenset({(7, 5)})
    assert madsen_action(1, (9, 5)) == frozenset()
    assert madsen_action(1, (2,)) == frozenset({(1,)})   # Sq^1 Q^even = Q^odd


def test_sq1_on_even_operation_is_odd_operation():
    for m in range(1, 12):
        assert madsen_action(1, (2 * m,)) == frozenset({(2 * m - 1,)})
        assert madsen_action(1, (2 * m + 1,)) == frozenset()


def test_nishida_preserves_length_and_raw_heads_positive():
    rng = random.Random(2)
    for _ in range(200):
        s = rng.randrange(1, 4)
        seq = tuple(rng.randrange(1, 24) for _ in range(s))
        a = rng.randrange(0, 17)
        for k, r in nishida_expansion(a, seq):
            assert len(k) == len(seq)
            assert all(i >= 1 for i in k)
            assert r >= 0


def test_nishida_degree_bookkeeping():
    # Sq^a drops total degree by a; the residual r acts later, so the raw
    # sequence satisfies sum(k) = sum(seq) - (a - r)
    rng = random.Random(4)
    for _ in range(200):
        s = rng.randrange(1, 4)
        seq = tuple(rng.randrange(1, 24) for _ in range(s))
        a = rng.randrange(0, 17)
        for k, r in nishida_expansion(a, seq):
            assert sum(k) == sum(seq) - (a - r)


def test_parity_remark():
    # even Steenrod index on an all-odd sequence: an odd index cannot pass
    # through an odd entry (the binomial has even top, odd bottom), so the
    # parity can only flip at the last step.  All-odd output and even
    # residual are therefore equivalent, and the residual-zero part keeps
    # every entry odd.
    rng = random.Random(6)
    for _ in range(300):
        s = rng.randrange(1, 4)
        seq = tuple(2 * rng.randrange(1, 12) + 1 for _ in range(s))
        a = 2 * rng.randrange(0, 9)
        for k, r in nishida_expansion(a, seq):
            if r % 2 == 0:
                assert all(i % 2 == 1 for i in k)
            else:
                assert all(i % 2 == 1 for i in k[:-1])
                assert k[-1] % 2 == 0
        for k in madsen_action(a, seq, normalized=True):
            assert all(i % 2 == 1 for i in k)


def test_sq_down_known_values():
    assert sq_down(2, word_el((9, 5), g1)) == word_el((7, 5), g1)
    assert sq_down(4, word_el((9, 5), g1)) == EL_ZERO
    assert sq_down(1, word_el((2,), a1)) == el_square(el_gen(a1))
    assert sq_down(1, word_el((4,), a3)) == el_square(el_gen(a3))
    xi = el_add(word_el((2,), a1), el_mul(el_gen(a1), el_gen(a2)))
    assert sq_down(1, xi) == EL_ZERO
    assert sq_down(0, xi) == xi
    with pytest.raises(ValueError):
        sq_down(-1, xi)


def test_sq_down_on_unit_and_generators():
    from qhk.algebra import EL_ONE

    assert sq_down(1, EL_ONE) == EL_ZERO
    assert sq_down(1, el_gen(a2)) == el_gen(a1)
    assert sq_down(1, el_gen(a3)) == EL_ZERO
    assert sq_down(2, el_gen(a3)) == EL_ZERO
    assert sq_down(2, el_gen(parse_gen("a5"))) == el_gen(a3)


def test_sq_down_above_the_degree_is_zero_at_once():
    # the target degree is negative: no Cartan sum over the index, no
    # Nishida loop over half of it
    import time

    for x in (el_mul(el_gen(a1), el_gen(a2)), word_el((2,), a1)):
        before = _sq_down_mono.cache_info().currsize
        t0 = time.perf_counter()
        assert sq_down(10**12, x) == EL_ZERO
        dt = time.perf_counter() - t0
        assert dt < 0.1, f"Sq^(10^12) on a degree-3 monomial took {dt:.2f}s"
        assert _sq_down_mono.cache_info().currsize <= before + 1


def test_sq_down_cartan():
    rng = random.Random(8)
    pool = [el_gen(a1), el_gen(a2), el_gen(a3), word_el((2,), a1), word_el((4, 2), a1),
            el_square(el_gen(a2)), word_el((3,), a1)]
    for _ in range(50):
        u, v = rng.choice(pool), rng.choice(pool)
        n = rng.randrange(0, 7)
        lhs = sq_down(n, el_mul(u, v))
        rhs = EL_ZERO
        for i in range(n + 1):
            rhs = el_add(rhs, el_mul(sq_down(i, u), sq_down(n - i, v)))
        assert lhs == rhs


def _words_to_degree_20():
    return tuple(dict.fromkeys(
        w for name in ("P", "S1", "SCP", "P^s1") for cap in (2, 3)
        for d in range(1, 21) for w in admissible_words(parse_space(name), d, cap)
    ))


def test_word_images_leave_the_q_action_table_empty():
    # Sq^a and Δ of a word are one formula each through normalize, so
    # computing them afresh never asks the Q-action on monomials
    _apply_q_mono.cache_clear()
    _sq_down_mono.cache_clear()
    _coproduct_word.cache_clear()
    for w in _words_to_degree_20():
        el = frozenset({mono_word(w)})
        coproduct(el)
        for a in range(w.degree + 1):
            sq_down(a, el)
    assert _apply_q_mono.cache_info().currsize == 0


def test_sq_down_matches_the_nishida_recursion_through_apply_q():
    # reference: Sq^a Q^i y = sum_t C(i - a, a - 2t) Q^{i-a+t} Sq^t y, one
    # operation at a time through apply_q, down to Sq^t on the generator
    memo: dict = {}

    def reference(a: int, w: AdmissibleGen):
        if a == 0:
            return word_el(w.ops, w.gen)
        if (a, w) not in memo:
            if not w.ops:
                target = sq_down_gen(a, w.gen)
                out = EL_ZERO if target is None else el_gen(target)
            else:
                i, tail = w.ops[0], W(w.ops[1:], w.gen)
                out = EL_ZERO
                for t in range(a // 2 + 1):
                    if i >= a and binom_mod2(i - a, a - 2 * t):
                        out = el_add(out, apply_q(i - a + t, reference(t, tail)))
            memo[a, w] = out
        return memo[a, w]

    for w in _words_to_degree_20():
        for a in range(w.degree + 1):
            assert sq_down(a, word_el(w.ops, w.gen)) == reference(a, w), (w, a)


def test_sq_down_composition_respects_dual_adem_relations():
    # duality reverses composition, so Sq^1 Sq^1 = 0, Sq^1 Sq^2 = Sq^3 and
    # Sq^2 Sq^2 = Sq^3 Sq^1 upstairs become the identities below
    pool = [word_el((9, 5), g1), word_el((6, 3), a1), word_el((4, 2), a1),
            el_mul(el_gen(a2), el_gen(a3)), word_el((8, 4), a2),
            el_square(word_el((4, 2), a1)),
            el_mul(word_el((2,), a1), el_gen(a2))]
    for x in pool:
        assert sq_down(1, sq_down(1, x)) == EL_ZERO
        assert sq_down(2, sq_down(1, x)) == sq_down(3, x)
        assert sq_down(2, sq_down(2, x)) == sq_down(1, sq_down(3, x))
        assert sq_down(3, sq_down(1, x)) == EL_ZERO


def test_height_homogeneity():
    # Sq^a keeps the height of every basis monomial, so the Steenrod map is
    # block-diagonal by height
    seen = 0
    for name in ("P", "S1", "S2", "SCP", "P^s1", "SCP^s1"):
        for cap in (2, 3):
            for degree in range(1, 17):
                for m in monomial_basis(parse_space(name), degree, cap):
                    h = mono_height(m)
                    for a in range(1, degree + 1):
                        for out in sq_down(a, frozenset({m})):
                            assert mono_height(out) == h, (m, a, out)
                    seen += 1
    assert seen == 17884


def test_word_criterion_matches_brute_force_small():
    # the full sweep lives in the acceptance suite; keep a quick version here
    for space in (Sphere(1), RealProj()):
        for degree in range(1, 17):
            for w in admissible_words(space, degree, 2):
                assert word_is_A_annihilated(w) == element_is_A_annihilated(
                    frozenset({mono_word(w)})
                ), w


def test_annihilated_words_have_all_odd_entries():
    for degree in range(1, 33):
        for w in admissible_words(RealProj(), degree, 3):
            if word_is_A_annihilated(w):
                assert all(i % 2 == 1 for i in w.ops), w


def test_known_annihilated_words():
    assert word_is_A_annihilated(W((), a3))
    assert not word_is_A_annihilated(W((), a2))
    assert not word_is_A_annihilated(W((2,), a1))     # excess 1 >= 2^rho(2) = 1
    assert word_is_A_annihilated(W((3,), a1))         # excess 2 < 2^rho(3) = 4
    assert element_is_A_annihilated(word_el((3,), a1))
    # the three-term primitive in degree 3 over P
    xi = el_add(word_el((2,), a1), el_mul(el_gen(a1), el_gen(a2)),
                frozenset({mono_word(W((), a1), 3)}), el_gen(a3))
    assert element_is_A_annihilated(xi)
    assert not element_is_A_annihilated(word_el((2,), a1))


def test_suspension_is_stable_under_the_action():
    # the dual action commutes with homology suspension on indecomposables
    from qhk.algebra import suspend

    for space in (Sphere(1), RealProj()):
        for degree in range(2, 21):
            for w in admissible_words(space, degree, 2):
                el = frozenset({mono_word(w)})
                for a in (1, 2, 3, 4, 8):
                    if a >= degree:
                        continue
                    assert suspend(sq_down(a, el)) == sq_down(a, suspend(el))


def test_coproduct_commutes_with_the_steenrod_action():
    # psi(Sq^r x) = sum_i (Sq^i (x) Sq^{r-i}) psi(x): ties algebra.coproduct
    # to steenrod.sq_down; both sides multiply through algebra.mono_mul
    cases = 0
    for space in (RealProj(), Sphere(1)):
        for degree in range(1, 9):
            for m in monomial_basis(space, degree, 2):
                psi = coproduct(frozenset({m}))
                for r in range(1, degree + 1):
                    lhs = coproduct(sq_down(r, frozenset({m})))
                    rhs: set = set()
                    for left, right in psi:
                        for i in range(r + 1):
                            for ml in sq_down(i, frozenset({left})):
                                for mr in sq_down(r - i, frozenset({right})):
                                    rhs ^= {(ml, mr)}
                    assert lhs == frozenset(rhs), (m, r)
                    cases += 1
    assert cases > 500
