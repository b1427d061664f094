from __future__ import annotations

import itertools
import pickle
import random
import subprocess
import sys

import pytest

from qhk.algebra import (
    EL_ONE,
    EL_ZERO,
    MONO_ONE,
    apply_q,
    coproduct,
    decomposable_part,
    el_add,
    el_degree,
    el_gen,
    el_mul,
    el_square,
    evaluate_admissible,
    indecomposable_part,
    is_primitive,
    Monomial,
    mono_from_pairs,
    mono_mul,
    mono_word,
    normalize,
    reduced_coproduct,
    root,
    suspend,
    suspend_gen,
    TENSOR_ONE,
    _coproduct_word,
    _tensor_mul,
    _tensor_pow,
)
from qhk.exprs import element_from_json, element_to_json, format_element, parse_element
from qhk.sieve import monomial_basis
from qhk.spaces import Generator, RealProj, SigmaCPplus, Sphere, parse_gen, parse_space
from qhk.steenrod import sq_down
from qhk.words import AdmissibleGen, admissible_words

g1 = parse_gen("g1")
a1 = parse_gen("a1")
a2 = parse_gen("a2")
a3 = parse_gen("a3")


def W(ops, gen):
    return AdmissibleGen(tuple(ops), gen)


def word_el(ops, gen, e=1):
    return frozenset({mono_word(W(ops, gen), e)})


def test_monomial_canonicalization():
    w1, w2 = W((2,), a1), W((), a2)
    m = mono_from_pairs([(w1, 1), (w2, 2), (w1, 1)])
    assert m == ((w2, 2), (w1, 2))   # a2 (degree 2) before Q^2 a1 (degree 3)
    assert m.degree == 2 * 2 + 2 * 3
    assert m.total_exponent == 4
    assert mono_from_pairs([(w1, 0)]) == MONO_ONE


def test_element_arithmetic():
    x, y = el_gen(a1), el_gen(a2)
    assert el_add(x, y, x) == y
    assert el_mul(x, y) == el_mul(y, x)
    assert el_mul(el_add(x, y), el_add(x, y)) == el_add(el_square(x), el_square(y))
    assert el_mul(x, EL_ONE) == x
    assert el_mul(x, EL_ZERO) == EL_ZERO
    assert el_degree(EL_ZERO) is None
    assert el_degree(el_mul(x, y)) == 3
    with pytest.raises(ValueError):
        el_degree(el_add(x, y))


def test_unstable_rules():
    for g in (g1, a2, a3):
        x = el_gen(g)
        d = el_degree(x)
        for n in range(1, d):
            assert apply_q(n, x) == EL_ZERO
        assert apply_q(d, x) == el_square(x)
    assert apply_q(0, EL_ONE) == EL_ONE
    assert apply_q(3, EL_ONE) == EL_ZERO
    assert apply_q(0, el_gen(a1)) == EL_ZERO
    with pytest.raises(ValueError):
        apply_q(-1, el_gen(a1))


def test_apply_q_on_squares():
    sq = el_square(el_gen(a1))           # a1^2, degree 2
    assert apply_q(2, sq) == word_el((), a1, 4)
    assert apply_q(3, sq) == EL_ZERO     # odd on a square, above the degree
    assert apply_q(4, sq) == el_square(apply_q(2, el_gen(a1)))
    assert apply_q(6, sq) == el_square(apply_q(3, el_gen(a1)))


def test_normalize_known_values():
    assert normalize((6, 2), a1) == word_el((5, 3), a1)
    assert normalize((7, 3), g1) == EL_ZERO
    assert normalize((4, 3), g1) == word_el((3,), g1, 2)
    assert normalize((2, 1), a1) == word_el((), a1, 4)
    assert normalize((2,), g1) == word_el((2,), g1)
    assert normalize((), a2) == el_gen(a2)
    assert normalize((1,), a2) == EL_ZERO        # below the degree
    assert normalize((2,), a2) == el_square(el_gen(a2))


def test_evaluate_admissible_collapse():
    assert evaluate_admissible((4, 3), g1) == mono_word(W((3,), g1), 2)
    assert evaluate_admissible((2, 1), a1) == mono_word(W((), a1), 4)
    assert evaluate_admissible((3, 2), g1) == mono_word(W((2,), g1), 2)
    assert evaluate_admissible((3, 3), g1) is None    # e1 = -1
    assert evaluate_admissible((9, 5), g1) == mono_word(W((9, 5), g1))


def test_cartan_product_rule():
    x = el_mul(el_gen(a1), el_gen(a2))
    assert apply_q(3, x) == el_mul(el_square(el_gen(a1)), el_square(el_gen(a2)))
    rng = random.Random(3)
    pool = [word_el((), a1), word_el((2,), a1), word_el((), a3), word_el((3,), a1),
            word_el((), a2, 2), word_el((4, 2), a1)]
    for _ in range(40):
        u = rng.choice(pool)
        v = rng.choice(pool)
        n = rng.randrange(0, 14)
        lhs = apply_q(n, el_mul(u, v))
        rhs = EL_ZERO
        for i in range(n + 1):
            rhs = el_add(rhs, el_mul(apply_q(i, u), apply_q(n - i, v)))
        assert lhs == rhs


def test_composite_matches_straightened_normal_form():
    # applying operations one at a time must agree with Adem straightening
    # of the formal sequence; this ties the whole relation system together
    for g in (g1, parse_gen("g2"), a1, a2, a3):
        x = el_gen(g)
        for b in range(1, 9):
            qb = apply_q(b, x)
            for a in range(1, 13):
                assert apply_q(a, qb) == normalize((a, b), g), (a, b, g)


def test_triple_composites():
    for g in (g1, a1, a2):
        x = el_gen(g)
        for c in range(1, 6):
            qc = apply_q(c, x)
            for b in range(1, 9):
                qbc = apply_q(b, qc)
                for a in range(1, 12):
                    assert apply_q(a, qbc) == normalize((a, b, c), g)


def test_coproduct_on_generators():
    # psi(a2) has the interior term a1 (x) a1
    red = reduced_coproduct(el_gen(a2))
    assert red == frozenset({(mono_word(W((), a1)), mono_word(W((), a1)))})
    assert is_primitive(el_gen(a1))
    assert is_primitive(el_gen(g1))
    assert is_primitive(el_gen(parse_gen("c5")))
    assert is_primitive(el_gen(parse_gen("a4^s1")))


def test_coproduct_is_algebra_map():
    rng = random.Random(5)
    pool = [el_gen(a1), el_gen(a2), el_gen(a3), word_el((2,), a1), word_el((4, 2), a1),
            el_square(el_gen(a1))]
    for _ in range(30):
        u, v = rng.choice(pool), rng.choice(pool)
        assert coproduct(el_mul(u, v)) == _tensor_mul(coproduct(u), coproduct(v))


def test_coproduct_commutes_with_operations():
    # psi Q^n = sum_{i+j=n} (Q^i x Q^j) psi, checked on inhomogeneous sums too
    rng = random.Random(9)
    pool = [el_gen(a1), el_gen(a2), word_el((2,), a1), el_mul(el_gen(a1), el_gen(a2))]
    for _ in range(25):
        x = rng.choice(pool)
        n = rng.randrange(0, 9)
        lhs = coproduct(apply_q(n, x))
        rhs: set = set()
        for l, r in coproduct(x):
            for i in range(n + 1):
                for ml in apply_q(i, frozenset({l})):
                    for mr in apply_q(n - i, frozenset({r})):
                        rhs ^= {(ml, mr)}
        assert lhs == frozenset(rhs)


def test_coproduct_of_a_word_matches_the_cartan_recursion():
    # reference: Δ Q^n w' = sum_{i+j=n} (Q^i (x) Q^j) Δ w', one operation at
    # a time through apply_q, for every word of four spaces to degree 20
    words = dict.fromkeys(
        w for name in ("P", "S1", "SCP", "P^s1") for cap in (2, 3)
        for d in range(1, 21) for w in admissible_words(parse_space(name), d, cap)
    )
    for w in words:
        if not w.ops:
            continue
        n = w.ops[0]
        rhs: set = set()
        for l, r in coproduct(word_el(w.ops[1:], w.gen)):
            for i in range(n + 1):
                for ml in apply_q(i, frozenset({l})):
                    for mr in apply_q(n - i, frozenset({r})):
                        rhs ^= {(ml, mr)}
        assert coproduct(word_el(w.ops, w.gen)) == frozenset(rhs), w


def _naive_pow(a, e):
    """a^e as the e-fold product, starting from the unit."""
    out = TENSOR_ONE
    for _ in range(e):
        out = _tensor_mul(out, a)
    return out


def test_tensor_pow_matches_repeated_products():
    words = [w for space in (RealProj(), Sphere(1)) for d in range(1, 9)
             for w in admissible_words(space, d, 2)]
    assert len(words) > 20
    for w in words:
        a = _coproduct_word(w)
        assert _tensor_pow(a, 1) is a
        for e in range(9):
            assert _tensor_pow(a, e) == _naive_pow(a, e), (w, e)


def test_coproduct_of_a_monomial_is_the_product_of_its_factors_powers():
    basis = [m for d in range(0, 9) for m in monomial_basis(RealProj(), d, 2)]
    assert MONO_ONE in basis and len(basis) > 100
    for m in basis:
        want = TENSOR_ONE
        for w, e in m:
            want = _tensor_mul(want, _naive_pow(_coproduct_word(w), e))
        assert coproduct(frozenset({m})) == want, m


def test_coproduct_of_powers_uses_binomial_parities():
    got = coproduct(el_square(el_square(el_gen(a1))))    # a1^4
    m = mono_word(W((), a1), 4)
    assert got == frozenset({(m, MONO_ONE), (MONO_ONE, m)})
    got3 = coproduct(frozenset({mono_word(W((), a1), 3)}))
    m1, m2 = mono_word(W((), a1)), mono_word(W((), a1), 2)
    assert got3 == frozenset({
        (mono_word(W((), a1), 3), MONO_ONE), (MONO_ONE, mono_word(W((), a1), 3)),
        (m1, m2), (m2, m1),
    })


@pytest.mark.parametrize("cap", [2, 3])
def test_reduced_coproduct_is_cocommutative(cap):
    # the sieve keeps only the half of each reduced coproduct with
    # deg l <= deg / 2; that has the same kernel because of this symmetry
    spaces = (RealProj(), Sphere(1), Sphere(2), SigmaCPplus(), RealProj(shift=1),
              SigmaCPplus(shift=1))
    for space in spaces:
        for degree in range(1, 11):
            for m in monomial_basis(space, degree, cap):
                red = reduced_coproduct(frozenset({m}))
                assert red == frozenset((r, l) for l, r in red), m


def test_three_dimensional_primitive_over_p():
    # Q^2 a1 + a1 a2 + a1^3 + a3 is primitive: the interior diagonal terms
    # cancel in pairs
    xi = el_add(
        word_el((2,), a1),
        el_mul(el_gen(a1), el_gen(a2)),
        el_mul(el_gen(a1), el_square(el_gen(a1))),
        el_gen(a3),
    )
    assert is_primitive(xi)
    assert is_primitive(word_el((2,), a1))
    assert not is_primitive(el_gen(a2))


def test_suspension_known_values():
    a1s = suspend_gen(a1)
    assert suspend(word_el((3,), a1)) == word_el((3,), a1s)
    assert suspend(word_el((2,), a1)) == frozenset({mono_word(W((), a1s), 2)})
    assert suspend(word_el((2,), a1), 2) == EL_ZERO
    assert suspend(el_mul(el_gen(a1), el_gen(a2))) == EL_ZERO
    assert suspend(EL_ONE) == EL_ZERO
    assert suspend(el_gen(g1)) == el_gen(parse_gen("g2"))
    assert suspend(word_el((3,), a1), 2) == frozenset(
        {mono_word(W((), suspend_gen(a1, 2)), 2)}
    )
    assert suspend(word_el((3,), a1), 3) == EL_ZERO


def test_suspension_never_kills_a_single_word():
    # a basis word has positive excess, so one suspension leaves at worst a
    # square; only decomposables die
    for w in admissible_words(RealProj(), 9, 2):
        img = suspend(frozenset({mono_word(w)}))
        assert el_degree(img) == 10


def test_root_known_values():
    assert root(word_el((8, 4), a2)) == word_el((4, 2), a1)
    assert root(word_el((3,), a1, 2)) == word_el((3,), a1)
    assert root(word_el((3,), a1)) == EL_ZERO
    assert root(word_el((4,), a2)) == word_el((2,), a1)
    assert root(el_square(el_gen(a2))) == el_gen(a2)
    assert root(el_gen(a2)) == el_gen(a1)
    assert root(el_gen(a3)) == EL_ZERO
    assert root(el_gen(g1)) == EL_ZERO
    assert root(EL_ONE) == EL_ONE


def test_root_halves_even_operations_on_basis_words():
    for degree in range(2, 17, 2):
        for w in admissible_words(RealProj(), degree, 3):
            if not w.ops:
                continue
            i = w.ops[0]
            tail = frozenset({mono_word(AdmissibleGen(w.ops[1:], w.gen))})
            if i % 2 == 0:
                assert root(frozenset({mono_word(w)})) == apply_q(i // 2, root(tail))
            else:
                assert root(frozenset({mono_word(w)})) == EL_ZERO


def _root_by_duality(m) -> frozenset:
    # diagonal of the coproduct, the pairing definition of the halving root
    return frozenset(l for l, r in coproduct(frozenset({m})) if l == r)


def test_root_agrees_with_duality_on_basis_words():
    for degree in range(1, 13):
        for w in admissible_words(RealProj(), degree, 3):
            m = mono_word(w)
            assert root(frozenset({m})) == _root_by_duality(m), w


def test_root_diverges_from_duality_on_squares():
    # the exponent-halving rule sends e^2 -> e; the diagonal of
    # psi(e^2) = (psi e)^2 is empty in odd diagonal degrees
    m = mono_word(W((), a1), 2)
    assert root(frozenset({m})) == el_gen(a1)
    assert _root_by_duality(m) == EL_ZERO


def test_root_multiplicative_on_factor_disjoint_products():
    rng = random.Random(17)
    words = [w for d in range(1, 9) for w in admissible_words(RealProj(), d, 2)]
    for _ in range(60):
        u = rng.choice(words)
        v = rng.choice(words)
        if u == v:
            continue
        eu, ev = rng.randrange(1, 4), rng.randrange(1, 4)
        mu, mv = frozenset({mono_word(u, eu)}), frozenset({mono_word(v, ev)})
        assert root(el_mul(mu, mv)) == el_mul(root(mu), root(mv))


def test_part_splitting():
    xi = el_add(word_el((2,), a1), el_mul(el_gen(a1), el_gen(a2)), EL_ONE)
    assert indecomposable_part(xi) == word_el((2,), a1)
    assert decomposable_part(xi) == el_add(el_mul(el_gen(a1), el_gen(a2)), EL_ONE)


def test_merged_product_matches_the_sorting_constructor():
    P = RealProj()
    basis = [m for d in range(0, 9) for m in monomial_basis(P, d, 2)] + [MONO_ONE]
    assert len(basis) > 100
    for x in basis:
        for y in basis:
            got = mono_mul(x, y)
            assert got == mono_from_pairs(x + y)
            assert got.degree == x.degree + y.degree


def test_merged_product_across_space_kinds():
    # a_n and c_n at one shift differ only in the space kind, the last entry
    # of the generator key, which orders them; products of them commute and
    # match the sorting constructor
    for shift in ("", "^s1"):
        x = mono_word(W((), parse_gen(f"a3{shift}")))
        y = mono_word(W((), parse_gen(f"c3{shift}")))
        xy = mono_mul(mono_mul(x, y), mono_word(W((), a1)))
        for a, b in itertools.product((x, y, xy, mono_mul(x, x)), repeat=2):
            assert mono_mul(a, b) == mono_from_pairs(a + b)
            ab, ba = mono_mul(a, b), mono_mul(b, a)
            assert ab == ba and hash(ab) == hash(ba)
    assert parse_element("a3*c3 + c3*a3") == EL_ZERO


def test_cached_monomial_degree_and_hash():
    for space in (RealProj(), Sphere(1), SigmaCPplus()):
        for d in range(0, 11):
            for m in monomial_basis(space, d, 3):
                assert m.degree == sum(e * w.degree for w, e in m) == d
                twin = Monomial(tuple(m))
                assert twin == m and hash(twin) == hash(m)


def test_values_are_canonical_on_every_construction_path():
    # every path that builds a word must return the object that
    # monomial_basis holds, and every path that builds a monomial a
    # Monomial equal to the basis's, with the same hash; values are looked
    # up by their fields, so a fresh equal-valued word fails here
    space, cap, top = RealProj(), 2, 10
    assert parse_space("P") is space and parse_gen("a3") is Generator(space, 3)

    def wkey(w):
        g = w.gen
        return (w.ops, g.space.kind, g.space.dim, g.space.shift, g.index)

    def mkey(m):
        return tuple((wkey(w), e) for w, e in m)

    basis = {d: monomial_basis(space, d, cap) for d in range(top + 1)}
    monos = {mkey(m): m for ms in basis.values() for m in ms}
    words = {wkey(w): w for m in monos.values() for w, _ in m}
    seen = 0

    def check(el):
        nonlocal seen
        for m in el:
            seen += 1
            assert type(m) is Monomial
            assert monos[mkey(m)] == m and hash(monos[mkey(m)]) == hash(m)
            assert all(words[wkey(w)] is w for w, _ in m)

    for d in range(1, top + 1):
        for w in admissible_words(space, d, cap):
            assert words[wkey(w)] is w
    for g in (Generator(space, i) for i in range(1, 4)):
        for ops in itertools.product(range(1, 7), repeat=2):
            el = normalize(ops, g)
            if el and el_degree(el) <= top:
                check(el)
    for ms in basis.values():
        for m in ms:
            check({pickle.loads(pickle.dumps(m))})
            for l, r in coproduct(frozenset({m})):
                check({l, r})
            for a in range(1, m.degree + 1):
                check(sq_down(a, frozenset({m})))
            check(parse_element(format_element(frozenset({m})), space))
            check(element_from_json(element_to_json(frozenset({m}))))
    for d1 in range(top + 1):
        for d2 in range(d1, top - d1 + 1):
            for a, b in itertools.product(basis[d1], basis[d2]):
                check({mono_mul(a, b), mono_from_pairs(a + b)})
                check(el_mul(frozenset({a}), frozenset({b})))
    assert seen > 10000

    # an invalid word is refused every time, never kept
    a1 = Generator(space, 1)
    kept = dict(AdmissibleGen._table)
    for ops in ((1,), (5, 2)):  # excess 0; entries (2, 1) decrease
        for _ in range(2):
            with pytest.raises(ValueError):
                AdmissibleGen(ops, a1)
    assert dict(AdmissibleGen._table) == kept


_LIFETIME_SNIPPET = """
from qhk.sieve import monomial_basis
from qhk.spaces import Generator, Space, Sphere
from qhk.words import AdmissibleGen

S1 = Sphere(1)
for d in range(1, 21):
    monomial_basis(S1, d, 3)
basis = monomial_basis(S1, 20, 3)
assert set(AdmissibleGen._table.values()) == {w for m in basis for w, _ in m}
assert list(Generator._table.values()) == [Generator(S1, 1)]
assert list(Space._table.values()) == [S1]
print(len(AdmissibleGen._table))
"""


def test_canonical_values_die_with_their_last_reference():
    # the tables of canonical values hold them weakly: once monomial_basis
    # keeps only degree 20, the words that no degree-20 monomial uses are
    # gone.  A fresh interpreter, so that no other test's memo tables keep
    # values alive
    proc = subprocess.run([sys.executable, "-c", _LIFETIME_SNIPPET], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["42"]
