"""Kernel machinery and the desk-scale verifiers."""

import hashlib
import itertools

import pytest

import qhk.algebra
import qhk.sieve
from qhk.algebra import (
    EL_ONE,
    EL_ZERO,
    MONO_ONE,
    _coproduct_mono,
    _coproduct_word,
    _tensor_pow,
    apply_q,
    el_add,
    el_degree,
    el_gen,
    el_mul,
    el_square,
    indecomposable_part,
    is_primitive,
    mono_word,
    reduced_coproduct,
    root,
)
from qhk.cache import basis_to_bytes
from qhk.exprs import format_element, parse_element
from qhk.sieve import (
    VerifyReport,
    annihilated_subspace,
    check_curtis_bound,
    _coproduct_packing,
    _map_kernel,
    _primitive_kernel,
    _steenrod_packing,
    basis_order_key,
    monomial_basis,
    primitive_subspace,
    run_verifier,
    sample_members,
    spherical_candidates,
    verify_annihilation,
    verify_root_compatibility,
    verify_spherical_form,
    verify_suspension_factorization,
)
from qhk.spaces import Generator, RealProj, SigmaCPplus, Sphere
from qhk.steenrod import element_is_A_annihilated, sq_down
from qhk.words import AdmissibleGen, admissible_words

P = RealProj()
S1 = Sphere(1)
SPACES = (P, S1, Sphere(2), SigmaCPplus(), RealProj(shift=1), SigmaCPplus(shift=1))


# -- kernels -------------------------------------------------------------------

def _columns(rows):
    """The 0/1 matrix with these rows, as _map_kernel's column bitmasks."""
    return [sum(r[j] << k for k, r in enumerate(rows)) for j in range(len(rows[0]))]


def _vectors(masks, n):
    return {tuple((mask >> j) & 1 for j in range(n)) for mask in masks}


def test_map_kernel_example():
    assert _vectors(_map_kernel(_columns([[1, 1, 0], [0, 1, 1]])), 3) == {(1, 1, 1)}


def test_map_kernel_extremes():
    assert _map_kernel(_columns([[1, 0], [0, 1]])) == []
    assert _vectors(_map_kernel(_columns([[0, 0, 0]])), 3) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def _brute_kernel(rows):
    n = len(rows[0])
    out = set()
    for bits in itertools.product((0, 1), repeat=n):
        if all(sum(r[j] * bits[j] for j in range(n)) % 2 == 0 for r in rows):
            out.add(bits)
    return out


def test_map_kernel_against_brute_force():
    import random

    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        masks = _map_kernel(_columns(rows))
        basis = _vectors(masks, n)
        # every basis vector lies in the kernel
        for v in basis:
            assert all(sum(r[j] * v[j] for j in range(n)) % 2 == 0 for r in rows)
        # and spans it: dimension check against full enumeration
        span = {tuple([0] * n)}
        for v in basis:
            span |= {tuple(a ^ b for a, b in zip(s, v)) for s in span}
        assert span == _brute_kernel(rows)
        # and is independent
        assert 2 ** len(masks) == len(span)


def _permute_bits(mask, perm):
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def test_map_kernel_ignores_column_numbering():
    import random

    rng = random.Random(11)
    cases = [
        [rng.getrandbits(ncols) for _ in range(nrows)]
        for nrows, ncols in ((1, 1), (6, 3), (12, 12), (30, 20), (40, 64))
        for _ in range(10)
    ]
    # the sieve's own images, whose kernels are long and dense
    cases.append(list(_coproduct_packing(P, 9, 2).images(monomial_basis(P, 9, 2))))
    cases.append(list(_steenrod_packing(S1, 12, 3).images(monomial_basis(S1, 12, 3))))
    for images in cases:
        ncols = max((im.bit_length() for im in images), default=0)
        want = _map_kernel(images)
        for _ in range(5):
            perm = list(range(ncols))
            rng.shuffle(perm)
            assert _map_kernel([_permute_bits(im, perm) for im in images]) == want


def test_map_kernel_small():
    assert _map_kernel([1, 1]) == [0b11]
    assert _map_kernel([0]) == [1]
    assert _map_kernel([1, 2, 3]) == [0b111]
    assert _map_kernel([5, 3]) == []


# -- bases ---------------------------------------------------------------------

def _brute_monomials(space, degree, max_len):
    words = [w for d in range(1, degree + 1) for w in admissible_words(space, d, max_len)]
    out = set()

    def rec(idx, remaining, acc):
        if remaining == 0:
            from qhk.algebra import mono_from_pairs

            out.add(mono_from_pairs(acc))
            return
        if idx == len(words):
            return
        w = words[idx]
        for e in range(0, remaining // w.degree + 1):
            rec(idx + 1, remaining - e * w.degree, acc + [(w, e)])

    rec(0, degree, [])
    return out


def test_monomial_basis_matches_brute_force():
    for space in (S1, P):
        for degree in range(1, 9):
            basis = monomial_basis(space, degree, 2)
            assert len(set(basis)) == len(basis)
            assert set(basis) == _brute_monomials(space, degree, 2)
            assert all(m.degree == degree for m in basis)


def test_monomial_basis_enumeration_order_is_pinned():
    # the cache bytes of every basis over P, S1, SCP and P^s1 at cap 2,
    # degrees 1-10, as the unpruned enumeration wrote them
    h = hashlib.sha256()
    for space in (P, S1, SigmaCPplus(), RealProj(shift=1)):
        for degree in range(1, 11):
            h.update(basis_to_bytes(space, degree, 2, monomial_basis(space, degree, 2)))
    assert h.hexdigest() == "13d9f4a3e8fbb035399626bfe8fcdec7e3defab88bef925c826ff61d1a8868aa"


def test_basis_order_key_descends_along_the_enumeration():
    for space in SPACES:
        for cap, top in ((2, 10), (3, 9)):
            for degree in range(1, top + 1):
                keys = [basis_order_key(m) for m in monomial_basis(space, degree, cap)]
                assert all(a > b for a, b in zip(keys, keys[1:])), (space, degree, cap)


def test_monomial_basis_small_counts():
    # hand counts over the circle: degree 3 has Q^2 g1 and g1^3
    assert len(monomial_basis(S1, 1, 3)) == 1
    assert len(monomial_basis(S1, 2, 3)) == 1
    assert len(monomial_basis(S1, 3, 3)) == 2


# -- packed images against the Element layer -----------------------------------

def _powers_of_two_below(degree):
    a = 1
    while a < degree:
        yield a
        a *= 2


def _check_packed_terms(space, degree, cap, monomials, st=None, cp=None):
    st = st or _steenrod_packing(space, degree, cap)
    cp = cp or _coproduct_packing(space, degree, cap)
    for m in monomials:
        terms = st.terms(m)
        assert len(set(terms)) == len(terms)
        got: dict = {}
        for x in terms:
            a, left, right = st.unpack(x)
            assert right == MONO_ONE
            got.setdefault(a, set()).add(left)
        want = {a: set(sq_down(a, frozenset({m}))) for a in _powers_of_two_below(degree)}
        assert got == {a: t for a, t in want.items() if t}, m
        terms = cp.terms(m)
        assert len(set(terms)) == len(terms)
        got_pairs = set()
        for x in terms:
            low, left, right = cp.unpack(x)
            assert low == left.degree
            got_pairs.add((left, right))
        want_pairs = {
            (l, r) for l, r in reduced_coproduct(frozenset({m})) if 0 < l.degree <= degree // 2
        }
        assert got_pairs == want_pairs, m


def _element_images(space, degree, cap):
    """The Steenrod and reduced-coproduct images of each basis monomial,
    computed term by term in the Element layer, as bitmasks."""
    st_cols: dict = {}
    cp_cols: dict = {}
    st, cp = [], []
    for m in monomial_basis(space, degree, cap):
        mask = 0
        for a in _powers_of_two_below(degree):
            for t in sq_down(a, frozenset({m})):
                mask |= 1 << st_cols.setdefault((a, t), len(st_cols))
        st.append(mask)
        mask = 0
        for pair in reduced_coproduct(frozenset({m})):
            mask |= 1 << cp_cols.setdefault(pair, len(cp_cols))
        cp.append(mask)
    return st, cp


def _elements(space, degree, cap, masks):
    basis = monomial_basis(space, degree, cap)
    return tuple(
        frozenset(basis[i] for i in range(len(basis)) if (mask >> i) & 1) for mask in masks
    )


@pytest.mark.parametrize(
    "space,cap,top", [(space, 2, 10) for space in SPACES] + [(P, 3, 9), (S1, 3, 9)]
)
def test_packed_images_match_the_element_layer(space, cap, top):
    for degree in range(1, top + 1):
        _check_packed_terms(space, degree, cap, monomial_basis(space, degree, cap))
        st, cp = _element_images(space, degree, cap)
        shift = max((im.bit_length() for im in st), default=0)
        assert annihilated_subspace(space, degree, cap) == _elements(
            space, degree, cap, _map_kernel(st)
        )
        assert primitive_subspace(space, degree, cap) == _elements(
            space, degree, cap, _map_kernel(cp)
        )
        assert spherical_candidates(space, degree, cap) == _elements(
            space, degree, cap, _map_kernel([a | (b << shift) for a, b in zip(st, cp)])
        )


@pytest.mark.parametrize(
    "space, cap, degrees", [(P, 2, range(11, 17)), (S1, 3, range(1, 21))]
)
def test_candidates_match_the_stacked_elimination(space, cap, degrees):
    # spherical_candidates eliminates the Steenrod images of the primitive
    # basis; one elimination of the stacked packed images gives the same basis
    for degree in degrees:
        basis = monomial_basis(space, degree, cap)
        st = _steenrod_packing(space, degree, cap).images(basis)
        cp = _coproduct_packing(space, degree, cap).images(basis)
        shift = max((im.bit_length() for im in st), default=0)
        stacked = _map_kernel([a | (b << shift) for a, b in zip(st, cp)])
        assert spherical_candidates(space, degree, cap) == _elements(
            space, degree, cap, stacked
        ), degree


def _record_collisions(packing):
    """Count, on the packing, the products in which two sums are equal, so
    that the parity count decides their terms."""
    times = packing._times
    packing.collisions = 0

    def recorded(xs, ys, lows):
        sums = [z for x in xs for y in ys if (z := x + y) & packing.low in lows]
        packing.collisions += len(set(sums)) < len(sums)
        return times(xs, ys, lows)

    packing._times = recorded
    return packing


def test_packed_terms_where_sums_collide():
    # the first degrees at which two Steenrod sums of a product are equal:
    # a product that skipped the parity count would keep a term twice, or
    # keep one whose coefficient is even
    st_collisions = cp_collisions = 0
    for degree in range(11, 14):
        st = _record_collisions(_steenrod_packing(P, degree, 2))
        cp = _record_collisions(_coproduct_packing(P, degree, 2))
        _check_packed_terms(P, degree, 2, monomial_basis(P, degree, 2), st, cp)
        st_collisions += st.collisions
        cp_collisions += cp.collisions
    assert st_collisions and cp_collisions


def test_packed_fields_hold_the_largest_exponents():
    # a1^d has the widest exponent field of its degree, and its Steenrod and
    # coproduct images have the most terms of low word degree
    a1 = monomial_basis(P, 1, 2)[0].factors[0][0]
    for degree in range(1, 21):
        _check_packed_terms(P, degree, 2, [mono_word(a1, degree)])


# -- known subspaces at degree 3 over the projective space ----------------------

def test_primitives_at_degree_three():
    prim = primitive_subspace(P, 3, 3)
    assert len(prim) == 2
    for el in prim:
        assert is_primitive(el)
    members = _span(prim)
    assert parse_element("Q^2 a1") in members
    assert parse_element("a3 + a1*a2 + a1^3") in members


def test_annihilated_at_degree_three():
    ann = annihilated_subspace(P, 3, 3)
    assert len(ann) == 3
    for el in ann:
        assert element_is_A_annihilated(el)
    xi = parse_element("Q^2 a1 + a1*a2 + a1^3 + a3")
    assert xi in _span(ann)


def _span(basis):
    out = {frozenset()}
    for v in basis:
        out |= {el_add(s, v) for s in out}
    return out


def test_spherical_candidates_known():
    cand = spherical_candidates(P, 3, 3)
    assert len(cand) == 1
    assert cand[0] == parse_element("Q^2 a1 + a1*a2 + a1^3 + a3")
    assert spherical_candidates(S1, 2, 2) == (parse_element("g1^2", space=S1),)


def test_degree_zero_is_the_unit():
    # the basis of degree 0 is the empty monomial, whose images have no
    # kept term: every kernel is spanned by 1
    for space in (P, S1):
        for cap in (2, 3):
            assert annihilated_subspace(space, 0, cap) == (EL_ONE,)
            assert primitive_subspace(space, 0, cap) == (EL_ONE,)
            assert spherical_candidates(space, 0, cap) == (EL_ONE,)


def test_subspace_dims_monotone_in_cap():
    for degree in range(1, 9):
        assert len(annihilated_subspace(P, degree, 2)) <= len(annihilated_subspace(P, degree, 3))
        assert len(primitive_subspace(P, degree, 2)) <= len(primitive_subspace(P, degree, 3))


# -- sampling ------------------------------------------------------------------

def test_sample_members_order_and_cap():
    a = parse_element("a1")
    b = parse_element("a2")
    c = parse_element("a3")
    got = sample_members((a, b, c), 10)
    assert got == [a, b, c, a | b, a | c, b | c, a | b | c]
    assert sample_members((a, b, c), 4) == [a, b, c, a | b]
    assert sample_members((), 5) == []
    # all sampled vectors are distinct and nonzero
    assert len(set(map(frozenset, got))) == 7
    assert all(v for v in got)


# -- verifier smoke runs --------------------------------------------------------

def test_report_shape():
    rep = verify_annihilation(P, 6, 2)
    assert rep.ok and rep.checked > 0 and not rep.excluded
    js = rep.to_json()
    assert set(js) == {"theorem", "space", "bounds", "checked", "failures", "excluded", "millis"}
    assert js["theorem"] == "1" and js["space"] == "P"
    bad = VerifyReport("1", "P", {}, 1, failures=["x"])
    assert not bad.ok


def test_verify_annihilation_smoke():
    assert verify_annihilation(S1, 10, 2).ok
    assert verify_annihilation(P, 8, 2).ok


def test_verify_suspension_smoke():
    rep = verify_suspension_factorization(S1, 10, 2)
    assert rep.ok
    rep = verify_suspension_factorization(P, 6, 3)
    assert rep.ok
    # decomposable-only members are skipped, not failed
    assert any(s.startswith("suspension image zero") for s in rep.excluded)


def test_verify_spherical_form_records_the_degree_three_class():
    rep = verify_spherical_form(P, 6, 3)
    assert rep.ok
    assert "Q^2 a1 + a3 + a1^3 + a1*a2" in rep.excluded
    # over a suspension the odd-degree statement is asserted, so nothing lands
    # in excluded
    rep = verify_spherical_form(S1, 8, 2)
    assert rep.ok and not rep.excluded


def test_verify_spherical_form_checks_every_basis_vector():
    for space, top, cap in ((P, 9, 2), (S1, 10, 3)):
        rep = verify_spherical_form(space, top, cap)
        assert rep.ok
        assert rep.bounds == {"max_degree": top, "max_length": cap}
        assert rep.checked == sum(
            len(annihilated_subspace(space, d, cap)) + len(spherical_candidates(space, d, cap))
            for d in range(1, top + 1)
        )


def test_hidden_witness_for_the_degree_three_class():
    # its leading word Q^2 a1 desuspends to the square of the suspended
    # generator, which is annihilated: the factorization check must accept
    rep = verify_suspension_factorization(P, 3, 3)
    assert rep.ok


def test_verify_root_smoke():
    rep = verify_root_compatibility(P, 2, hopf_degree=6, square_degree=6, word_degree=8, primitive_degree=6)
    assert rep.ok and rep.checked == 187


@pytest.mark.parametrize(
    "space, checked",
    [(P, 526), (S1, 142), (SigmaCPplus(), 230), (RealProj(shift=1), 82)],
)
def test_verify_root_counts(space, checked):
    rep = verify_root_compatibility(space, 2, 8, 6, 8, 6)
    assert rep.ok and rep.checked == checked


@pytest.fixture
def unmemoized_coproducts():
    """A broken coproduct must meet no memoized coproduct, and leave none
    behind for later tests."""
    _coproduct_word.cache_clear()
    _primitive_kernel.cache_clear()
    yield
    _coproduct_word.cache_clear()
    _primitive_kernel.cache_clear()


def test_verify_root_catches_a_dropped_coproduct_term(monkeypatch, unmemoized_coproducts):
    # Δ(Q^3 a1) loses one of its two terms
    target = AdmissibleGen((3,), Generator(P, 1))

    def broken(w):
        out = _coproduct_word(w)
        return out - {sorted(out, key=repr)[0]} if w == target else out

    monkeypatch.setattr(qhk.algebra, "_coproduct_word", broken)
    rep = verify_root_compatibility(P, 2, 8, 6, 8, 6)
    assert rep.checked == 526
    assert rep.failures == [
        f"coassociativity fails on {m}"
        for m in (
            "Q^4 a2", "Q^5 a2", "a1*Q^4 a2", "Q^6 a2",
            "Q^5 a3", "a2*Q^4 a2", "a1*Q^5 a2", "a1^2*Q^4 a2",
        )
    ]


def test_verify_root_catches_a_wrong_cube(monkeypatch, unmemoized_coproducts):
    # Δ(w^3) comes out as Δ(w)
    monkeypatch.setattr(
        qhk.algebra, "_tensor_pow", lambda a, e: _tensor_pow(a, 1 if e == 3 else e)
    )
    rep = verify_root_compatibility(P, 2, 8, 6, 8, 6)
    assert rep.checked == 526 and len(rep.failures) == 99
    assert rep.failures[:2] == [
        "coassociativity fails on a1^2*a2",
        "coassociativity fails on a1*a2^2",
    ]
    digest = hashlib.sha256("\n".join(rep.failures).encode()).hexdigest()
    assert digest == "8bb907a7eab4cc8db23442d0167eb6fb49bee8f5fd83be3367a482db887f4756"


def _rank(elements) -> int:
    """The dimension of the span of these elements."""
    columns: dict = {}
    masks = [sum(1 << columns.setdefault(m, len(columns)) for m in el) for el in elements]
    return len(masks) - len(_map_kernel(masks))


@pytest.mark.parametrize(
    "space, cap, top",
    [(space, cap, top) for space in (P, S1, SigmaCPplus()) for cap, top in ((2, 12), (3, 9))],
)
def test_milnor_moore_primitives(space, cap, top):
    # 0 -> P(ξH) -> P(H) -> Q(H) is exact (Milnor–Moore): the primitives of
    # degree d are the squares of the primitives of degree d/2, plus a
    # part that maps injectively to the indecomposables
    for d in range(1, top + 1):
        prims = primitive_subspace(space, d, cap)
        squares = len(primitive_subspace(space, d // 2, cap)) if d % 2 == 0 else 0
        assert len(prims) == squares + _rank(indecomposable_part(xi) for xi in prims), d


@pytest.mark.parametrize(
    "space, cap, top",
    [(space, cap, top) for space in (P, S1, SigmaCPplus()) for cap, top in ((2, 12), (3, 9))],
)
def test_milnor_moore_squares_and_roots(space, cap, top):
    # a square is primitive exactly when its root is: squaring maps the
    # primitives of degree d/2 into those of degree d, and no other square
    # of a degree-d/2 class is primitive
    for d in range(2, top + 1, 2):
        prims = primitive_subspace(space, d // 2, cap)
        for p in prims:
            assert root(el_square(p)) == p
            assert is_primitive(el_square(p)), format_element(p)
        columns: dict = {}
        images = []
        for m in monomial_basis(space, d // 2, cap):
            terms = reduced_coproduct(el_square(frozenset({m})))
            images.append(sum(1 << columns.setdefault(t, len(columns)) for t in terms))
        assert len(_map_kernel(images)) == len(prims), d


@pytest.mark.parametrize(
    "space, top", [(S1, 16), (SigmaCPplus(), 14), (RealProj(shift=1), 14)]
)
def test_primitives_of_a_suspension_are_the_powers_of_two_of_words(space, top):
    # the generators of a suspension are primitive, so H_*QX is polynomial
    # on primitive words, and over GF(2) the primitives of such an algebra
    # are spanned by the 2^k-th powers of its generators (Milnor–Moore)
    for d in range(1, top + 1):
        powers = [
            frozenset({m})
            for m in monomial_basis(space, d, 2)
            if len(m.factors) == 1 and not m.factors[0][1] & (m.factors[0][1] - 1)
        ]
        prims = primitive_subspace(space, d, 2)
        assert len(prims) == len(powers) and set(prims) == set(powers), d


def test_newton_primitives_lie_in_the_primitive_kernel():
    # Δa_n = sum a_i (x) a_{n-i}, the coproduct of the complete symmetric
    # functions, so the power sums of Newton's identity, p_n = n a_n +
    # sum_{i<n} p_i a_{n-i}, are primitive; so are Q^i of a primitive and
    # its 2^k-th powers.  They span part of each primitive kernel at cap 2:
    # 5 of 8 dimensions at degree 11, 8 of 9 at 14
    top = 14
    p = {}
    for n in range(1, top + 1):
        acc = el_gen(Generator(P, n)) if n % 2 else EL_ZERO
        for i in range(1, n):
            acc = el_add(acc, el_mul(p[i], el_gen(Generator(P, n - i))))
        p[n] = acc
    for m in range(1, top // 2 + 1):
        assert p[2 * m] == el_square(p[m])
    family = set(p.values())
    layer = family
    for _ in range(2):  # Q^I with I of length <= 2, the cap
        layer = {
            y
            for x in layer
            for i in range(el_degree(x), top - el_degree(x) + 1)
            if (y := apply_q(i, x))
        }
        family |= layer
    for x in list(family):
        while 2 * el_degree(x) <= top:
            x = el_square(x)
            family.add(x)
    by_degree: dict = {}
    for x in family:
        by_degree.setdefault(el_degree(x), []).append(x)
    covered = []
    for d in range(1, top + 1):
        prims = primitive_subspace(P, d, 2)
        assert _rank(prims + tuple(by_degree[d])) == len(prims), d
        covered.append(_rank(by_degree[d]))
    assert covered == [1, 1, 2, 2, 2, 3, 4, 4, 4, 5, 5, 7, 6, 8]


def test_single_use_functions_keep_no_memo_table():
    # each is asked once per monomial or degree; only the root verifier
    # reuses coproducts, and it keeps its own table for the length of a
    # call.  In the sieve, images die with the call that builds them: the
    # bases and the current degree's primitive kernel, read by
    # primitive_subspace and spherical_candidates, are the only tables
    assert not hasattr(_coproduct_mono, "cache_info")
    memoized = {
        name
        for name, obj in vars(qhk.sieve).items()
        if getattr(obj, "__module__", None) == "qhk.sieve" and hasattr(obj, "cache_info")
    }
    assert memoized == {"monomial_basis", "_primitive_kernel"}
    assert _primitive_kernel.cache_info().maxsize == 1


def test_run_verifier_dispatch():
    assert run_verifier("1", S1, 6, 2).theorem == "1"
    assert run_verifier("root", S1, None, 2).theorem == "root"
    with pytest.raises(ValueError):
        run_verifier("1", S1, None, 2)
    with pytest.raises(ValueError):
        run_verifier("4", S1, 6, 2)


def test_curtis_bound_small():
    checked, failures = check_curtis_bound(16, 3)
    assert checked > 0
    assert failures == []


def test_indecomposable_sampling_consistency():
    # sampled annihilated members stay annihilated under summing
    basis = annihilated_subspace(P, 5, 2)
    for xi in sample_members(basis, 16):
        assert element_is_A_annihilated(xi)
        assert format_element(xi)
        assert indecomposable_part(xi) <= xi
