"""Kernel machinery and the desk-scale verifiers."""

import contextlib
import hashlib
import inspect
import io
import itertools
import struct
import time
import zlib

import pytest

import qhk.algebra
import qhk.cli
import qhk.exprs
import qhk.sieve
from qhk.algebra import (
    EL_ONE,
    EL_ZERO,
    MONO_ONE,
    Monomial,
    _coproduct_mono,
    _coproduct_word,
    _tensor_pow,
    apply_q,
    decomposable_part,
    el_add,
    el_degree,
    el_gen,
    el_mul,
    el_square,
    indecomposable_part,
    is_primitive,
    mono_mul,
    mono_word,
    reduced_coproduct,
    root,
    suspend,
)
from qhk.exprs import format_element, listing_terms, parse_element
from qhk.sieve import (
    VerifyReport,
    _admissible_sequences,
    bits,
    annihilated_kernel,
    annihilated_subspace,
    check_curtis_bound,
    _coproduct_packing,
    _map_kernel,
    _steenrod_packing,
    _vanishes_mod2,
    _WordFields,
    basis_dimension,
    monomial_basis,
    primitive_kernel,
    primitive_subspace,
    run_verifier,
    sample_members,
    spherical_candidates,
    verify_annihilation,
    verify_root_compatibility,
    verify_spherical_form,
    verify_suspension_factorization,
)
from qhk.spaces import (
    REALPROJ,
    SIGMACP,
    SPHERE,
    Generator,
    RealProj,
    SigmaCPplus,
    Sphere,
    gen_degree,
    is_suspension_like,
    space_name,
)
from qhk.steenrod import element_is_A_annihilated, nishida_expansion, sq_down
from qhk.words import AdmissibleGen, admissible_words, excess, is_admissible_ops, word_sort_key

P = RealProj()
S1 = Sphere(1)
SPACES = (P, S1, Sphere(2), SigmaCPplus(), RealProj(shift=1), SigmaCPplus(shift=1))


# -- kernels -------------------------------------------------------------------

def _columns(rows):
    """The 0/1 matrix with these rows, as _map_kernel's columns: each the
    list of the rows where it has a 1."""
    return [[k for k, r in enumerate(rows) if r[j]] for j in range(len(rows[0]))]


def _positions(mask):
    """An int mask as a row of keys: the positions of its set bits."""
    return [j for j in range(mask.bit_length()) if (mask >> j) & 1]


def _dense_kernel(images: list[int]) -> list[int]:
    """Kernel of e_i -> images[i], as domain bitmasks, by elimination with
    trackers.  Deterministic in the input order, and independent of how the
    target columns are numbered: row i yields a kernel vector exactly when
    its image lies in the span of the earlier images, and its tracker is the
    unique way of writing it over the earlier independent rows."""
    lead: dict[int, tuple[int, int]] = {}
    out = []
    for i, img in enumerate(images):
        trk = 1 << i
        while img:
            top = img.bit_length() - 1
            if top not in lead:
                lead[top] = (img, trk)
                break
            img2, trk2 = lead[top]
            img ^= img2
            trk ^= trk2
        else:
            out.append(trk)
    return out


def _vectors(masks, n):
    return {tuple((mask >> j) & 1 for j in range(n)) for mask in masks}


def test_map_kernel_example():
    assert _vectors(_map_kernel(_columns([[1, 1, 0], [0, 1, 1]])), 3) == {(1, 1, 1)}


def test_map_kernel_extremes():
    assert list(_map_kernel(_columns([[1, 0], [0, 1]]))) == []
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
        masks = list(_map_kernel(_columns(rows)))
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


def _terms_rows(packing, basis):
    return [packing.terms(m) for m in basis]


def test_map_kernel_ignores_column_numbering():
    # relabel the keys by a random injective map, which does not keep their
    # order, so the pivots fall on other columns
    import random

    rng = random.Random(11)
    cases = [
        [_positions(rng.getrandbits(ncols)) for _ in range(nrows)]
        for nrows, ncols in ((1, 1), (6, 3), (12, 12), (30, 20), (40, 64))
        for _ in range(10)
    ]
    # the sieve's own rows, whose kernels are long and dense
    cases.append(_terms_rows(_coproduct_packing(P, 9, 2), monomial_basis(P, 9, 2)))
    cases.append(_terms_rows(_steenrod_packing(S1, 12, 3), monomial_basis(S1, 12, 3)))
    for rows in cases:
        keys = sorted({x for row in rows for x in row})
        want = list(_map_kernel(rows))
        for _ in range(5):
            label = dict(zip(keys, rng.sample(range(3 * len(keys) + 1), len(keys))))
            assert list(_map_kernel([[label[x] for x in row] for row in rows])) == want


def test_map_kernel_small():
    assert list(_map_kernel([[0], [0]])) == [0b11]
    assert list(_map_kernel([[]])) == [1]
    assert list(_map_kernel([[0], [1], [0, 1]])) == [0b111]
    assert list(_map_kernel([[0, 2], [0, 1]])) == []


def _first_seen_masks(rows):
    """Rows of keys as bitmasks over column numbers handed out in order of
    first appearance."""
    columns: dict = {}
    return [sum(1 << columns.setdefault(x, len(columns)) for x in row) for row in rows]


def test_map_kernel_matches_the_dense_eliminator():
    # the bitmask eliminator pivots on the top column number; both output
    # only what the kernel fixes, so they agree on every input
    import random

    rng = random.Random(5)
    for nrows, ncols in ((1, 1), (6, 3), (12, 12), (30, 20), (40, 64), (64, 40)):
        for _ in range(10):
            masks = [rng.getrandbits(ncols) for _ in range(nrows)]
            assert list(_map_kernel(map(_positions, masks))) == _dense_kernel(masks)
    cases = [(P, 2, degree) for degree in range(9, 14)] + [(S1, 3, 12)]
    for space, cap, degree in cases:
        basis = monomial_basis(space, degree, cap)
        for packing in (_steenrod_packing, _coproduct_packing):
            rows = _terms_rows(packing(space, degree, cap), basis)
            assert list(_map_kernel(rows)) == _dense_kernel(_first_seen_masks(rows)), (
                space, degree, packing.__name__,
            )


def test_bits_lists_the_set_positions_in_ascending_order():
    import random

    def reference(m):
        return [i for i in range(m.bit_length()) if m >> i & 1]

    rng = random.Random(7)
    masks = [0, 1, 2, 3, 0b1011]
    masks += [1 << i for i in (5, 63, 64, 1000, 49_999)]
    # wide and sparse, as a kernel vector over a large basis
    masks += [sum(1 << i for i in rng.sample(range(50_000), 100)) for _ in range(3)]
    masks += [rng.getrandbits(300) for _ in range(10)]
    for m in masks:
        assert list(bits(m)) == reference(m)


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


@pytest.mark.parametrize("space", (P, S1, SigmaCPplus()), ids=("P", "S1", "SCP"))
@pytest.mark.parametrize("cap", (2, 3))
def test_basis_dimension_predicts_the_basis(space, cap):
    for degree in range(0, 17):
        assert basis_dimension(space, degree, cap) == len(monomial_basis(space, degree, cap))


def test_basis_dimension_at_the_frontier():
    # over P: cap 2 at degrees 20, 22, 24, and cap 3 at 24 and 26
    assert [basis_dimension(P, d, 2) for d in (20, 22, 24)] == [10071, 21678, 45792]
    assert [basis_dimension(P, d, 3) for d in (24, 26)] == [45905, 95404]


def _basis_bytes(space, degree, cap, basis):
    """A basis as little-endian u32 fields behind a header, with a CRC32
    trailer: the bytes the pinned digest below was taken over."""
    kind = {SPHERE: 0, REALPROJ: 1, SIGMACP: 2}[space.kind]
    out = bytearray(b"QHK1" + struct.pack("<HBII", 1, kind, space.dim, space.shift))
    out += struct.pack("<III", degree, cap, len(basis))
    for m in basis:
        out += struct.pack("<I", len(m))
        for w, e in m:
            out += struct.pack(f"<III{len(w.ops)}I", e, w.gen.index, len(w.ops), *w.ops)
    return bytes(out + struct.pack("<I", zlib.crc32(out)))


def test_monomial_basis_enumeration_order_is_pinned():
    # every basis over P, S1, SCP and P^s1 at cap 2, degrees 1-10, in the
    # order the unpruned enumeration listed them
    h = hashlib.sha256()
    for space in (P, S1, SigmaCPplus(), RealProj(shift=1)):
        for degree in range(1, 11):
            h.update(_basis_bytes(space, degree, 2, monomial_basis(space, degree, 2)))
    assert h.hexdigest() == "13d9f4a3e8fbb035399626bfe8fcdec7e3defab88bef925c826ff61d1a8868aa"


def test_monomial_basis_small_counts():
    # hand counts over the circle: degree 3 has Q^2 g1 and g1^3
    assert len(monomial_basis(S1, 1, 3)) == 1
    assert len(monomial_basis(S1, 2, 3)) == 1
    assert len(monomial_basis(S1, 3, 3)) == 2


def _recursive_monomials(space, degree, max_len):
    """The enumeration order as a plain recursion over the words, ascending
    in degree: skip the word, or take it to the power 1, 2, ..."""
    if degree < 0:
        return ()
    words = [w for d in range(1, degree + 1) for w in admissible_words(space, d, max_len)]
    out = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            out.append(Monomial(tuple(sorted(acc, key=lambda we: we[0].sort_key))))
            return
        if idx == len(words) or words[idx].degree > remaining:
            return
        rec(idx + 1, remaining, acc)
        w = words[idx]
        for e in range(1, remaining // w.degree + 1):
            rec(idx + 1, remaining - w.degree * e, acc + [(w, e)])

    rec(0, degree, [])
    return tuple(out)


@pytest.mark.parametrize(
    "space", (P, S1, SigmaCPplus(), RealProj(shift=1)), ids=("P", "S1", "SCP", "P^s1")
)
@pytest.mark.parametrize("cap", (1, 2, 3))
def test_the_lazy_walk_and_the_early_stop(monkeypatch, space, cap):
    assert monomial_basis(space, -1, cap) == ()
    assert monomial_basis(space, 0, cap) == (MONO_ONE,)
    # count the Steenrod images annihilated_kernel asks for, in order
    imaged = []
    original = qhk.sieve._steenrod_packing

    def counting(*bounds):
        packing = original(*bounds)
        terms = packing.terms

        def counted(m):
            imaged.append(m)
            return terms(m)

        packing.terms = counted
        return packing

    monkeypatch.setattr(qhk.sieve, "_steenrod_packing", counting)
    for degree in range(-1, 15):
        basis = monomial_basis(space, degree, cap)
        assert basis == _recursive_monomials(space, degree, cap), degree
        # each kernel vector is yielded before the row after its own is read
        pulled = []

        def rows():
            packing = _steenrod_packing(space, degree, cap)
            for i, m in enumerate(basis):
                pulled.append(i)
                yield packing.terms(m)

        for mask in _map_kernel(rows()):
            assert len(pulled) == mask.bit_length(), degree
        # so the first k masks of annihilated_kernel image the rows through
        # the k-th one's top bit, and are the head of the whole kernel
        whole = tuple(annihilated_kernel(space, degree, cap))
        n = len(whole)
        for k in (1, 5, 64, n, n + 1):
            imaged.clear()
            masks = tuple(itertools.islice(annihilated_kernel(space, degree, cap), k))
            assert masks == whole[:k], (degree, k)
            top = len(basis) if k > n else whole[k - 1].bit_length() if k else 0
            assert imaged == list(basis[:top]), (degree, k)


# -- packed images against the Element layer -----------------------------------

def _powers_of_two_below(degree):
    a = 1
    while a < degree:
        yield a
        a *= 2


def _is_power_of_two(e):
    return e > 0 and not e & (e - 1)


def _check_packed_terms(space, degree, cap, monomials, st=None, cp=None):
    # the expected terms packed one by one, as a list: the sorted lists can
    # only agree when packing keeps distinct terms distinct
    st = st or _steenrod_packing(space, degree, cap)
    cp = cp or _coproduct_packing(space, degree, cap)
    for m in monomials:
        el = frozenset({m})
        terms = st.terms(m)
        assert len(set(terms)) == len(terms)
        want = [a + st.pack(t) for a in _powers_of_two_below(degree) for t in sq_down(a, el)]
        assert sorted(terms) == sorted(want), m
        # the coproduct side keeps the terms whose left leg is one word to a
        # power of 2, of degree at most d/2
        terms = cp.terms(m)
        assert len(set(terms)) == len(terms)
        want = [
            l.degree + cp.pack(l) + (cp.pack(r) << cp.right)
            for l, r in reduced_coproduct(el)
            if len(l) == 1 and _is_power_of_two(l[0][1]) and 0 < l.degree <= degree // 2
        ]
        assert sorted(terms) == sorted(want), m


def _element_images(space, degree, cap):
    """The Steenrod and reduced-coproduct images of each basis monomial,
    computed term by term in the Element layer, as rows of column numbers
    handed out in order of first appearance."""
    st_cols: dict = {}
    cp_cols: dict = {}
    st, cp = [], []
    for m in monomial_basis(space, degree, cap):
        st.append([
            st_cols.setdefault((a, t), len(st_cols))
            for a in _powers_of_two_below(degree)
            for t in sq_down(a, frozenset({m}))
        ])
        cp.append([
            cp_cols.setdefault(pair, len(cp_cols)) for pair in reduced_coproduct(frozenset({m}))
        ])
    return st, cp


def _stacked(st, cp):
    """Each Steenrod row beside its coproduct row, the coproduct keys offset
    above every Steenrod key."""
    shift = 1 + max((x for row in st for x in row), default=-1)
    return [a + [x + shift for x in b] for a, b in zip(st, cp)]


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
        assert annihilated_subspace(space, degree, cap) == _elements(
            space, degree, cap, _map_kernel(st)
        )
        assert primitive_subspace(space, degree, cap) == _elements(
            space, degree, cap, _map_kernel(cp)
        )
        assert spherical_candidates(space, degree, cap) == _elements(
            space, degree, cap, _map_kernel(_stacked(st, cp))
        )


@pytest.mark.parametrize(
    "space, cap, degrees", [(P, 2, range(11, 17)), (S1, 3, range(1, 21))]
)
def test_candidates_match_the_stacked_elimination(space, cap, degrees):
    # spherical_candidates eliminates the Steenrod images of the primitive
    # basis; one elimination of the stacked packed images gives the same basis
    for degree in degrees:
        basis = monomial_basis(space, degree, cap)
        st = _terms_rows(_steenrod_packing(space, degree, cap), basis)
        cp = _terms_rows(_coproduct_packing(space, degree, cap), basis)
        stacked = _map_kernel(_stacked(st, cp))
        assert spherical_candidates(space, degree, cap) == _elements(
            space, degree, cap, stacked
        ), degree


def _record_collisions(packing):
    """Count, on the packing, the products in which two sums are equal, so
    that the parity count decides their terms."""
    times = packing._times
    packing.collisions = 0

    def recorded(xs, ys, keys):
        sums = [z for x in xs for y in ys if (z := x + y) & packing.key in keys]
        packing.collisions += len(set(sums)) < len(sums)
        return times(xs, ys, keys)

    packing._times = recorded
    return packing


def test_packed_terms_where_sums_collide():
    # the first degrees at which two Steenrod sums of a product are equal:
    # a product that skipped the parity count would keep a term twice, or
    # keep one whose coefficient is even.  The whole half coproduct has
    # equal sums here too, but none whose left leg is 1 or one word power:
    # a cut that let a left leg of two words through would show them
    st_collisions = cp_collisions = 0
    for degree in range(11, 14):
        st = _record_collisions(_steenrod_packing(P, degree, 2))
        cp = _record_collisions(_coproduct_packing(P, degree, 2))
        _check_packed_terms(P, degree, 2, monomial_basis(P, degree, 2), st, cp)
        st_collisions += st.collisions
        cp_collisions += cp.collisions
    assert st_collisions and not cp_collisions


@pytest.mark.parametrize(
    "space", (P, S1, SigmaCPplus(), RealProj(shift=1)), ids=("P", "S1", "SCP", "P^s1")
)
@pytest.mark.parametrize("cap", (2, 3))
def test_coproduct_cut_keys_are_word_powers(space, cap):
    # every inner key of the coproduct packing is 1 or one word power w^e of
    # left degree <= d/2, each such power has its key, and the kept keys
    # are the w^(2^j) among them
    for degree in range(1, 17):
        p = _coproduct_packing(space, degree, cap)
        words = [w for d in range(1, degree // 2 + 1) for w in admissible_words(space, d, cap)]
        powers = {((w, e),) for w in words for e in range(1, degree // 2 // w.degree + 1)}

        def decode(x):
            factors = tuple(
                (w, e)
                for w, shift in p.fields.items()
                if (e := x >> shift & ((1 << (degree // w.degree).bit_length()) - 1))
            )
            # the low field is the left degree, and no bit lies outside the
            # low and left fields
            left = Monomial(factors)
            assert x == left.degree + p.pack(left) and x & p.key == x, (degree, x)
            return left

        assert set(map(decode, p.inner)) == {()} | powers, degree
        kept = {m for m in powers if _is_power_of_two(m[0][1])}
        assert set(map(decode, p.kept)) == kept, degree


def test_packed_fields_hold_the_largest_exponents():
    # a1^d has the widest exponent field of its degree, and its Steenrod and
    # coproduct images have the most terms of low word degree
    a1 = monomial_basis(P, 1, 2)[0][0][0]
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


def _whole_subspace_report(space, top, cap, max_vectors):
    """Theorem 2's report as the verifier made it before it stopped early:
    the members are sample_members of each degree's whole annihilated
    subspace, and the millis are 0."""
    checked, failures, excluded = 0, [], []
    for degree in range(1, top + 1):
        for xi in sample_members(annihilated_subspace(space, degree, cap), max_vectors):
            checked += 1
            if not suspend(xi):
                excluded.append(f"suspension image zero: {format_element(xi)}")
                continue
            strata = {}
            for m in indecomposable_part(xi):
                w = m[0][0]
                strata.setdefault(len(w.ops), []).append(w)
            for length, ws in sorted(strata.items()):
                leading = max(ws, key=word_sort_key)
                if not qhk.sieve._witness_exists(leading):
                    failures.append(
                        f"no suspension witness for the length-{length} leading term "
                        f"{format_element(frozenset({mono_word(leading)}))} of {format_element(xi)}"
                    )
    bounds = {"max_degree": top, "max_length": cap, "max_vectors": max_vectors}
    return VerifyReport("2", space_name(space), bounds, checked, failures, excluded).to_json()


@pytest.mark.parametrize(
    "space, cap, top",
    [(P, 2, 16), (S1, 3, 16), (Sphere(2), 3, 16), (SigmaCPplus(), 2, 16), (RealProj(shift=1), 2, 16)],
    ids=("P", "S1", "S2", "SCP", "P^s1"),
)
@pytest.mark.parametrize("max_vectors", (1, 64, 300))
def test_theorem_2_samples_as_the_whole_subspace_did(space, cap, top, max_vectors):
    # every field but the time: checked, and the excluded and failure
    # strings.  The verifier reads masks and renders its strings from the
    # members' rows; the oracle builds each member as an Element.  S2, SCP
    # and P^s1 reach suspend_gen through the sphere and the shift branches
    report = verify_suspension_factorization(space, top, cap, max_vectors)
    report.millis = 0
    assert report.to_json() == _whole_subspace_report(space, top, cap, max_vectors)


def test_theorem_2_failure_strings_as_the_whole_subspace_did(monkeypatch):
    # a word with an odd number of operations has no witness here, so a
    # member whose leading word of some stratum has one writes a failure
    # that names that word and the member; the oracle looks the witness up
    # through the module too
    monkeypatch.setattr(qhk.sieve, "_witness_exists", lambda w: len(w.ops) % 2 == 0)
    report = verify_suspension_factorization(P, 14, 2, 64)
    report.millis = 0
    assert report.to_json() == _whole_subspace_report(P, 14, 2, 64)
    assert len(report.failures) > 50


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


def _spherical_form_by_elements(space, top, cap):
    """Theorem 3's report from the per-member Element checks the masks
    replaced: each annihilated member and candidate taken apart by
    indecomposable_part and decomposable_part, with the millis 0.  Offending
    terms of one member are taken in basis order."""
    report = VerifyReport("3", space_name(space), {"max_degree": top, "max_length": cap}, 0)
    for degree in range(1, top + 1):
        order = {m: i for i, m in enumerate(monomial_basis(space, degree, cap))}
        for xi in annihilated_subspace(space, degree, cap):
            report.checked += 1
            for m in sorted(indecomposable_part(xi), key=order.__getitem__):
                w = m[0][0]
                if not w.ops or w.ops[0] % 2:
                    continue
                ex = excess(w.ops, gen_degree(w.gen))
                if ex >= 2:
                    report.failures.append(
                        f"annihilated member has an even-led term of excess >= 2: "
                        f"{format_element(frozenset({m}))} in {format_element(xi)}"
                    )
                if degree % 2 and ex >= 3:
                    report.failures.append(
                        f"odd-degree annihilated member has an even-led term of "
                        f"excess >= 3: {format_element(frozenset({m}))}"
                    )
        for xi in spherical_candidates(space, degree, cap):
            report.checked += 1
            odd = all(i % 2 for m in indecomposable_part(xi) for i in m[0][0].ops)
            if degree % 2 == 0:
                if not odd:
                    report.failures.append(
                        f"even-degree candidate whose indecomposable part has an "
                        f"even entry: {format_element(xi)}"
                    )
            elif not odd or decomposable_part(xi):
                if is_suspension_like(space):
                    report.failures.append(
                        f"odd-degree candidate over a suspension is not an all-odd "
                        f"word sum: {format_element(xi)}"
                    )
                else:
                    report.excluded.append(format_element(xi))
    return report.to_json()


def _theorem_3_report(space, top, cap):
    report = verify_spherical_form(space, top, cap)
    report.millis = 0
    return report.to_json()


@pytest.mark.parametrize(
    "space, cap, top",
    [(P, 2, 14), (P, 3, 12), (S1, 3, 18), (SigmaCPplus(), 2, 12), (RealProj(shift=1), 2, 12)],
    ids=("P", "P-cap3", "S1", "SCP", "P^s1"),
)
def test_theorem_3_masks_match_the_element_checks(space, cap, top):
    assert _theorem_3_report(space, top, cap) == _spherical_form_by_elements(space, top, cap)


def _with_vectors(monkeypatch, kernel, added):
    """Add to a kernel, in each degree, the vectors with these expressions."""
    original = getattr(qhk.sieve, kernel)

    def patched(sp, degree, max_len):
        basis = monomial_basis(sp, degree, max_len)
        extra = tuple(
            sum(1 << basis.index(m) for m in parse_element(text))
            for text in added.get(degree, ())
        )
        return tuple(original(sp, degree, max_len)) + extra

    monkeypatch.setattr(qhk.sieve, kernel, patched)


def test_theorem_3_failure_branches(monkeypatch):
    # odd-degree annihilated members with one and two even-led words of
    # excess >= 3, even-degree ones with an even-led word of excess 2 and 4,
    # an even-degree candidate with an even entry, and an odd-degree candidate
    # with a decomposable term
    annihilated = {5: ["Q^4 a1"], 6: ["Q^4 a2"], 8: ["Q^6 a2"], 9: ["a9 + Q^6 a3 + Q^8 a1"]}
    _with_vectors(monkeypatch, "annihilated_kernel", annihilated)
    _with_vectors(monkeypatch, "candidate_kernel", {6: ["Q^4 a2"], 3: ["a1^3"]})
    report = _theorem_3_report(P, 9, 2)
    assert report == _spherical_form_by_elements(P, 9, 2)
    # the terms of one member in basis order: Q^8 a1 before Q^6 a3
    assert report["failures"] == [
        "annihilated member has an even-led term of excess >= 2: Q^4 a1 in Q^4 a1",
        "odd-degree annihilated member has an even-led term of excess >= 3: Q^4 a1",
        "annihilated member has an even-led term of excess >= 2: Q^4 a2 in Q^4 a2",
        "even-degree candidate whose indecomposable part has an even entry: Q^4 a2",
        "annihilated member has an even-led term of excess >= 2: Q^6 a2 in Q^6 a2",
        "annihilated member has an even-led term of excess >= 2: Q^8 a1 in Q^8 a1 + Q^6 a3 + a9",
        "odd-degree annihilated member has an even-led term of excess >= 3: Q^8 a1",
        "annihilated member has an even-led term of excess >= 2: Q^6 a3 in Q^8 a1 + Q^6 a3 + a9",
        "odd-degree annihilated member has an even-led term of excess >= 3: Q^6 a3",
    ]
    # over P the odd-degree form is not claimed: the decomposable candidate
    # lands in excluded, after the degree-3 class
    assert report["excluded"][:2] == ["Q^2 a1 + a3 + a1^3 + a1*a2", "a1^3"]
    # over a suspension it is a failure
    monkeypatch.undo()
    _with_vectors(monkeypatch, "candidate_kernel", {3: ["g1^3"]})
    report = _theorem_3_report(S1, 5, 2)
    assert report == _spherical_form_by_elements(S1, 5, 2)
    assert report["failures"] == [
        "odd-degree candidate over a suspension is not an all-odd word sum: g1^3"
    ]


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
    primitive_kernel.cache_clear()
    yield
    _coproduct_word.cache_clear()
    primitive_kernel.cache_clear()


def _drop_a_coproduct_term(monkeypatch):
    # Δ(Q^3 a1) loses one of its two terms
    target = AdmissibleGen((3,), Generator(P, 1))

    def broken(w):
        out = _coproduct_word(w)
        return out - {sorted(out, key=repr)[0]} if w == target else out

    monkeypatch.setattr(qhk.algebra, "_coproduct_word", broken)


def _take_cubes_to_first_powers(monkeypatch):
    # Δ(w^3) comes out as Δ(w)
    monkeypatch.setattr(
        qhk.algebra, "_tensor_pow", lambda a, e: _tensor_pow(a, 1 if e == 3 else e)
    )


def test_verify_root_catches_a_dropped_coproduct_term(monkeypatch, unmemoized_coproducts):
    _drop_a_coproduct_term(monkeypatch)
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
    _take_cubes_to_first_powers(monkeypatch)
    rep = verify_root_compatibility(P, 2, 8, 6, 8, 6)
    assert rep.checked == 526 and len(rep.failures) == 99
    assert rep.failures[:2] == [
        "coassociativity fails on a1^2*a2",
        "coassociativity fails on a1*a2^2",
    ]
    digest = hashlib.sha256("\n".join(rep.failures).encode()).hexdigest()
    assert digest == "8bb907a7eab4cc8db23442d0167eb6fb49bee8f5fd83be3367a482db887f4756"


@pytest.mark.parametrize("breakage", [_drop_a_coproduct_term, _take_cubes_to_first_powers])
def test_root_failures_match_an_element_layer_oracle(monkeypatch, unmemoized_coproducts, breakage):
    # (Δ (x) 1)Δm + (1 (x) Δ)Δm summed over element triples, one set
    # toggle per triple: the monomials where it is nonzero are exactly the
    # ones the verifier's numbered triples report
    breakage(monkeypatch)

    def delta(m):
        return qhk.algebra.coproduct(frozenset({m}))

    expected = []
    for degree in range(1, 9):
        for m in monomial_basis(P, degree, 2):
            acc = set()
            for l, r in delta(m):
                for l1, l2 in delta(l):
                    acc ^= {(l1, l2, r)}
                for r1, r2 in delta(r):
                    acc ^= {(l, r1, r2)}
            if acc:
                expected.append(f"coassociativity fails on {format_element(frozenset({m}))}")
    rep = verify_root_compatibility(P, 2, 8, 6, 8, 6)
    assert expected
    assert [f for f in rep.failures if f.startswith("coassociativity")] == expected


def test_vanishes_mod2_on_hand_made_sums():
    a, b = 5, 3
    for terms in ([], [a, a], [a, a, a, a], [a, a, b, b], [a, b, b, a]):
        assert _vanishes_mod2(terms), terms
    for terms in ([a], [a, a, a], [a, b], [a, a, a, b], [b, a, a, a]):
        assert not _vanishes_mod2(terms), terms


@pytest.mark.parametrize("space", [P, S1, SigmaCPplus()])
def test_products_of_packed_monomials_are_sums(space):
    # the multiplicativity check forms m1 m2 as packed(m1) + packed(m2) and
    # looks its coproduct up by that int: the product is a basis monomial
    # of the summed degree, and the fields of the top degree never overflow
    fields = _WordFields(space, 8, 2)
    bases = [monomial_basis(space, degree, 2) for degree in range(9)]
    packed = {m: fields.pack(m) for basis in bases for m in basis}
    for d1 in range(9):
        for d2 in range(d1, 9 - d1):
            for m1 in bases[d1]:
                for m2 in bases[d2]:
                    assert packed[m1] + packed[m2] == packed[mono_mul(m1, m2)]


def _rank(elements) -> int:
    """The dimension of the span of these elements."""
    columns: dict = {}
    rows = [[columns.setdefault(m, len(columns)) for m in el] for el in elements]
    return len(rows) - len(list(_map_kernel(rows)))


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
            images.append([columns.setdefault(t, len(columns)) for t in terms])
        assert len(list(_map_kernel(images))) == len(prims), d


@pytest.mark.parametrize(
    "space, cap, top",
    [
        (S1, 2, 16),
        (SigmaCPplus(), 2, 14),
        (RealProj(shift=1), 2, 14),
        (S1, 3, 16),
        (Sphere(2), 2, 16),
        (SigmaCPplus(), 3, 12),
        (RealProj(shift=1), 3, 12),
    ],
)
def test_primitives_of_a_suspension_are_the_powers_of_two_of_words(space, cap, top):
    # the generators of a suspension are primitive, so H_*QX is polynomial
    # on primitive words, and over GF(2) the primitives of such an algebra
    # are spanned by the 2^k-th powers of its generators (Milnor–Moore)
    for d in range(1, top + 1):
        powers = [
            frozenset({m})
            for m in monomial_basis(space, d, cap)
            if len(m) == 1 and not m[0][1] & (m[0][1] - 1)
        ]
        prims = primitive_subspace(space, d, cap)
        assert len(prims) == len(powers) and set(prims) == set(powers), d


@pytest.mark.parametrize("cap, top", [(2, 16), (3, 12)])
def test_primitives_of_P_are_as_many_as_its_words(cap, top):
    # a coproduct-free count of the primitive kernel, measured rather than
    # proved: it fits H_*QP being bipolynomial, so that its primitives and
    # its indecomposables (one for each word) have the same dimensions
    for d in range(1, top + 1):
        assert len(primitive_subspace(P, d, cap)) == len(admissible_words(P, d, cap)), d


@pytest.mark.parametrize(
    "space, cap, top",
    [
        (P, 2, 16),
        (P, 3, 12),
        (S1, 3, 16),
        (SigmaCPplus(), 2, 14),
        (RealProj(shift=1), 2, 14),
        (Sphere(2), 2, 16),
    ],
)
def test_indecomposable_parts_of_primitives_are_the_kernel_of_the_root(space, cap, top):
    # the indecomposable parts of the primitives span exactly the kernel of
    # the root on the words.  verify_root_compatibility checks that the
    # parts lie in the kernel; that they fill it is measured, not proved
    def rank(masks):
        return len(masks) - len(list(_map_kernel(map(_positions, masks))))

    for d in range(1, top + 1):
        words = admissible_words(space, d, cap)
        row = {mono_word(w): 1 << i for i, w in enumerate(words)}
        columns: dict = {}
        images = [
            [columns.setdefault(m, len(columns)) for m in root(frozenset({mono_word(w)}))]
            for w in words
        ]
        kernel = list(_map_kernel(images))
        parts = [
            sum(row[m] for m in indecomposable_part(p))
            for p in primitive_subspace(space, d, cap)
        ]
        assert rank(parts) == len(kernel) == rank(parts + kernel), d


@pytest.mark.parametrize(
    "space, cap, top",
    [
        (P, 2, 14),
        (P, 3, 12),
        (S1, 3, 16),
        (SigmaCPplus(), 2, 14),
        (RealProj(shift=1), 2, 13),
        (Sphere(2), 2, 14),
    ],
)
def test_pure_power_left_legs_give_the_primitive_kernel(space, cap, top):
    # x of degree d is primitive exactly when its reduced coproduct has no
    # term l (x) r with deg l <= d/2 and l = w^(2^j), one word to a power of
    # 2 (least nonzero left degree, coassociativity, then Milnor-Moore).
    # _map_kernel's output depends only on the kernel, so eliminating those
    # terms alone must give the primitive kernel's masks exactly
    for d in range(1, top + 1):
        columns: dict = {}
        rows = []
        for m in monomial_basis(space, d, cap):
            row = []
            for l, r in reduced_coproduct(frozenset({m})):
                if l.degree <= d // 2 and len(l) == 1:
                    e = l[0][1]
                    if e & (e - 1) == 0:
                        row.append(columns.setdefault((l, r), len(columns)))
            rows.append(row)
        assert list(_map_kernel(rows)) == list(primitive_kernel(space, d, cap)), d


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
    # current degree's words, basis and primitive kernel, read by
    # primitive_subspace and spherical_candidates, are the only tables.
    # nishida_expansion's one Element-layer caller, _sq_down_mono, already
    # keeps each (a, word)
    assert not hasattr(_coproduct_mono, "cache_info")
    assert not hasattr(nishida_expansion, "cache_info")
    memoized = {
        name
        for name, obj in vars(qhk.sieve).items()
        if getattr(obj, "__module__", None) == "qhk.sieve" and hasattr(obj, "cache_info")
    }
    assert memoized == {"_words_upto", "monomial_basis", "primitive_kernel"}
    assert primitive_kernel.cache_info().maxsize == 1
    assert monomial_basis.cache_info().maxsize == 1
    assert qhk.sieve._words_upto.cache_info().maxsize == 1
    # a listing's rank and fragment tables are locals of listing_terms and
    # live for one listing: printing keeps no table of its own (the CLI's
    # argument parser is one object), and no module-level container of
    # exprs or cli grows from one listing to the next
    memoized = {
        name
        for mod in (qhk.exprs, qhk.cli)
        for name, obj in vars(mod).items()
        if getattr(obj, "__module__", None) == mod.__name__ and hasattr(obj, "cache_info")
    }
    assert memoized == {"_parser"}
    assert inspect.isgeneratorfunction(listing_terms)

    def containers():
        return {
            (mod.__name__, name): len(obj)
            for mod in (qhk.exprs, qhk.cli)
            for name, obj in vars(mod).items()
            if isinstance(obj, (dict, list, set))
        }

    def listings(degree):
        for command in ("basis", "annihilated", "primitives", "sieve"):
            for fmt in ("text", "json"):
                with contextlib.redirect_stdout(io.StringIO()):
                    qhk.cli.main([command, "--space", "P", "--degree", str(degree), "--format", fmt])

    listings(4)
    before = containers()
    for degree in (5, 8, 11):
        listings(degree)
    assert containers() == before


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


@pytest.mark.parametrize("max_sum, max_len", [(5, 3), (8, 4), (12, 5), (16, 3), (8, 8), (6, 9)])
def test_admissible_sequences_match_the_filtered_product(max_sum, max_len):
    # reference: every tuple of each length, filtered by sum and
    # admissibility; at length s no entry of a kept tuple exceeds max_sum - s + 1
    brute = [
        seq
        for s in range(1, max_len + 1)
        for seq in itertools.product(range(1, max_sum - s + 2), repeat=s)
        if sum(seq) <= max_sum and is_admissible_ops(seq)
    ]
    assert list(_admissible_sequences(max_sum, max_len)) == brute


def test_curtis_bound_at_length_eight_is_quick():
    # lengths above the sum bound hold no sequence, and no prefix is
    # extended past what the sum allows
    t0 = time.perf_counter()
    assert check_curtis_bound(8, 8) == (146, [])
    dt = time.perf_counter() - t0
    assert dt < 1, f"check_curtis_bound(8, 8) exceeded its 1s budget: {dt:.1f}s"


def test_indecomposable_sampling_consistency():
    # sampled annihilated members stay annihilated under summing
    basis = annihilated_subspace(P, 5, 2)
    for xi in sample_members(basis, 16):
        assert element_is_A_annihilated(xi)
        assert format_element(xi)
        assert indecomposable_part(xi) <= xi
