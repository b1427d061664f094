"""Degreewise linear algebra over GF(2) and the structure-theorem checks.

Everything here reduces to kernels of explicit maps between finite
monomial bases.  The length cap is honest: the Steenrod action, the
coproduct legs and the halving root never increase word lengths, so the
capped spans are genuinely closed under every map we take kernels of, and
computed kernels are true subspaces of the capped span (dimensions are
monotone in the cap, not exact values for the whole algebra).

Reports carry the exact inputs, a counter of performed checks, failure
strings, and an `excluded` list for classes the statement deliberately
does not cover (suspension-killed classes in the factorization check,
odd-degree classes over an unsuspended space in the spherical-form check).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import lru_cache, reduce
from itertools import islice
from operator import or_, xor

from .algebra import (
    EL_ZERO,
    Element,
    Monomial,
    _tensor_mul,  # unused here; bench/layers.py still times it as a boundary
    apply_q,
    coproduct,
    el_mul,  # unused here; bench/layers.py still times it as a boundary
    el_square,
    indecomposable_part,
    mono_word,
    normalize,
    reduced_coproduct,  # unused here; bench/layers.py still times it as a boundary
    root,
    suspend,
    suspend_gen,
)
from .exprs import format_element, listing_terms
from .mod2 import lowest_zero_bit
from .spaces import Space, gen_degree, is_gen_A_annihilated, is_suspension_like, space_name
from .steenrod import element_is_A_annihilated, madsen_action, sq_down, word_is_A_annihilated
from .words import AdmissibleGen, admissible_words, excess, word_sort_key


# -- GF(2) kernels ------------------------------------------------------------

def _map_kernel(rows):
    """Kernel of e_i -> rows[i], as domain bitmasks, by elimination with
    trackers.  A row is the set of its terms, distinct int keys, and each
    step pivots on the largest key left.  Deterministic in the input order,
    and independent of which keys name the target columns and how they
    compare: row i yields a kernel vector exactly when its image lies in the
    span of the earlier rows, and its tracker is the unique way of writing
    it over the earlier independent rows.

    A generator: it yields each tracker as soon as its row turns out
    dependent.  The vector of row i is decided by rows 0..i alone, so it is
    final when yielded, and a caller that needs only the first k vectors
    stops the rows at the k-th dependent one."""
    lead: dict[int, tuple[set[int], int]] = {}
    for i, row in enumerate(rows):
        img = set(row)
        trk = 1 << i
        while img:
            top = max(img)
            if top not in lead:
                lead[top] = (img, trk)
                break
            lead_img, lead_trk = lead[top]
            img ^= lead_img
            trk ^= lead_trk
        else:
            yield trk


# -- monomial bases and subspaces ----------------------------------------------

@lru_cache(maxsize=1)
def monomial_basis(space: Space, degree: int, max_len: int) -> tuple[Monomial, ...]:
    """All products of word powers of exactly this degree (word length
    capped), in a fixed enumeration order, kept for one degree at a time:
    MONO_ONE alone at degree 0, nothing at a negative degree.

    Words ascend in degree.  A monomial is a choice of word powers w^e at
    ascending word positions; after the powers chosen so far, the next
    factor runs over the words that still fit, from the last one down, and
    each word's exponent ascends.  The walk keeps its pending branches on
    an explicit stack, and pushes no branch that no word can finish."""
    if degree < 0:
        return ()
    words = _words_upto(space, degree, max_len)
    # fit[r]: how many words have degree <= r, so words[:fit[r]] fit in r
    fit = [0] * (degree + 1)
    for w in words:
        for r in range(w.degree, degree + 1):
            fit[r] += 1
    # factors[j][e]: the factor (words[j], e), built once; a monomial sorts
    # its factors by the rank of their word in word_sort_key order
    factors = [[None] + [(w, e) for e in range(1, degree // w.degree + 1)] for w in words]
    order = {w: r for r, w in enumerate(sorted(words, key=word_sort_key))}
    rank = {f: order[f[0]] for fs in factors for f in fs[1:]}
    # a branch is (next word position, degree left, factors so far); words
    # are pushed ascending and exponents descending, so they pop in the
    # enumeration order
    out = []
    stack = [(0, degree, ())]
    pop, push = stack.pop, stack.append
    while stack:
        start, left, acc = pop()
        if not left:
            out.append(Monomial(sorted(acc, key=rank.__getitem__)))
            continue
        for j in range(start, fit[left]):
            fs = factors[j]
            d = words[j].degree
            for e in range(left // d, 0, -1):
                rest = left - e * d
                if not rest or fit[rest] > j + 1:
                    push((j + 1, rest, acc + (fs[e],)))
    return tuple(out)


@lru_cache(maxsize=1)
def _words_upto(space: Space, degree: int, max_len: int) -> tuple[AdmissibleGen, ...]:
    """The words of degrees 1..degree (length capped), ascending in degree, kept
    for one degree at a time: the basis walk, word fields and dimension share them."""
    return tuple(w for d in range(1, degree + 1) for w in admissible_words(space, d, max_len))


def basis_dimension(space: Space, degree: int, max_len: int) -> int:
    """len(monomial_basis(space, degree, max_len)), from the word counts
    alone: the coefficient of x^degree in the product over the words w of
    degree <= degree of 1 / (1 - x^deg w).  It enumerates words but no
    monomials."""
    if degree < 0:
        return 0
    dims = [1] + [0] * degree
    for w in _words_upto(space, degree, max_len):
        d = w.degree
        for k in range(d, degree + 1):
            dims[k] += dims[k - d]
    return dims[degree]


# -- packed images -------------------------------------------------------------
#
# Both image passes multiply, factor by factor, the images of the words of a
# basis monomial.  Within one degree that arithmetic runs on packed
# exponent vectors: a term is one int, so a product of two terms is an add.
# A monomial's terms are the row that _map_kernel eliminates.
# The root verifier's multiplicativity check uses the same word fields
# (_WordFields).

class _WordFields:
    """One exponent field for each word of degree <= d (length capped), and
    ints with fields

        [low | left exponents | right exponents]

    from the least significant bit up.  A monomial of degree <= d has
    exponent at most d // deg w at a word w, and fields of that width never
    overflow; the low field is wide enough for any integer up to d.  A
    monomial or a tensor term of degree <= d is one int, and multiplying
    two of them adds their ints.  `pack(m)` puts a monomial in the left
    exponents; `right` is the offset of the right exponents from the left
    ones, so low + pack(l) + (pack(r) << right) is the term l (x) r."""

    def __init__(self, space: Space, degree: int, max_len: int) -> None:
        self.low = (1 << degree.bit_length()) - 1
        # word -> shift of its exponent field on the left side
        self.fields: dict[AdmissibleGen, int] = {}
        pos = degree.bit_length()
        # fields ascend with word degree: _map_kernel pivots on a row's
        # largest term, and this order keeps its fill-in low (the Steenrod
        # kernel over P at degree 22, cap 2, takes twice as long with the
        # fields descending)
        for w in _words_upto(space, degree, max_len):
            self.fields[w] = pos
            pos += (degree // w.degree).bit_length()
        self.right = pos - degree.bit_length()

    def pack(self, m: Monomial) -> int:
        x = 0
        for w, e in m:
            x += e << self.fields[w]
        return x


class _DegreePacking(_WordFields):
    """The images of the basis monomials of degree d, on the word fields of
    degree d.  The low field of a term holds its Steenrod index, or the
    left degree of a tensor term; the right exponents are empty for the
    Steenrod action.  Every term met is a term of some product of degree
    <= d, so the fields never overflow.  Squaring a term doubles its int
    (Frobenius is additive mod 2).

    `word_terms(p, w)` gives the terms of one word's image as ints packed
    on p; the packing only multiplies them.  `cut(p)` gives a mask `key`
    and two frozensets of its values, `kept` within `inner`.  Products drop
    every term whose key is not in `inner`, which is sound because the
    packing picks a key that no later product brings back into `inner`.  A
    monomial's image keeps the terms whose key lies in `kept`; its last
    product drops the others as it forms them.  The state lives as long as
    one image call."""

    def __init__(self, space: Space, degree: int, max_len: int, word_terms, cut) -> None:
        super().__init__(space, degree, max_len)
        self.key, self.inner, self.kept = cut(self)
        self._word_terms = word_terms
        self._powers: dict[tuple[AdmissibleGen, int], list[int]] = {}

    def _times(self, xs: list[int], ys: list[int], keys: frozenset[int]) -> list[int]:
        """The product of two term lists, keeping the terms whose key lies
        in `keys`."""
        key = self.key
        zs = [z for x in xs for y in ys if (z := x + y) & key in keys]
        if len(set(zs)) == len(zs):
            # no two sums are equal, so every coefficient is 1
            return zs
        return [z for z, n in Counter(zs).items() if n & 1]

    def _power(self, w: AdmissibleGen, e: int) -> list[int]:
        terms = self._powers.get((w, e))
        if terms is None:
            key, inner = self.key, self.inner
            if e == 1:
                terms = [x for x in self._word_terms(self, w) if x & key in inner]
            else:
                # the terms of (w^h)^2 are those of w^h, doubled
                terms = [x for h in self._power(w, e >> 1) if (x := h << 1) & key in inner]
                if e & 1:
                    terms = self._times(terms, self._power(w, 1), inner)
            self._powers[w, e] = terms
        return terms

    def terms(self, m: Monomial) -> list[int]:
        """The kept terms of a monomial's image, the product over its
        factors."""
        if not m:
            # the image of 1 is its one term of key 0, never kept
            return []
        w, e = m[0]
        out = self._power(w, e)
        if len(m) == 1:
            key, kept = self.key, self.kept
            return [x for x in out if x & key in kept]
        for w, e in m[1:-1]:
            out = self._times(out, self._power(w, e), self.inner)
        w, e = m[-1]
        return self._times(out, self._power(w, e), self.kept)


def _steenrod_packing(space: Space, degree: int, max_len: int) -> _DegreePacking:
    """The total Steenrod image is multiplicative (Cartan), so a monomial's
    is the product of its factors' images, cut at the largest 2^k below the
    degree; the terms of index 2^k are kept.  The key is the low field:
    indices only grow under products."""
    top = 1 << (degree - 1).bit_length() >> 1

    def word_terms(p: _DegreePacking, w: AdmissibleGen):
        el = frozenset({mono_word(w)})
        return (a + p.pack(t) for a in range(min(top, w.degree) + 1) for t in sq_down(a, el))

    def cut(p: _DegreePacking):
        return p.low, frozenset(range(top + 1)), frozenset(1 << k for k in range(top.bit_length()))

    return _DegreePacking(space, degree, max_len, word_terms, cut)


def _coproduct_packing(space: Space, degree: int, max_len: int) -> _DegreePacking:
    """The terms l (x) r of the reduced coproduct with l = w^(2^j), one word
    to a power of 2, and 0 < deg l <= degree // 2.  They decide primitivity:
    the least left degree of a nonzero reduced coproduct is <= d/2
    (cocommutativity), its left legs there are primitive (coassociativity),
    and a nonzero primitive has a term w^(2^j) (Milnor-Moore).  The key is
    the low and left fields, and `inner` holds 1 and the w^e of left degree
    <= d/2: a product's left leg gathers its factors' words and exponents,
    so one with two words or too large a degree never comes back."""

    def word_terms(p: _DegreePacking, w: AdmissibleGen):
        # the whole Δ: its unit terms carry the word to either side of a
        # product
        el = frozenset({mono_word(w)})
        return (l.degree + p.pack(l) + (p.pack(r) << p.right) for l, r in coproduct(el))

    def cut(p: _DegreePacking):
        # w^e packs as e deg w in the low field plus e in the field at s
        powers = {
            e * (w.degree + (1 << s)): e
            for w, s in p.fields.items()
            for e in range(1, degree // 2 // w.degree + 1)
        }
        kept = frozenset(x for x, e in powers.items() if not e & (e - 1))
        return ((p.low + 1) << p.right) - 1, frozenset([0, *powers]), kept

    return _DegreePacking(space, degree, max_len, word_terms, cut)


def bits(mask: int):
    """The positions of the set bits of a mask, ascending: a scan of its
    binary digits, lowest first, in time linear in the mask's width."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _combine(rows, mask: int):
    """The sum of the rows a nonzero mask selects: sets of terms, or masks."""
    return reduce(xor, (rows[i] for i in bits(mask)))


def _elements(basis: tuple[Monomial, ...], masks) -> tuple[Element, ...]:
    return tuple(frozenset(basis[i] for i in bits(mask)) for mask in masks)


def annihilated_kernel(space: Space, degree: int, max_len: int):
    """annihilated_subspace as masks over the basis monomials, as the lazy
    _map_kernel over the Steenrod rows: a caller that takes the first k
    masks images the rows through the k-th one's top bit and no further."""
    basis = monomial_basis(space, degree, max_len)
    return _map_kernel(map(_steenrod_packing(space, degree, max_len).terms, basis))


def annihilated_subspace(space: Space, degree: int, max_len: int) -> tuple[Element, ...]:
    """Basis of the classes killed by every Sq^{2^k}, within the capped span."""
    return _elements(monomial_basis(space, degree, max_len), annihilated_kernel(space, degree, max_len))


@lru_cache(maxsize=1)
def primitive_kernel(space: Space, degree: int, max_len: int) -> tuple[int, ...]:
    """The primitive basis as masks over the basis monomials, kept for one
    degree at a time: the primitive and the sieve listings of one degree
    share it.  The coproduct images die with the call."""
    basis = monomial_basis(space, degree, max_len)
    return tuple(_map_kernel(map(_coproduct_packing(space, degree, max_len).terms, basis)))


def primitive_subspace(space: Space, degree: int, max_len: int) -> tuple[Element, ...]:
    return _elements(monomial_basis(space, degree, max_len), primitive_kernel(space, degree, max_len))


def candidate_kernel(space: Space, degree: int, max_len: int) -> tuple[int, ...]:
    """Classes that are both A-annihilated and primitive: the survivors every
    spherical class must be among, and the kernel of the Steenrod map on the
    primitives.  For each dependent row i, ascending, _map_kernel gives the
    unique kernel vector with top bit i and no bit on another dependent row.
    The primitive basis p_1, ..., p_k has that form, so the tracker of a
    dependent restricted row j sums p_j and p_l of independent rows l < j:
    a candidate with the top bit of p_j and no bit on another candidate's
    top bit, the vector that eliminating the stacked images would give."""
    basis = monomial_basis(space, degree, max_len)
    prims = primitive_kernel(space, degree, max_len)
    packing = _steenrod_packing(space, degree, max_len)
    images = {i: set(packing.terms(basis[i])) for i in bits(reduce(or_, prims, 0))}
    trackers = list(_map_kernel([_combine(images, p) for p in prims]))
    return tuple(_combine(prims, t) for t in trackers)


def spherical_candidates(space: Space, degree: int, max_len: int) -> tuple[Element, ...]:
    """Basis of the classes that are both A-annihilated and primitive."""
    return _elements(monomial_basis(space, degree, max_len), candidate_kernel(space, degree, max_len))


def sample_members(basis, max_vectors: int) -> list:
    """Deterministic nonzero members: the basis itself first, then sums in
    ascending binary-mask order, capped.  The basis vectors are Elements or
    masks, and the sums are of the same kind."""
    n = len(basis)
    out = list(basis[:max_vectors])
    mask = 3
    while len(out) < max_vectors and n > 1 and mask < (1 << n):
        if mask & (mask - 1):
            out.append(_combine(basis, mask))
        mask += 1
    return out


# -- reports -------------------------------------------------------------------

@dataclass
class VerifyReport:
    theorem: str
    space: str
    bounds: dict
    checked: int
    failures: list[str] = field(default_factory=list)
    excluded: list[str] = field(default_factory=list)
    millis: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return asdict(self)


# -- theorem 1: the annihilation criterion --------------------------------------

def verify_annihilation(space: Space, max_degree: int, max_len: int) -> VerifyReport:
    t0 = time.perf_counter()
    report = VerifyReport(
        "1", space_name(space), {"max_degree": max_degree, "max_length": max_len}, 0
    )
    for degree in range(1, max_degree + 1):
        for w in admissible_words(space, degree, max_len):
            report.checked += 1
            criterion = word_is_A_annihilated(w)
            action = element_is_A_annihilated(frozenset({mono_word(w)}))
            if criterion != action:
                report.failures.append(
                    f"criterion says {criterion}, action says {action}: "
                    f"{format_element(frozenset({mono_word(w)}))}"
                )
    report.millis = int((time.perf_counter() - t0) * 1000)
    return report


# -- theorem 2: suspension factorization ----------------------------------------

def _witness_exists(w: AdmissibleGen) -> bool:
    if not w.ops:
        return is_gen_A_annihilated(w.gen)
    entries = w.lower
    for j in range(1, len(w.ops) + 1):
        for n in range(1, entries[j - 1] + 1):
            witness = normalize(w.ops[j - 1 :], suspend_gen(w.gen, n))
            if witness and element_is_A_annihilated(witness):
                return True
    return False


def verify_suspension_factorization(
    space: Space, max_degree: int, max_len: int, max_vectors: int = 64
) -> VerifyReport:
    """Sampled members of the annihilated subspace with nonzero suspension
    image must have, in every word-length stratum of their indecomposable
    part, a leading term that desuspends to an annihilated class after
    dropping a prefix of its operations.  The claim is about the leading
    term of each member, which is not linear in the member, so the basis
    alone does not settle it; sums of basis vectors are sampled too.

    The samples are those of sample_members on the first max_vectors
    masks of annihilated_kernel, so the Steenrod images and the
    elimination stop at the row of the last one.  A member's text is
    rendered from its rows like a listing's."""
    t0 = time.perf_counter()
    report = VerifyReport(
        "2",
        space_name(space),
        {"max_degree": max_degree, "max_length": max_len, "max_vectors": max_vectors},
        0,
    )
    for degree in range(1, max_degree + 1):
        basis = monomial_basis(space, degree, max_len)
        masks = list(islice(annihilated_kernel(space, degree, max_len), max_vectors))
        members = sample_members(masks, max_vectors)
        # suspension is linear and kills decomposables, so a member's image
        # and strata come from the single words among the monomials it uses
        singles = {
            i: (m[0][0], suspend(frozenset({m})))
            for i in bits(reduce(or_, members, 0))
            if (m := basis[i]).total_exponent == 1
        }
        rows = [list(bits(x)) for x in members]
        for row, text in zip(rows, listing_terms(basis, rows)):
            report.checked += 1
            words = [singles[i] for i in row if i in singles]
            if not reduce(xor, (image for _, image in words), EL_ZERO):
                report.excluded.append(f"suspension image zero: {text}")
                continue
            strata: dict[int, list[AdmissibleGen]] = {}
            for w, _ in words:
                strata.setdefault(len(w.ops), []).append(w)
            for length, ws in sorted(strata.items()):
                leading = max(ws, key=word_sort_key)
                if not _witness_exists(leading):
                    report.failures.append(
                        f"no suspension witness for the length-{length} leading term "
                        f"{format_element(frozenset({mono_word(leading)}))} of {text}"
                    )
    report.millis = int((time.perf_counter() - t0) * 1000)
    return report


# -- theorem 3: the shape of spherical candidates --------------------------------

def verify_spherical_form(space: Space, max_degree: int, max_len: int) -> VerifyReport:
    """Candidates (annihilated and primitive) must, modulo decomposables, be
    sums of all-odd words; in odd degrees over a suspension-like space the
    decomposable part must vanish outright.  Over a space that is not a
    suspension the odd-degree statement is not claimed, so violations land
    in `excluded` rather than in `failures`.  Annihilated members are also
    checked for the interior facts: indecomposable terms of excess >= 2 have
    odd leading entry, and in odd degrees so do terms of excess >= 3.

    Each claim says that a member lies in the span of the monomials it
    allows, so it holds on a whole subspace once it holds on a basis: every
    basis vector is checked, and `checked` counts them.  A kernel vector is
    a mask over the basis, so one AND with the mask of the monomials a claim
    forbids decides it; offending terms are listed in basis order.  A
    member's text is rendered from its rows like a listing's."""
    t0 = time.perf_counter()
    report = VerifyReport(
        "3", space_name(space), {"max_degree": max_degree, "max_length": max_len}, 0
    )
    suspension = is_suspension_like(space)
    for degree in range(1, max_degree + 1):
        odd = degree % 2
        basis = monomial_basis(space, degree, max_len)
        even_led = unclean = 0
        for i, m in enumerate(basis):
            w = m[0][0]
            if m.total_exponent != 1:
                unclean |= odd << i
            elif any(op % 2 == 0 for op in w.ops):
                unclean |= 1 << i
                if w.ops[0] % 2 == 0 and excess(w.ops, gen_degree(w.gen)) >= 2:
                    even_led |= 1 << i
        for mask in annihilated_kernel(space, degree, max_len):
            report.checked += 1
            for i in bits(mask & even_led):
                (text,) = listing_terms(basis, [list(bits(mask))])
                m = basis[i]
                w = m[0][0]
                report.failures.append(
                    f"annihilated member has an even-led term of excess >= 2: "
                    f"{format_element(frozenset({m}))} in {text}"
                )
                if odd and excess(w.ops, gen_degree(w.gen)) >= 3:
                    report.failures.append(
                        f"odd-degree annihilated member has an even-led term of "
                        f"excess >= 3: {format_element(frozenset({m}))}"
                    )
        for mask in candidate_kernel(space, degree, max_len):
            report.checked += 1
            if not mask & unclean:
                continue
            (text,) = listing_terms(basis, [list(bits(mask))])
            if not odd:
                report.failures.append(
                    f"even-degree candidate whose indecomposable part has an "
                    f"even entry: {text}"
                )
            elif suspension:
                report.failures.append(
                    f"odd-degree candidate over a suspension is not an all-odd "
                    f"word sum: {text}"
                )
            else:
                report.excluded.append(text)
    report.millis = int((time.perf_counter() - t0) * 1000)
    return report


# -- root and coproduct compatibility --------------------------------------------

def _vanishes_mod2(terms: list[int]) -> bool:
    """Whether a sum of terms is 0 mod 2: every term occurs an even number
    of times.  Counting, then scanning the few distinct counts, beats
    comparing the even and odd slices of the sorted terms by about 20% on
    the coassociativity triples."""
    return not any(n & 1 for n in set(Counter(terms).values()))


def verify_root_compatibility(
    space: Space,
    max_len: int = 2,
    hopf_degree: int = 12,
    square_degree: int = 10,
    word_degree: int = 16,
    primitive_degree: int = 16,
) -> VerifyReport:
    """Five checks of the coproduct and the halving root, within the capped
    span.  `checked` counts one per case:

    - coassociativity, (Δ (x) 1)Δm = (1 (x) Δ)Δm, for every basis monomial
      m of degree 1..hopf_degree;
    - multiplicativity, Δ(m1 m2) = Δm1 Δm2, for every pair of basis
      monomials with deg m1 <= deg m2 and deg m1 + deg m2 <= hopf_degree;
    - root(m^2) = m for every basis monomial of degree 1..square_degree, and
      the same for the sum of each degree's basis (one more per degree);
    - on every admissible word with operations of degree <= word_degree,
      the root halves an even leading operation and kills an odd one;
    - every primitive basis vector of even degree <= primitive_degree has
      an indecomposable part with root 0.

    The two Hopf checks run on ints.  The n basis monomials of degree
    0..hopf_degree are numbered in basis order, and each one's Δ comes from
    the Element layer (`coproduct`), once, with each leg looked up by its
    number.  Coassociativity writes a tensor term l (x) r as
    i(l) n + i(r) and a triple l1 (x) l2 (x) r as (i(l1) n + i(l2)) n +
    i(r), an int below n^3 (one digit over P at hopf degree 12, where n is
    986).  Multiplicativity runs on the word fields of hopf_degree: a
    monomial packs as one int, a tensor term as [left | right], and a
    product of either is one add, so m1 m2 is packed(m1) + packed(m2).
    The checks compare the Element-layer coproducts with compositions and
    products formed on those ints, so the Element-layer coproduct is what
    they test."""
    t0 = time.perf_counter()
    report = VerifyReport(
        "root",
        space_name(space),
        {
            "max_length": max_len,
            "hopf_degree": hopf_degree,
            "square_degree": square_degree,
            "word_degree": word_degree,
            "primitive_degree": primitive_degree,
        },
        0,
    )

    # each basis monomial's coproduct, once, as pairs i(l) n + i(r) and as
    # packed terms; every leg is a basis monomial of no larger degree (the
    # cap is honest), so it has a number, and the tables die with this call
    fields = _WordFields(space, hopf_degree, max_len)
    shift = fields.right
    bases = [monomial_basis(space, degree, max_len) for degree in range(hopf_degree + 1)]
    index = {m: i for i, m in enumerate(m for basis in bases for m in basis)}
    n = len(index)
    packed = [fields.pack(m) for m in index]
    pairs: list[list[int]] = []
    delta: dict[int, list[int]] = {}
    for m, x in zip(index, packed):
        legs = [(index[l], index[r]) for l, r in coproduct(frozenset({m}))]
        pairs.append([a * n + b for a, b in legs])
        delta[x] = [packed[a] + (packed[b] << shift) for a, b in legs]

    # coassociativity on basis monomials: (Δ (x) 1)Δm + (1 (x) Δ)Δm sums
    # Δa (x) b and a (x) Δb over the terms a (x) b of Δm, as triples
    # l1 (x) l2 (x) r numbered (i(l1) n + i(l2)) n + i(r), ints below n^3
    nn = n * n
    for basis in bases[1:]:
        for m in basis:
            report.checked += 1
            legs = [divmod(t, n) for t in pairs[index[m]]]
            triples = [y * n + b for a, b in legs for y in pairs[a]]
            triples += [a * nn + z for a, b in legs for z in pairs[b]]
            if not _vanishes_mod2(triples):
                report.failures.append(f"coassociativity fails on {format_element(frozenset({m}))}")

    # multiplicativity on pairs of basis monomials, on packed terms: Δ(m1 m2)
    # + Δm1 Δm2 as a set of the terms of odd count.  Δ(m1 m2) has distinct
    # terms, and so has x Δm2 for each x, so toggling each run in is the sum
    # mod 2.  m1 m2 packs as packed(m1) + packed(m2), and its Δ is in the
    # table: the product lies in the basis of degree deg m1 + deg m2 <=
    # hopf_degree, and its exponents fit the fields of that degree
    for d1 in range(1, hopf_degree):
        for d2 in range(d1, hopf_degree - d1 + 1):
            right = [(m2, x2, delta[x2]) for m2 in bases[d2] for x2 in (packed[index[m2]],)]
            for m1 in bases[d1]:
                x1 = packed[index[m1]]
                delta1 = delta[x1]
                for m2, x2, delta2 in right:
                    report.checked += 1
                    acc = set(delta[x1 + x2])
                    for x in delta1:
                        acc ^= {x + y for y in delta2}
                    if acc:
                        report.failures.append(
                            f"coproduct is not multiplicative on "
                            f"{format_element(frozenset({m1}))} and {format_element(frozenset({m2}))}"
                        )

    # the root undoes squaring
    for degree in range(1, square_degree + 1):
        basis = monomial_basis(space, degree, max_len)
        for m in basis:
            report.checked += 1
            if root(el_square(frozenset({m}))) != frozenset({m}):
                report.failures.append(f"root(square) misses {format_element(frozenset({m}))}")
        whole = frozenset(basis)
        report.checked += 1
        if root(el_square(whole)) != whole:
            report.failures.append(f"root(square) misses the full sum in degree {degree}")

    # half-index commutation on basis words
    for degree in range(1, word_degree + 1):
        for w in admissible_words(space, degree, max_len):
            if not w.ops:
                continue
            report.checked += 1
            lhs = root(frozenset({mono_word(w)}))
            tail = frozenset({mono_word(AdmissibleGen(w.ops[1:], w.gen))})
            if w.ops[0] % 2 == 0:
                if lhs != apply_q(w.ops[0] // 2, root(tail)):
                    report.failures.append(
                        f"root does not halve the leading operation on "
                        f"{format_element(frozenset({mono_word(w)}))}"
                    )
            elif lhs != EL_ZERO:
                report.failures.append(
                    f"root survives an odd leading operation on "
                    f"{format_element(frozenset({mono_word(w)}))}"
                )

    # primitives have rootless indecomposable part
    for degree in range(2, primitive_degree + 1, 2):
        for xi in primitive_subspace(space, degree, max_len):
            report.checked += 1
            if root(indecomposable_part(xi)) != EL_ZERO:
                report.failures.append(
                    f"primitive with a rooted indecomposable part: {format_element(xi)}"
                )

    report.millis = int((time.perf_counter() - t0) * 1000)
    return report


def run_verifier(
    theorem: str,
    space: Space,
    max_degree: int | None = None,
    max_len: int = 2,
    max_vectors: int = 64,
) -> VerifyReport:
    """Dispatch by theorem label.  For "root" an explicit max_degree
    overrides all four internal bounds; otherwise the defaults apply."""
    if theorem == "root":
        if max_degree is None:
            return verify_root_compatibility(space, max_len)
        return verify_root_compatibility(
            space,
            max_len,
            hopf_degree=max_degree,
            square_degree=max_degree,
            word_degree=max_degree,
            primitive_degree=max_degree,
        )
    if max_degree is None:
        raise ValueError(f"theorem {theorem!r} needs a degree bound")
    if theorem == "1":
        return verify_annihilation(space, max_degree, max_len)
    if theorem == "2":
        return verify_suspension_factorization(space, max_degree, max_len, max_vectors)
    if theorem == "3":
        return verify_spherical_form(space, max_degree, max_len)
    raise ValueError(f"unknown theorem {theorem!r}")


# -- the sequence-level excess drop ----------------------------------------------

def _admissible_sequences(max_sum: int, max_len: int):
    """By length, then lexicographically; an entry is appended only if the
    sum leaves at least 1 for each entry still to come."""

    def grow(prefix: tuple[int, ...], room: int, left: int):
        if not left:
            yield prefix
            return
        for i in range((prefix[-1] + 1) // 2 if prefix else 1, room - left + 2):
            yield from grow(prefix + (i,), room - i, left - 1)

    for s in range(1, min(max_len, max_sum) + 1):
        yield from grow((), max_sum, s)


def check_curtis_bound(max_sum: int, max_len: int) -> tuple[int, list[str]]:
    """For admissible generator-free sequences whose adjacent pairs satisfy
    2 i_{j+1} - i_j < 2^{rho(i_{j+1})}, every admissible output of the
    sequence-level Steenrod action loses at least 2^{rho(i_1)} of excess,
    and rho is nondecreasing along the sequence."""
    checked = 0
    failures: list[str] = []
    for seq in _admissible_sequences(max_sum, max_len):
        if any(
            2 * seq[j + 1] - seq[j] >= 2 ** lowest_zero_bit(seq[j + 1])
            for j in range(len(seq) - 1)
        ):
            continue
        rhos = [lowest_zero_bit(i) for i in seq]
        if any(rhos[j] > rhos[j + 1] for j in range(len(seq) - 1)):
            failures.append(f"rho not nondecreasing along {seq}")
        bound = (seq[0] - sum(seq[1:])) - 2 ** lowest_zero_bit(seq[0])
        for a in range(1, sum(seq) + 1):
            checked += 1
            for k in madsen_action(a, seq, normalized=True):
                if k[0] - sum(k[1:]) > bound:
                    failures.append(f"Sq^{a} on {seq}: output {k} has excess above {bound}")
    return checked, failures
