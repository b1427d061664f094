"""The free Hopf algebra on admissible words, with exact mod-2 arithmetic.

Elements are frozensets of monomials (a set is a mod-2 sum); a monomial is
the tuple of its (word, exponent) factors, ascending by word order.
Everything is hashable so the heavy recursions can memoize.

The operation action on a single admissible word is where the calculus
lives: prepending an index usually breaks admissibility, Adem straightening
restores it, and each straightened sequence then collapses against the
generator by the excess rule

    e_1 < 0          ->  0
    e_1 = ... = e_t = 0, rest positive  ->  (Q^{i_{t+1}..i_s} x)^{2^t}

(the lower entries of an admissible sequence are nondecreasing, so the
zeros sit in a prefix; an index equal to the degree squares, below kills).
Composites and powers reduce to that via the Cartan formula and
Q^n(v^2) = (Q^{n/2} v)^2 for even n, 0 for odd n; _cartan states both
rules once, for Q^n here and for the dual Steenrod action.  The coproduct
of a word iterates the Cartan formula down its sequence:

    Δ(Q^I x) = sum over x' (x) x'' in Δx and I = J + K of Q^J x' (x) Q^K x''.

Word keys are total (the space kind breaks the last ties), so products are
plain merges.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce

from .adem import admissible_expansion
from .spaces import (
    SPHERE,
    Generator,
    gen_degree,
    reduced_coproduct_gen,
    root_gen,
    suspend_space,
)
from .words import AdmissibleGen, lower_entries


class Monomial(tuple):
    """Product of word powers: the tuple of its (word, exponent) factors,
    ascending by word order.  Equality and the hash are the tuple's; words
    are canonical, so they compare by identity."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return sum(e * w.degree for w, e in self)

    @property
    def total_exponent(self) -> int:
        return sum(e for _, e in self)


MONO_ONE = Monomial(())

Element = frozenset  # of Monomial
TensorElement = frozenset  # of (Monomial, Monomial)

EL_ZERO: Element = frozenset()
EL_ONE: Element = frozenset({MONO_ONE})


def mono_from_pairs(pairs) -> Monomial:
    merged: dict[AdmissibleGen, int] = {}
    for w, e in pairs:
        if e < 0:
            raise ValueError("negative exponent")
        merged[w] = merged.get(w, 0) + e
    kept = [(w, e) for w, e in merged.items() if e > 0]
    kept.sort(key=lambda we: we[0].sort_key)
    return Monomial(kept)


def mono_word(w: AdmissibleGen, e: int = 1) -> Monomial:
    if e < 0:
        raise ValueError("negative exponent")
    return Monomial(((w, e),)) if e else MONO_ONE


def el_gen(g: Generator) -> Element:
    return frozenset({mono_word(AdmissibleGen((), g))})


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product, by merging the two factor tuples, which are already
    ascending by word key (equal keys mean the same word); equal to
    mono_from_pairs(a + b)."""
    if not a:
        return b
    if not b:
        return a
    if a[-1][0].sort_key < b[0][0].sort_key:
        return Monomial(a + b)
    if b[-1][0].sort_key < a[0][0].sort_key:
        return Monomial(b + a)
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        wa, ea = a[i]
        wb, eb = b[j]
        ka, kb = wa.sort_key, wb.sort_key
        if ka < kb:
            out.append(a[i])
            i += 1
        elif kb < ka:
            out.append(b[j])
            j += 1
        else:
            out.append((wa, ea + eb))
            i += 1
            j += 1
    return Monomial(tuple(out) + a[i:] + b[j:])


def mono_square(m: Monomial) -> Monomial:
    return Monomial((w, 2 * e) for w, e in m)


def el_add(*els: Element) -> Element:
    out: set = set()
    for el in els:
        out ^= el
    return frozenset(out)


def el_mul(a: Element, b: Element) -> Element:
    out: set = set()
    for ma in a:
        for mb in b:
            out ^= {mono_mul(ma, mb)}
    return frozenset(out)


def el_square(el: Element) -> Element:
    # Frobenius is additive mod 2 and injective on monomials
    return frozenset(mono_square(m) for m in el)


def el_degree(el: Element) -> int | None:
    """Common degree of the terms; None for 0, error if mixed."""
    degs = {m.degree for m in el}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError(f"inhomogeneous element, degrees {sorted(degs)}")
    return degs.pop()


def indecomposable_part(el: Element) -> Element:
    return frozenset(m for m in el if m.total_exponent == 1)


def decomposable_part(el: Element) -> Element:
    return frozenset(m for m in el if m.total_exponent != 1)


# -- the operation action ----------------------------------------------------

def evaluate_admissible(ops: tuple[int, ...], gen: Generator) -> Monomial | None:
    """Collapse an admissible sequence against a generator; None means 0."""
    entries = lower_entries(ops, gen_degree(gen))
    if entries and entries[0] < 0:
        return None
    t = 0
    while t < len(entries) and entries[t] == 0:
        t += 1
    return mono_word(AdmissibleGen(ops[t:], gen), 2**t)


def normalize(ops: tuple[int, ...], gen: Generator) -> Element:
    """The composite Q^ops applied to a generator, in basis form."""
    out: set = set()
    for seq in admissible_expansion(tuple(ops)):
        m = evaluate_admissible(seq, gen)
        if m is not None:
            out ^= {m}
    return frozenset(out)


def _cartan(f, n: int, m: Monomial) -> Element:
    """f(n, m), m not a single word, for an action f with the Cartan formula
    and f_n(v^2) = f_{n/2}(v)^2 (0 at odd n): v^(2k) squares f_{n/2}(v^k),
    and any other m splits into its first power (or v and v^(e-1)) and rest."""
    w, e = m[0]
    if len(m) > 1:
        left, right = mono_word(w, e), Monomial(m[1:])
    elif e % 2:
        left, right = mono_word(w), mono_word(w, e - 1)
    else:
        return EL_ZERO if n % 2 else el_square(f(n // 2, mono_word(w, e // 2)))
    out: set = set()
    for i in range(n + 1):
        li = f(i, left)
        if not li:
            continue
        rj = f(n - i, right)
        for ml in li:
            for mr in rj:
                out ^= {mono_mul(ml, mr)}
    return frozenset(out)


@lru_cache(maxsize=None)
def _apply_q_mono(n: int, m: Monomial) -> Element:
    if not m:
        return EL_ONE if n == 0 else EL_ZERO
    d = m.degree
    if n < d:
        return EL_ZERO
    if n == d:
        return frozenset({mono_square(m)})
    w, e = m[0]
    if e == 1 and len(m) == 1:
        return normalize((n,) + w.ops, w.gen)
    return _cartan(_apply_q_mono, n, m)


def apply_q(n: int, el: Element) -> Element:
    if n < 0:
        raise ValueError("operation index must be >= 0")
    out: set = set()
    for m in el:
        out ^= _apply_q_mono(n, m)
    return frozenset(out)


# -- coproduct ----------------------------------------------------------------

def _tensor_mul(a: TensorElement, b: TensorElement) -> TensorElement:
    out: set = set()
    for la, ra in a:
        for lb, rb in b:
            out ^= {(mono_mul(la, lb), mono_mul(ra, rb))}
    return frozenset(out)


def _tensor_square(a: TensorElement) -> TensorElement:
    return frozenset((mono_square(l), mono_square(r)) for l, r in a)


TENSOR_ONE: TensorElement = frozenset({(MONO_ONE, MONO_ONE)})


@lru_cache(maxsize=None)
def _coproduct_word(w: AdmissibleGen) -> TensorElement:
    """The formula in the module docstring: a 0 entry in J or K kills a leg of
    positive degree, and a unit leg lives only in the two unit terms."""
    m = mono_word(w)
    out: set = {(m, MONO_ONE), (MONO_ONE, m)}
    for gl, gr in reduced_coproduct_gen(w.gen):
        for j in itertools.product(*(range(1, i) for i in w.ops)):
            left = normalize(j, gl)
            if left:
                right = normalize(tuple(i - ji for i, ji in zip(w.ops, j)), gr)
                out ^= {(ml, mr) for ml in left for mr in right}
    return frozenset(out)


def _pow(x, e: int, one, mul, square):
    """x^e by repeated squaring.  The product starts from the lowest power
    of x that it needs, not from the unit, and squares only while bits of
    e remain, so x^1 is x itself."""
    if not e:
        return one
    out = None
    while True:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if not e:
            return out
        x = square(x)


def _tensor_pow(a: TensorElement, e: int) -> TensorElement:
    return _pow(a, e, TENSOR_ONE, _tensor_mul, _tensor_square)


def _coproduct_mono(m: Monomial) -> TensorElement:
    """The product of the factors' powers, starting from the first one, so
    the coproduct of one word is the memoized _coproduct_word."""
    powers = [_tensor_pow(_coproduct_word(w), e) for w, e in m]
    return reduce(_tensor_mul, powers) if powers else TENSOR_ONE


def coproduct(el: Element) -> TensorElement:
    out: set = set()
    for m in el:
        out ^= _coproduct_mono(m)
    return frozenset(out)


def reduced_coproduct(el: Element) -> TensorElement:
    out = set(coproduct(el))
    for m in el:
        out ^= {(m, MONO_ONE), (MONO_ONE, m)}
    return frozenset(out)


def is_primitive(el: Element) -> bool:
    return not reduced_coproduct(el)


# -- suspension ----------------------------------------------------------------

def suspend_gen(g: Generator, k: int = 1) -> Generator:
    space = suspend_space(g.space, k)
    if space.kind == SPHERE:
        return Generator(space, space.dim)
    return Generator(space, g.index)


def suspend(el: Element, k: int = 1) -> Element:
    """Homology suspension: kills the unit and all decomposables, sends a
    word to the same sequence over the suspended generator (where its
    excess has dropped by one, possibly collapsing it to a square)."""
    for _ in range(k):
        out: set = set()
        for m in el:
            if m.total_exponent != 1:
                continue
            w = m[0][0]
            res = evaluate_admissible(w.ops, suspend_gen(w.gen))
            if res is not None:
                out ^= {res}
        el = frozenset(out)
    return el


# -- halving root ---------------------------------------------------------------

def _root_word(w: AdmissibleGen) -> Element:
    if any(i % 2 for i in w.ops):
        return EL_ZERO
    rg = root_gen(w.gen)
    if rg is None:
        return EL_ZERO
    return normalize(tuple(i // 2 for i in w.ops), rg)


def root(el: Element) -> Element:
    """Exponent-halving root: even powers halve, an unpaired factor goes
    through the word root (all indices even, generator has a halving image)
    or dies."""
    out: set = set()
    for m in el:
        part: Element = EL_ONE
        for w, e in m:
            if e // 2:
                part = el_mul(part, frozenset({mono_word(w, e // 2)}))
            if e % 2:
                part = el_mul(part, _root_word(w))
                if not part:
                    break
        out ^= part
    return frozenset(out)
