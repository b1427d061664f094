"""The downward Steenrod action and the annihilation criterion.

Dual Steenrod operations pass through operation words by

    Sq^a Q^b = sum_t C(b - a, a - 2t) Q^{b-a+t} Sq^t,

with C(negative, *) = 0 (the binomial counts honest lattice paths here, so
no 2-adic reading).  Pushing a formal Sq^a through a whole index sequence
this way, the terms whose residual Steenrod index hits zero form the
sequence-level action on bare words; the rest hand a lower operation to the
generator.  Element-level sq_down interleaves the same recursion with the
unstable evaluation and the Cartan rule.

The annihilation criterion for a basis word Q^I x tests, writing rho for
the lowest zero bit:

  * x itself is killed by every Sq^{2^k},
  * excess(Q^I x) < 2^{rho(i_1)},
  * 2 i_{j+1} - i_j < 2^{rho(i_{j+1})} for every adjacent pair.

Equivalence with the brute-force check (all Sq^{2^k} vanish) is exercised
by the test suite rather than assumed.
"""

from __future__ import annotations

from functools import lru_cache

from .adem import admissible_expansion
from .algebra import (
    EL_ZERO,
    Element,
    Monomial,
    apply_q,
    el_degree,
    el_gen,
    el_mul,
    el_square,
    mono_word,
    normalize,
)
from .mod2 import binom_mod2, lowest_zero_bit
from .spaces import gen_degree, is_gen_A_annihilated, sq_down_gen
from .words import AdmissibleGen, excess


def _coef(n: int, k: int) -> int:
    return 0 if n < 0 else binom_mod2(n, k)


@lru_cache(maxsize=None)
def nishida_expansion(a: int, seq: tuple[int, ...]) -> frozenset[tuple[tuple[int, ...], int]]:
    """Formal Sq^a pushed through Q^seq: pairs (output sequence, residual
    Steenrod index left for whatever the sequence was applied to).  Raw,
    i.e. output sequences are not Adem-straightened."""
    if a < 0:
        raise ValueError("Steenrod index must be >= 0")
    if a == 0:
        return frozenset({(seq, 0)})
    if not seq:
        return frozenset({((), a)})
    i1, rest = seq[0], seq[1:]
    out: set = set()
    for t in range(a // 2 + 1):
        if _coef(i1 - a, a - 2 * t):
            head = i1 - a + t   # >= 1 whenever the coefficient survives
            for k, r in nishida_expansion(t, rest):
                out ^= {((head,) + k, r)}
    return frozenset(out)


def madsen_action(a: int, seq: tuple[int, ...], normalized: bool = False) -> frozenset[tuple[int, ...]]:
    """The part of Sq^a Q^seq with residual 0, as bare index sequences."""
    raw = {k for k, r in nishida_expansion(a, tuple(seq)) if r == 0}
    if not normalized:
        return frozenset(raw)
    out: set = set()
    for k in raw:
        out ^= admissible_expansion(k)
    return frozenset(out)


@lru_cache(maxsize=None)
def _sq_down_mono(a: int, m: Monomial) -> Element:
    if a == 0:
        return frozenset({m})
    if not m.factors:
        return EL_ZERO
    if len(m.factors) == 1:
        w, e = m.factors[0]
        if e == 1:
            if not w.ops:
                target = sq_down_gen(a, w.gen)
                return EL_ZERO if target is None else el_gen(target)
            i1 = w.ops[0]
            tail = mono_word(AdmissibleGen(w.ops[1:], w.gen))
            out: set = set()
            for t in range(a // 2 + 1):
                if _coef(i1 - a, a - 2 * t):
                    out ^= apply_q(i1 - a + t, _sq_down_mono(t, tail))
            return frozenset(out)
        if e % 2 == 0:
            if a % 2:
                return EL_ZERO
            return el_square(_sq_down_mono(a // 2, mono_word(w, e // 2)))
        left, right = mono_word(w), mono_word(w, e - 1)
    else:
        w, e = m.factors[0]
        left, right = mono_word(w, e), Monomial(m.factors[1:])
    out = set()
    for i in range(a + 1):
        li = _sq_down_mono(i, left)
        if not li:
            continue
        rj = _sq_down_mono(a - i, right)
        out ^= el_mul(li, rj)
    return frozenset(out)


def sq_down(a: int, el: Element) -> Element:
    if a < 0:
        raise ValueError("Steenrod index must be >= 0")
    if len(el) == 1:
        # the memoized image of the one monomial, uncopied
        (m,) = el
        return _sq_down_mono(a, m)
    out: set = set()
    for m in el:
        out ^= _sq_down_mono(a, m)
    return frozenset(out)


# -- annihilation -------------------------------------------------------------

def word_is_A_annihilated(w: AdmissibleGen) -> bool:
    """The closed-form criterion; see the module docstring."""
    if not is_gen_A_annihilated(w.gen):
        return False
    if not w.ops:
        return True
    if excess(w.ops, gen_degree(w.gen)) >= 2 ** lowest_zero_bit(w.ops[0]):
        return False
    return all(
        2 * w.ops[j + 1] - w.ops[j] < 2 ** lowest_zero_bit(w.ops[j + 1])
        for j in range(len(w.ops) - 1)
    )


def element_is_A_annihilated(el: Element) -> bool:
    """Brute force: every Sq^{2^k} below the degree must vanish (at the
    degree and above the target is in nonpositive degrees, hence 0)."""
    deg = el_degree(el)
    if deg is None:
        return True
    k = 0
    while 2**k < deg:
        if sq_down(2**k, el):
            return False
        k += 1
    return True


def mono_height(m: Monomial) -> int:
    """sum of exponent * 2^(word length); the Steenrod action preserves it,
    which is what justifies treating length strata independently."""
    return sum(e * 2 ** len(w.ops) for w, e in m.factors)
