"""Admissible operation words and their combinatorics.

An operation word Q^I x is stored as the upper-index sequence
I = (i_1, ..., i_s) together with its generator.  The lower indexing
replaces i_j by the excess of the suffix starting there,

    e_j = i_j - (i_{j+1} + ... + i_s) - deg x,

and is the coordinate system everything here prefers: I is admissible
(i_j <= 2 i_{j+1}) iff E = (e_1, ..., e_s) is nondecreasing, and the word
is a polynomial-algebra generator iff additionally e_1 >= 1.  Since E is
nondecreasing, e_1 >= 1 makes every suffix a generator too.

Degrees satisfy the doubling recursion w_j = e_j + 2 w_{j+1} with seed
deg x, so deg(Q^I x) = e_1 + 2 e_2 + ... + 2^{s-1} e_s + 2^s deg x.
Enumerating nondecreasing E against that weighted sum is how we list basis
words of a fixed degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator
from weakref import WeakValueDictionary

from .spaces import Generator, Space, _Canonical, gen_degree, gen_sort_key, generators


def word_degree(ops: tuple[int, ...], gen_deg: int) -> int:
    return sum(ops) + gen_deg


def excess(ops: tuple[int, ...], gen_deg: int) -> int:
    """i_1 minus everything it must dominate; bare generators get their degree."""
    if not ops:
        return gen_deg
    return ops[0] - sum(ops[1:]) - gen_deg


def lower_entries(ops: tuple[int, ...], gen_deg: int) -> tuple[int, ...]:
    out = []
    tail = 0
    for i in reversed(ops):
        out.append(i - tail - gen_deg)
        tail += i
    return tuple(reversed(out))


def ops_from_lower(entries: tuple[int, ...], gen_deg: int) -> tuple[int, ...]:
    ops: list[int] = []
    tail = 0
    for e in reversed(entries):
        i = e + tail + gen_deg
        ops.append(i)
        tail += i
    return tuple(reversed(ops))


def is_admissible_ops(ops: tuple[int, ...]) -> bool:
    return all(ops[j] <= 2 * ops[j + 1] for j in range(len(ops) - 1))


_WORDS: WeakValueDictionary[tuple[tuple[int, ...], Generator], AdmissibleGen] = WeakValueDictionary()


@dataclass(frozen=True, slots=True, eq=False, init=False)
class AdmissibleGen(_Canonical):
    """A polynomial-algebra generator Q^I x: I admissible, positive excess.

    Words are canonical (see spaces.py): AdmissibleGen(ops, gen) is the one
    word with those fields, so == is identity and the hash is object's.
    The first construction checks the word and computes its degree and its
    word_sort_key; an invalid word raises ValueError and is not kept."""

    ops: tuple[int, ...]
    gen: Generator
    degree: int = field(init=False, repr=False)
    sort_key: tuple = field(init=False, repr=False)

    def __new__(cls, ops: tuple[int, ...], gen: Generator) -> AdmissibleGen:
        key = (ops, gen)
        self = _WORDS.get(key)
        if self is not None:
            return self
        gen_deg = gen_degree(gen)
        entries = lower_entries(ops, gen_deg)
        if ops:
            if entries[0] < 1:
                raise ValueError(f"excess {entries[0]} < 1 in Q^{ops} {gen}")
            if any(entries[j] > entries[j + 1] for j in range(len(entries) - 1)):
                raise ValueError(f"inadmissible word Q^{ops} {gen}")
        self = object.__new__(cls)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "degree", word_degree(ops, gen_deg))
        object.__setattr__(self, "sort_key", (len(ops), entries, gen_sort_key(gen)))
        _WORDS[key] = self
        return self

    def __reduce__(self):
        return AdmissibleGen, (self.ops, self.gen)

    @property
    def lower(self) -> tuple[int, ...]:
        return self.sort_key[1]


def word_sort_key(w: AdmissibleGen) -> tuple:
    """Total order: length first, then lower entries lexicographically, then
    the generator.  The Steenrod action strictly lowers this key, which is
    what termination and leading-term arguments lean on."""
    return w.sort_key


def _lower_sequences(length: int, budget: int, lo: int, weight: int) -> Iterator[tuple[int, ...]]:
    # nondecreasing entries e_j >= lo with sum weight * (e_j at doubling weights)
    # hitting budget exactly; weight carries 2^(position-1)
    if length == 1:
        if budget >= lo * weight and budget % weight == 0:
            yield (budget // weight,)
        return
    rest_weight = 2 * weight * (2 ** (length - 1) - 1)
    e = lo
    while e * (weight + rest_weight) <= budget:
        for tail in _lower_sequences(length - 1, budget - weight * e, e, 2 * weight):
            yield (e,) + tail
        e += 1


def admissible_words(space: Space, degree: int, max_len: int) -> tuple[AdmissibleGen, ...]:
    """All basis words of exactly this degree with at most max_len operations,
    sorted ascending by word_sort_key."""
    found: list[AdmissibleGen] = []
    for g in generators(space, degree):
        found.append(AdmissibleGen((), g))
    for gen_deg in range(1, degree + 1):
        for g in generators(space, gen_deg):
            for s in range(1, max_len + 1):
                budget = degree - (2**s) * gen_deg
                # entries >= 1 cost 2^s - 1, so neither s nor more operations fit
                if budget < 2**s - 1:
                    break
                for entries in _lower_sequences(s, budget, 1, 1):
                    found.append(AdmissibleGen(ops_from_lower(entries, gen_deg), g))
    found.sort(key=word_sort_key)
    return tuple(found)
