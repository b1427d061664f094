from __future__ import annotations

import copy
import itertools
import pickle
import time

import pytest

from qhk.spaces import RealProj, SigmaCPplus, Sphere, gen_degree, gen_sort_key, generators, parse_gen
from qhk.words import (
    AdmissibleGen,
    admissible_words,
    excess,
    is_admissible_ops,
    lower_entries,
    ops_from_lower,
    word_degree,
    word_sort_key,
)

g1 = parse_gen("g1")


def test_degree_and_excess_examples():
    assert word_degree((9, 5), 1) == 15
    assert excess((9, 5), 1) == 3
    assert excess((), 4) == 4
    assert excess((2,), 1) == 1
    assert excess((6, 4), 1) == 1


def test_lower_entries_examples():
    assert lower_entries((9, 5), 1) == (3, 4)
    assert lower_entries((6, 4), 1) == (1, 3)
    assert lower_entries((4, 2), 1) == (1, 1)
    assert lower_entries((2,), 1) == (1,)


def test_lower_upper_round_trip():
    for d in (1, 2, 3):
        for s in (1, 2, 3, 4):
            for entries in itertools.product(range(1, 6), repeat=s):
                if any(entries[j] > entries[j + 1] for j in range(s - 1)):
                    continue
                ops = ops_from_lower(entries, d)
                assert lower_entries(ops, d) == entries
                assert is_admissible_ops(ops)
                assert word_degree(ops, d) == sum(
                    e * 2**j for j, e in enumerate(entries)
                ) + 2**s * d


def test_admissible_iff_lower_nondecreasing():
    for d in (1, 2):
        for s in (2, 3):
            for ops in itertools.product(range(1, 13), repeat=s):
                entries = lower_entries(ops, d)
                nondec = all(entries[j] <= entries[j + 1] for j in range(s - 1))
                assert is_admissible_ops(ops) == nondec


def test_all_odd_entries_give_strictly_increasing_lower():
    for d in (1, 2, 3):
        for s in (2, 3):
            for ops in itertools.product(range(1, 16, 2), repeat=s):
                if not is_admissible_ops(ops):
                    continue
                entries = lower_entries(ops, d)
                assert all(entries[j] < entries[j + 1] for j in range(s - 1))


def test_strictly_increasing_lower_does_not_force_odd_entries():
    # the converse fails: an admissible all-even word can still have strictly
    # increasing lower entries
    assert lower_entries((6, 4), 1) == (1, 3)
    assert is_admissible_ops((6, 4))
    AdmissibleGen((6, 4), g1)   # validates


def test_validation_rejects_bad_words():
    with pytest.raises(ValueError):
        AdmissibleGen((2, 3), g1)     # 2 <= 6 fine, but excess 2-3-1 = -2
    with pytest.raises(ValueError):
        AdmissibleGen((9, 2), g1)     # inadmissible
    with pytest.raises(ValueError):
        AdmissibleGen((1,), g1)       # excess 0 is a square, not a generator
    AdmissibleGen((2,), g1)
    AdmissibleGen((), g1)


def test_suffixes_of_basis_words_are_basis_words():
    for w in admissible_words(Sphere(1), 18, 3):
        for j in range(len(w.ops)):
            AdmissibleGen(w.ops[j:], w.gen)


def test_enumeration_matches_brute_force():
    def brute(space, degree, max_len):
        out = set()
        for d in range(1, degree + 1):
            for g in generators(space, d):
                if d == degree:
                    out.add(((), g))
                for s in range(1, max_len + 1):
                    rest = degree - d
                    for ops in itertools.product(range(1, rest + 1), repeat=s):
                        if sum(ops) != rest:
                            continue
                        if not is_admissible_ops(ops):
                            continue
                        if excess(ops, d) < 1:
                            continue
                        out.add((ops, g))
        return out

    for space in (Sphere(1), Sphere(2), RealProj(), RealProj(1)):
        for degree in range(1, 13):
            got = admissible_words(space, degree, 3)
            assert len(set(got)) == len(got)
            assert {(w.ops, w.gen) for w in got} == brute(space, degree, 3)


def test_enumeration_is_sorted_and_degreewise():
    for degree in (6, 11, 16):
        ws = admissible_words(RealProj(), degree, 4)
        assert all(w.degree == degree for w in ws)
        keys = [word_sort_key(w) for w in ws]
        assert keys == sorted(keys)


def test_known_basis_counts_low_degrees_sphere():
    # over S^1: Q^1 g1 = g1^2 has excess 0, so the first proper word is
    # Q^2 g1 in degree 3; the first length-2 word is Q^4 Q^2 g1 in degree 7
    assert [len(admissible_words(Sphere(1), d, 3)) for d in range(1, 8)] == [
        1,  # g1
        0,
        1,  # Q^2 g1
        1,  # Q^3 g1
        1,  # Q^4 g1
        1,  # Q^5 g1
        2,  # Q^6 g1 and Q^4 Q^2 g1
    ]


def test_enumeration_stops_at_the_exact_length_bound():
    # below degree 17 no word has more than 4 operations (the least degree of
    # s of them is 2^s (deg x + 1) - 1), so a huge cap lists the same words;
    # the enumeration must stop there, not loop over the lengths above it
    t0 = time.perf_counter()
    for space in (RealProj(), Sphere(1), SigmaCPplus()):
        for degree in range(1, 17):
            huge_cap = admissible_words(space, degree, 5000)
            assert huge_cap == admissible_words(space, degree, 4)
    dt = time.perf_counter() - t0
    assert dt < 1, f"enumeration at cap 5000 exceeded its 1s budget: {dt:.1f}s"


def test_word_sort_key_orders_by_length_first():
    w1 = AdmissibleGen((17,), g1)
    w2 = AdmissibleGen((9, 5), g1)
    assert word_sort_key(w1) < word_sort_key(w2)


def test_cached_degree_key_and_hash_match_fresh_values():
    seen = 0
    for space in (RealProj(), Sphere(1), SigmaCPplus()):
        for degree in range(1, 17):
            for w in admissible_words(space, degree, 4):
                gen_deg = gen_degree(w.gen)
                assert w.degree == word_degree(w.ops, gen_deg) == degree
                assert word_sort_key(w) == (len(w.ops), lower_entries(w.ops, gen_deg), gen_sort_key(w.gen))
                # a separately built copy is the same object
                twin = AdmissibleGen(tuple(w.ops), w.gen)
                assert twin is w
                seen += 1
    assert seen > 150


def _canonical_values():
    w = AdmissibleGen((6, 3), parse_gen("a1^s1"))
    return w.gen.space, w.gen, w


def test_canonical_values_are_frozen_and_slotted():
    for value in _canonical_values():
        for name in type(value).__slots__ + ("other",):
            with pytest.raises(AttributeError):
                setattr(value, name, 5)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert not hasattr(value, "__dict__")
    space, gen, w = _canonical_values()
    assert (space.shift, gen.index, w.ops, w.degree) == (1, 1, (6, 3), 11)


def test_canonical_reprs_name_their_fields():
    space, gen, w = _canonical_values()
    assert repr(space) == "Space(kind='realproj', dim=0, shift=1)"
    assert repr(gen) == "Generator(space=Space(kind='realproj', dim=0, shift=1), index=1)"
    assert repr(w) == (
        "AdmissibleGen(ops=(6, 3), gen=Generator(space=Space(kind='realproj', dim=0, shift=1), index=1))"
    )
    assert repr(AdmissibleGen((), g1)) == (
        "AdmissibleGen(ops=(), gen=Generator(space=Space(kind='sphere', dim=1, shift=0), index=1))"
    )


def test_pickling_and_copying_return_the_canonical_object():
    for value in _canonical_values():
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(value, protocol)) is value
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
