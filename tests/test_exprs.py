from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhk.algebra import (
    EL_ONE,
    EL_ZERO,
    apply_q,
    el_add,
    el_gen,
    el_mul,
    el_square,
    mono_from_pairs,
    normalize,
)
from qhk.exprs import (
    ExprError,
    element_from_json,
    element_to_json,
    format_element,
    parse_element,
)
from qhk import spaces
from qhk.spaces import RealProj, Sphere, parse_gen
from qhk.words import AdmissibleGen, admissible_words

a1 = parse_gen("a1")
a2 = parse_gen("a2")


def test_parse_simple():
    assert parse_element("0") == EL_ZERO
    assert parse_element("1") == EL_ONE
    assert parse_element("a1") == el_gen(a1)
    assert parse_element("a1 + a1") == EL_ZERO
    assert parse_element("a1*a2") == el_mul(el_gen(a1), el_gen(a2))
    assert parse_element("a1 a2") == el_mul(el_gen(a1), el_gen(a2))
    assert parse_element("a1^2") == el_square(el_gen(a1))
    assert parse_element("a1^0") == EL_ONE


def test_operations_bind_the_next_factor():
    assert parse_element("Q^3 a1") == normalize((3,), a1)
    assert parse_element("Q^2 a1^3") == apply_q(2, parse_element("a1^3"))
    assert parse_element("Q^3 a1 * a2") == el_mul(normalize((3,), a1), el_gen(a2))
    assert parse_element("Q^6 Q^2 a1") == normalize((6, 2), a1)
    assert parse_element("Q^7 Q^3 g1") == EL_ZERO
    assert parse_element("(Q^3 a1)^2") == el_square(normalize((3,), a1))
    assert parse_element("Q^4 (Q^2 a1 + a3)") == apply_q(
        4, el_add(normalize((2,), a1), el_gen(parse_gen("a3")))
    )


def test_shifted_generator_tokens():
    el = parse_element("Q^4 a1^s1")
    assert el == normalize((4,), parse_gen("a1^s1"))
    sq = parse_element("a1^s1^2")
    assert sq == el_square(el_gen(parse_gen("a1^s1")))


def test_parse_errors_carry_positions():
    with pytest.raises(ExprError) as e:
        parse_element("a1 + $")
    assert e.value.pos == 5
    with pytest.raises(ExprError):
        parse_element("a1 +")
    with pytest.raises(ExprError):
        parse_element("(a1")
    with pytest.raises(ExprError):
        parse_element("a1)")
    with pytest.raises(ExprError):
        parse_element("Q^2 (a1 + a1*a2)")    # inhomogeneous operand
    with pytest.raises(ExprError):
        parse_element("a0")
    with pytest.raises(ExprError):
        parse_element("Q^2 a1", space=Sphere(1))   # wrong space


def test_space_scoping():
    P = RealProj()
    assert parse_element("Q^2 a1", space=P) == normalize((2,), a1)


def test_format_basics():
    assert format_element(EL_ZERO) == "0"
    assert format_element(EL_ONE) == "1"
    assert format_element(el_gen(a1)) == "a1"
    assert format_element(el_square(normalize((3,), a1))) == "(Q^3 a1)^2"
    assert format_element(el_square(el_gen(a1))) == "a1^2"
    assert format_element(el_mul(el_gen(a1), el_gen(a2))) == "a1*a2"
    assert format_element(normalize((9, 5), parse_gen("g1"))) == "Q^9 Q^5 g1"


def test_format_orders_terms_descending():
    xi = el_add(
        normalize((2,), a1),
        el_mul(el_gen(a1), el_gen(a2)),
        parse_element("a1^3"),
        el_gen(parse_gen("a3")),
    )
    # the word outranks everything by length; among the rest the key compares
    # leading factors, so a3 > a1^3 > a1*a2
    assert format_element(xi) == "Q^2 a1 + a3 + a1^3 + a1*a2"


def test_parse_format_round_trip():
    rng = random.Random(13)
    words = [w for d in range(1, 13) for w in admissible_words(RealProj(), d, 3)]
    for _ in range(150):
        terms = set()
        for _ in range(rng.randrange(1, 4)):
            pairs = [
                (rng.choice(words), rng.randrange(1, 4))
                for _ in range(rng.randrange(1, 3))
            ]
            terms ^= {mono_from_pairs(pairs)}
        el = frozenset(terms)
        assert parse_element(format_element(el)) == el


def test_json_round_trip():
    xi = el_add(
        normalize((2,), a1),
        el_mul(el_gen(a1), el_gen(a2)),
        parse_element("a1^3"),
        el_gen(parse_gen("a3")),
    )
    blob = json.dumps(element_to_json(xi))
    assert element_from_json(json.loads(blob)) == xi
    assert element_to_json(EL_ZERO) == {"terms": []}
    shifted = parse_element("Q^4 a1^s1")
    assert element_from_json(element_to_json(shifted)) == shifted
    spherical = normalize((9, 5), parse_gen("g1"))
    got = element_to_json(spherical)
    assert got == {
        "terms": [
            {
                "factors": [
                    {"ops": [9, 5], "gen": {"space": "S1", "index": 1}, "exp": 1}
                ]
            }
        ]
    }


def test_json_rejects_bad_generators():
    with pytest.raises(ValueError):
        element_from_json(
            {"terms": [{"factors": [{"ops": [], "gen": {"space": "S3", "index": 5}, "exp": 1}]}]}
        )
    with pytest.raises(ValueError):
        element_from_json(
            {"terms": [{"factors": [{"ops": [9, 2], "gen": {"space": "P", "index": 1}, "exp": 1}]}]}
        )


def test_rejected_generators_leave_no_canonical_objects_behind():
    # the index is checked before a generator is built, so a refused payload
    # adds nothing to the table of generators
    element_from_json({"terms": [{"factors": [_factor([], "S1", 1, 1)]}]})
    before = len(spaces._GENERATORS)
    bad = [("S1", i) for i in range(2, 1002)] + [("P", 0), ("P", -3), ("SCP", 4), ("SCP^s2", 6)]
    for name, index in bad:
        with pytest.raises(ValueError, match="no generator"):
            element_from_json({"terms": [{"factors": [_factor([], name, index, 1)]}]})
    assert len(spaces._GENERATORS) == before


def test_the_unit_is_an_atom():
    assert parse_element("a1+1") == el_add(el_gen(a1), EL_ONE)
    assert parse_element("(1 + a1)^2") == el_add(EL_ONE, el_square(el_gen(a1)))
    xi = parse_element("a1c1a1^s1+g2^0")
    assert format_element(xi) == "a1*c1*a1^s1 + 1"
    assert parse_element(format_element(xi)) == xi
    with pytest.raises(ExprError):
        parse_element("11")
    with pytest.raises(ExprError):
        parse_element("a1 + 0")


def _factor(ops, space, index, exp):
    return {"ops": ops, "gen": {"space": space, "index": index}, "exp": exp}


def test_json_rejects_malformed_payloads():
    good = _factor([], "P", 1, 1)
    for obj in (
        {"terms": [{"factors": [_factor([], "P", 1, 0)]}]},   # exponent 0
        {"terms": [{"factors": [_factor([], "P", 1, -2)]}]},
        {},
        {"terms": None},
        {"terms": [{}]},
        {"terms": [{"factors": [{"ops": [], "gen": {"space": "P", "index": 1}}]}]},
        {"terms": [{"factors": [_factor([], "P", 1, "2")]}]},
        {"terms": [{"factors": [_factor([], "P", True, 1)]}]},
        {"terms": [{"factors": [_factor([3.0], "P", 1, 1)]}]},
        {"terms": [{"factors": [_factor([], "Q", 1, 1)]}]},
        {"terms": [good, "a1"]},
        [good],
        None,
    ):
        with pytest.raises(ValueError):
            element_from_json(obj)
    assert element_from_json({"terms": [{"factors": [good]}]}) == el_gen(a1)
    assert element_from_json({"terms": [{"factors": []}]}) == EL_ONE


# -- fuzzing the expression and JSON boundary --------------------------------

_GENERATORS = st.one_of(
    st.builds("{}{}".format, st.sampled_from("gac"), st.integers(0, 6)),
    st.builds("{}{}^s{}".format, st.sampled_from("gac"), st.integers(0, 6), st.integers(0, 2)),
)
_TOKENS = st.one_of(
    st.sampled_from(["+", "*", "(", ")", "1", "0", " ", "^"]),
    st.integers(0, 16).map("Q^{}".format),
    st.integers(0, 4).map("^{}".format),
    _GENERATORS,
)
# token soup is mostly refused, so half the inputs follow the grammar
_EXPRESSIONS = st.one_of(
    st.lists(_TOKENS, max_size=10).map("".join),
    st.recursive(
        st.one_of(st.just("1"), _GENERATORS),
        lambda inner: st.one_of(
            st.builds("{} + {}".format, inner, inner),
            st.builds("{}*{}".format, inner, inner),
            st.builds("Q^{} {}".format, st.integers(0, 16), inner),
            st.builds("({})^{}".format, inner, st.integers(0, 4)),
        ),
        max_leaves=5,
    ),
)


def _assert_round_trips(el):
    assert parse_element(format_element(el)) == el
    assert element_from_json(json.loads(json.dumps(element_to_json(el)))) == el


@settings(max_examples=300, deadline=None)
@given(_EXPRESSIONS)
def test_fuzz_parse_raises_only_expr_errors_and_round_trips(text):
    try:
        el = parse_element(text)
    except ExprError:
        return
    _assert_round_trips(el)


def _paths(obj, at=()):
    """Every position in a JSON value, as a key path."""
    yield at
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, at + (key,))


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "P", "S0", "S2", "SCP", "P^s1", "a1", "3"]),
    st.lists(st.integers(-1, 12), max_size=3),
    st.just({}),
)
_SEEDS = ["a1", "Q^3 a1 * a2^2 + 1", "(Q^5 g3)^2 + g3*Q^4 g3", "c1^s1*Q^6 a1^s1 + c3^s1", "1", "0"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_SEEDS), st.data())
def test_fuzz_json_raises_only_value_errors_and_round_trips(seed, data):
    payload = element_to_json(parse_element(seed))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(payload))))
        if not path:
            payload = data.draw(_JSON_VALUES)
            continue
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_JSON_VALUES)
    try:
        el = element_from_json(payload)
    except ValueError:
        return
    _assert_round_trips(el)
