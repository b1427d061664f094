"""Parsing and printing of elements.

Grammar (whitespace free):

    expr   := term ('+' term)*
    term   := factor (('*' | nothing) factor)*
    factor := 'Q^'<nat> factor | atom ('^'<nat>)?
    atom   := generator | '1' | '(' expr ')'

so ``Q^2 a1^3`` is Q^2 applied to the cube, and operations bind the whole
next factor.  The unit ``1`` is an atom, so every printed element parses
back (``a1 + 1``); ``0`` is accepted only as the whole input.  Generator
tokens look like g3, a5, c7, optionally carrying a suspension suffix
(a5^s2); the lexer tells ``^s2`` (shift) and ``^2`` (exponent) apart.
Parentheses nest at most MAX_NESTING deep, and a token is at most
MAX_TOKEN characters long; a chain of operations may be of any length.
Parsing evaluates on the spot, so the result is always in basis form; an
operation applied to an inhomogeneous sum is refused (evaluating it
termwise would be fine, but it is almost always a typo).
"""

from __future__ import annotations

import json
import re

from .algebra import (
    EL_ONE,
    EL_ZERO,
    Element,
    Monomial,
    _pow,
    apply_q,
    el_degree,
    el_mul,
    el_square,
    mono_from_pairs,
    mono_word,
)
from .spaces import (
    SPHERE,
    Space,
    gen_name,
    generators,
    parse_gen,
    parse_space,
    space_name,
)
from .words import AdmissibleGen, word_sort_key


class ExprError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


MAX_NESTING = 100
MAX_TOKEN = 600   # Python converts a number of up to 640 digits, whatever its limit

_TOKEN_RE = re.compile(
    r"(Q\^[0-9]+)|([gac][0-9]+(?:\^s[0-9]+)?)|(\^[0-9]+)|([+*()]|1(?![0-9]))|(\s+)|(.)"
)


def _lex(text: str) -> list[tuple[str, str, int]]:
    out = []
    for m in _TOKEN_RE.finditer(text):
        q, gen, exp, punct, ws, bad = m.groups()
        if ws is not None:
            continue
        if bad is not None:
            raise ExprError(f"unexpected character {bad!r}", m.start())
        if m.end() - m.start() > MAX_TOKEN:
            raise ExprError(f"token longer than {MAX_TOKEN} characters", m.start())
        if q is not None:
            out.append(("q", q[2:], m.start()))
        elif gen is not None:
            out.append(("gen", gen, m.start()))
        elif exp is not None:
            out.append(("exp", exp[1:], m.start()))
        else:
            out.append((punct, punct, m.start()))
    return out


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], space: Space | None, length: int):
        self.tokens = tokens
        self.space = space
        self.length = length
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("end", "", self.length)

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        self.i += 1
        return tok

    def expr(self) -> Element:
        el = self.term()
        while self.peek()[0] == "+":
            self.take()
            other = self.term()
            el = el ^ other
        return el

    def term(self) -> Element:
        el = self.factor()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.take()
                el = el_mul(el, self.factor())
            elif kind in ("q", "gen", "(", "1"):
                el = el_mul(el, self.factor())
            else:
                return el

    def factor(self) -> Element:
        # a loop, not recursion, so a chain of operations of any length parses
        ops = []
        while self.peek()[0] == "q":
            ops.append(self.take())
        el = self.atom()
        if self.peek()[0] == "exp":
            _, evalue, _ = self.take()
            el = _pow(el, int(evalue), EL_ONE, el_mul, el_square)
        for _, value, pos in reversed(ops):
            try:
                el_degree(el)
            except ValueError:
                raise ExprError("operation applied to an inhomogeneous sum", pos) from None
            el = apply_q(int(value), el)
        return el

    def atom(self) -> Element:
        kind, value, pos = self.take()
        if kind == "gen":
            try:
                g = parse_gen(value)
            except ValueError as err:
                raise ExprError(str(err), pos) from None
            if self.space is not None and g.space != self.space:
                raise ExprError(
                    f"generator {value} does not live on {space_name(self.space)}", pos
                )
            return frozenset({mono_word(AdmissibleGen((), g))})
        if kind == "1":
            return EL_ONE
        if kind == "(":
            # four stack frames a level: the bound keeps below the recursion limit
            if self.depth == MAX_NESTING:
                raise ExprError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            el = self.expr()
            self.depth -= 1
            kind2, _, pos2 = self.take()
            if kind2 != ")":
                raise ExprError("expected ')'", pos2)
            return el
        raise ExprError(f"expected a generator, '1', 'Q^n' or '(', got {value!r}", pos)


def parse_element(text: str, space: Space | None = None) -> Element:
    if text.strip() == "0":
        return EL_ZERO
    parser = _Parser(_lex(text), space, len(text))
    el = parser.expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ExprError(f"trailing input {value!r}", pos)
    return el


# -- printing -----------------------------------------------------------------
#
# Every element's bytes, as text or as JSON, come from listing_terms.

def _mono_key(m: Monomial):
    return (m.degree, tuple((word_sort_key(w), e) for w, e in m))


def format_word_power(w: AdmissibleGen, e: int) -> str:
    ops = " ".join(f"Q^{i}" for i in w.ops)
    base = f"{ops} {gen_name(w.gen)}" if ops else gen_name(w.gen)
    if e == 1:
        return base
    if w.ops:
        return f"({base})^{e}"
    return f"{base}^{e}"


_TEXT_WRITERS = (
    format_word_power,
    lambda factors: "*".join(factors) or "1",
    lambda terms: " + ".join(terms) or "0",
)


def _json_list(items: list[str], indent: str) -> str:
    """A list as json.dumps(..., indent=2) writes it where indent (a newline
    and the spaces of its depth) starts its line, from its items already
    written one level deeper."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _json_object(fields: dict[str, str], indent: str) -> str:
    """A nonempty dict likewise, from its values already written one level
    deeper; the keys are plain names that JSON writes as they are."""
    inner = indent + "  "
    return "{" + inner + ("," + inner).join(f'"{k}": {v}' for k, v in fields.items()) + indent + "}"


def _json_writers(depth: int):
    """The factor, monomial and element writers of an element's JSON, as
    json.dumps(..., indent=2) lays it out when the element's object opens
    `depth` levels deep: its monomials sit two levels deeper (in "terms"),
    and their factors two more (in "factors").  These are written by
    concatenation: json.dumps with an indent runs CPython's pure-Python
    encoder, which made the rendering of sieve-P's JSON listings take twice
    as long."""
    element = "\n" + "  " * depth
    term = element + "    "
    factor = term + "    "
    field = factor + "  "

    def write_factor(w: AdmissibleGen, e: int) -> str:
        ops = _json_list([str(i) for i in w.ops], field)
        gen = _json_object({"space": json.dumps(space_name(w.gen.space)), "index": str(w.gen.index)}, field)
        return _json_object({"ops": ops, "gen": gen, "exp": str(e)}, factor)

    def one_list(key: str, indent: str):
        # a dict whose one field is a list of fragments, as one concatenation
        head, inner, tail = "{" + indent + f'  "{key}": ', indent + "  ", indent + "}"
        return lambda items: head + _json_list(items, inner) + tail

    return write_factor, one_list("factors", term), one_list("terms", element)


def listing_terms(basis, rows, json_depth: int | None = None):
    """For each row of a listing in turn, its element's text, or with a
    json_depth its JSON at that depth (see _json_writers).  A row is an
    element, as the ascending indices of its monomials in the basis; the
    monomials print by descending _mono_key.  The indices the rows use are
    ranked once, in a list indexed by basis position; each distinct factor
    (w, e) is written once and each ranked monomial once, from its factors'
    fragments.  These tables live as long as the generator."""
    write_factor, write_monomial, write_element = (
        _TEXT_WRITERS if json_depth is None else _json_writers(json_depth)
    )
    used = sorted(set().union(*rows), key=lambda i: _mono_key(basis[i]), reverse=True)
    rank = [0] * len(basis)
    for r, i in enumerate(used):
        rank[i] = r
    written: dict = {}
    fragments = []
    for i in used:
        parts = []
        for we in basis[i]:
            part = written.get(we)
            if part is None:
                part = written[we] = write_factor(*we)
            parts.append(part)
        fragments.append(write_monomial(parts))
    for row in rows:
        yield write_element([fragments[r] for r in sorted(map(rank.__getitem__, row))])


def format_element(el: Element) -> str:
    (text,) = listing_terms(tuple(el), [range(len(el))])
    return text


# -- JSON ---------------------------------------------------------------------

def element_json(el: Element) -> str:
    """The element's JSON, as json.dumps(element_to_json(el), indent=2)
    writes it."""
    (text,) = listing_terms(tuple(el), [range(len(el))], json_depth=0)
    return text


def element_to_json(el: Element) -> dict:
    """{"terms": [{"factors": [{"ops", "gen": {"space", "index"}, "exp"}, ...]}, ...]},
    the monomials in format_element's order; read back from element_json,
    so the dict and the printed bytes agree."""
    return json.loads(element_json(el))


def _json_field(obj, key: str, kind: type):
    """obj[key], which must be there and be of this JSON type."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"element JSON: missing {key!r}")
    value = obj[key]
    # bool is an int subclass, but true and false are no JSON numbers
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"element JSON: {key!r} is not a {kind.__name__}: {value!r}")
    return value


def element_from_json(obj: dict) -> Element:
    """Decode element_to_json's payload.  Anything else is refused with a
    ValueError: a missing or mistyped field, a generator that does not
    exist, a word that is inadmissible or of excess below 1, or an exponent
    below 1.  Terms that repeat cancel in pairs, as in any mod-2 sum."""
    terms: set = set()
    for term in _json_field(obj, "terms", list):
        pairs = []
        for f in _json_field(term, "factors", list):
            g = _json_field(f, "gen", dict)
            name = _json_field(g, "space", str)
            space, index = parse_space(name), _json_field(g, "index", int)
            # look the index up before building a generator, so that a
            # refused payload leaves nothing in the table of generators
            found = generators(space, space.dim if space.kind == SPHERE else index + space.shift)
            if [h.index for h in found] != [index]:
                raise ValueError(f"no generator of index {index} on {name}")
            gen = found[0]
            ops = _json_field(f, "ops", list)
            if not all(isinstance(i, int) and not isinstance(i, bool) for i in ops):
                raise ValueError(f"element JSON: 'ops' are not all integers: {ops!r}")
            exp = _json_field(f, "exp", int)
            if exp < 1:
                raise ValueError(f"element JSON: exponent {exp} below 1")
            pairs.append((AdmissibleGen(tuple(ops), gen), exp))
        terms ^= {mono_from_pairs(pairs)}
    return frozenset(terms)
