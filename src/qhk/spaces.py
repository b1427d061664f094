"""Input spaces and their homology generators.

Three families cover every run we care about at desk scale:

* ``Sphere(n)``: one class g_n in degree n, trivial Steenrod action,
  primitive.  Suspending a sphere is again a sphere, so the shift is
  normalized into the dimension and stored as 0.
* ``RealProj()``: classes a_m (m >= 1) with Sq^r a_m = C(m-r, r) a_{m-r},
  full diagonal psi(a_n) = sum a_i (x) a_{n-i}, and halving root
  a_{2i} -> a_i.  The unshifted space is the one interesting non-suspension.
* ``SigmaCPplus()``: classes c_n in odd degrees n, c_n the suspension of
  the degree (n-1)/2 class of CP, so Sq^{2s} c_n = C((n-1)/2 - s, s) c_{n-2s}
  and odd Steenrod indices act by zero.  Already a suspension at shift 0.

A shift of k >= 1 models the k-fold suspension: degrees move up by k,
stable operations keep their coefficients, coproducts become primitive and
roots vanish (cup products die in a suspension).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from weakref import WeakValueDictionary

from .mod2 import binom_mod2

SPHERE = "sphere"
REALPROJ = "realproj"
SIGMACP = "sigmacp"


# The value types here and in words.py are canonical: each constructor
# returns the one object that has its fields, so equality is identity and
# the hash is object's.  A table keeps each object while something else
# refers to it, and drops it with its last reference: a weak-valued table,
# one policy for all three.  No reference to a dropped object is left, so
# the next construction makes the one object again.  A monomial is not
# interned: it is the tuple of its factors (algebra.py), equal by value.


class _Canonical:
    """The base of the canonical types: a slot for the tables' weak
    references (dataclass's weakref_slot needs Python 3.11)."""

    __slots__ = ("__weakref__",)


_SPACES: WeakValueDictionary[tuple[str, int, int], Space] = WeakValueDictionary()
_GENERATORS: WeakValueDictionary[tuple[Space, int], Generator] = WeakValueDictionary()


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Space(_Canonical):
    """A space, canonical: Space(kind, dim, shift) is the one object with
    those fields."""

    kind: str
    dim: int = 0   # sphere bottom dimension, shift included; 0 otherwise
    shift: int = 0

    def __new__(cls, kind: str, dim: int = 0, shift: int = 0) -> Space:
        key = (kind, dim, shift)
        self = _SPACES.get(key)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "kind", kind)
            object.__setattr__(self, "dim", dim)
            object.__setattr__(self, "shift", shift)
            _SPACES[key] = self
        return self

    def __reduce__(self):
        return Space, (self.kind, self.dim, self.shift)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Generator(_Canonical):
    """A homology generator of a space, canonical like Space."""

    space: Space
    index: int

    def __new__(cls, space: Space, index: int) -> Generator:
        key = (space, index)
        self = _GENERATORS.get(key)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "space", space)
            object.__setattr__(self, "index", index)
            _GENERATORS[key] = self
        return self

    def __reduce__(self):
        return Generator, (self.space, self.index)


def Sphere(n: int) -> Space:
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    return Space(SPHERE, dim=n)


def RealProj(shift: int = 0) -> Space:
    if shift < 0:
        raise ValueError("shift must be >= 0")
    return Space(REALPROJ, shift=shift)


def SigmaCPplus(shift: int = 0) -> Space:
    if shift < 0:
        raise ValueError("shift must be >= 0")
    return Space(SIGMACP, shift=shift)


def suspend_space(space: Space, k: int = 1) -> Space:
    if k < 0:
        raise ValueError("suspension count must be >= 0")
    if space.kind == SPHERE:
        return Space(SPHERE, dim=space.dim + k)
    return Space(space.kind, shift=space.shift + k)


def is_suspension_like(space: Space) -> bool:
    """True when the space is (de)suspendable on the nose: S^n = Sigma S^{n-1},
    Sigma CP_+ is literally a suspension, and any shifted space is one."""
    return space.kind != REALPROJ or space.shift >= 1


# -- names ------------------------------------------------------------------

_GEN_LETTER = {SPHERE: "g", REALPROJ: "a", SIGMACP: "c"}
_SPACE_RE = re.compile(r"^(S[1-9][0-9]*|P|SCP)(?:\^s([1-9][0-9]*))?$")
_GEN_RE = re.compile(r"^([gac])([1-9][0-9]*)(?:\^s([1-9][0-9]*))?$")


def space_name(space: Space) -> str:
    if space.kind == SPHERE:
        return f"S{space.dim}"
    base = "P" if space.kind == REALPROJ else "SCP"
    return base if space.shift == 0 else f"{base}^s{space.shift}"


def parse_space(token: str) -> Space:
    m = _SPACE_RE.match(token)
    if m is None:
        raise ValueError(f"bad space name {token!r} (want S<n>, P, SCP, optionally ^s<k>)")
    base, shift = m.group(1), int(m.group(2) or 0)
    if base.startswith("S") and base != "SCP":
        return Sphere(int(base[1:]) + shift)
    if base == "P":
        return RealProj(shift)
    return SigmaCPplus(shift)


def gen_name(g: Generator) -> str:
    letter = _GEN_LETTER[g.space.kind]
    suffix = f"^s{g.space.shift}" if g.space.shift else ""
    return f"{letter}{g.index}{suffix}"


def parse_gen(token: str) -> Generator:
    m = _GEN_RE.match(token)
    if m is None:
        raise ValueError(f"bad generator name {token!r}")
    letter, index, shift = m.group(1), int(m.group(2)), int(m.group(3) or 0)
    if letter == "g":
        if shift:
            raise ValueError(f"sphere classes absorb shifts into the degree: {token!r}")
        return Generator(Sphere(index), index)
    if letter == "a":
        return Generator(RealProj(shift), index)
    if index % 2 == 0:
        raise ValueError(f"suspended-CP classes live in odd internal degree: {token!r}")
    return Generator(SigmaCPplus(shift), index)


# -- degreewise data --------------------------------------------------------

def gen_degree(g: Generator) -> int:
    if g.space.kind == SPHERE:
        return g.space.dim
    return g.index + g.space.shift


def generators(space: Space, degree: int) -> tuple[Generator, ...]:
    """All generators of the space in exactly this degree (0 or 1 of them)."""
    if degree < 1:
        return ()
    if space.kind == SPHERE:
        return (Generator(space, space.dim),) if degree == space.dim else ()
    index = degree - space.shift
    if index < 1:
        return ()
    if space.kind == SIGMACP and index % 2 == 0:
        return ()
    return (Generator(space, index),)


def sq_down_gen(r: int, g: Generator) -> Generator | None:
    """Target of Sq^r acting downward, or None when the coefficient is even
    or the target degree drops below 1.  Coefficients ignore the shift."""
    if r < 1:
        raise ValueError("Steenrod index must be >= 1 here")
    kind = g.space.kind
    if kind == SPHERE:
        return None
    m = g.index
    if m - r < 1:
        return None
    if kind == REALPROJ:
        coef = binom_mod2(m - r, r)
    else:
        if r % 2:
            return None
        coef = binom_mod2((m - 1) // 2 - r // 2, r // 2)
    return Generator(g.space, m - r) if coef else None


def reduced_coproduct_gen(g: Generator) -> tuple[tuple[Generator, Generator], ...]:
    """psi(g) minus the two unit terms, as ordered pairs of generators."""
    if g.space.kind != REALPROJ or g.space.shift != 0:
        return ()
    n = g.index
    return tuple(
        (Generator(g.space, i), Generator(g.space, n - i)) for i in range(1, n)
    )


def root_gen(g: Generator) -> Generator | None:
    """Halving root on generators; only unshifted a_{2i} survives."""
    if g.space.kind == REALPROJ and g.space.shift == 0 and g.index % 2 == 0:
        return Generator(g.space, g.index // 2)
    return None


def is_gen_A_annihilated(g: Generator) -> bool:
    """True when every Sq^{2^t} kills the class (indices >= degree always do)."""
    deg = gen_degree(g)
    t = 0
    while 2**t < deg:
        if sq_down_gen(2**t, g) is not None:
            return False
        t += 1
    return True


def gen_sort_key(g: Generator) -> tuple[int, int, int, int, str]:
    """Injective: the kind, last, only splits a_n from c_n at one shift."""
    return (gen_degree(g), g.space.shift, g.space.dim, g.index, g.space.kind)
