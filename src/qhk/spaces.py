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
from weakref import WeakValueDictionary

from .mod2 import binom_mod2

SPHERE = "sphere"
REALPROJ = "realproj"
SIGMACP = "sigmacp"


class _Canonical:
    """The base of the value types here and in words.py, which are
    canonical: Cls(*values) is the one object with those fields, so
    equality is identity and the hash is object's.  A weak-valued table per
    class keeps each object while something else refers to it; once the
    last reference is dropped, the next construction makes it again.  A new
    object gets its _fields set to the values, then _complete may check
    them and set derived slots; if that raises, the object is not kept.
    Fields never change after that, and unpickling or copying constructs
    again, so it returns the one object.  A monomial is not interned: it is
    the tuple of its factors (algebra.py), equal by value."""

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls) -> None:
        cls._table = WeakValueDictionary()

    def __new__(cls, *values):
        self = cls._table.get(values)
        if self is None:
            self = object.__new__(cls)
            for name, value in zip(cls._fields, values, strict=True):
                object.__setattr__(self, name, value)
            self._complete()
            cls._table[values] = self
        return self

    def _complete(self) -> None:
        pass

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is canonical: cannot change {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Space(_Canonical):
    """A space, canonical: Space(kind, dim, shift) is the one object with
    those fields."""

    __slots__ = _fields = ("kind", "dim", "shift")
    kind: str
    dim: int   # sphere bottom dimension, shift included; 0 otherwise
    shift: int

    def __new__(cls, kind: str, dim: int = 0, shift: int = 0) -> Space:
        return super().__new__(cls, kind, dim, shift)


class Generator(_Canonical):
    """A homology generator of a space, canonical like Space."""

    __slots__ = _fields = ("space", "index")
    space: Space
    index: int


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
