"""Adem straightening for composite operations, at the level of bare index
sequences (no generator attached, so no excess collapsing happens here).

For a > 2b the composite rewrites as

    Q^a Q^b = sum_t C(t - b - 1, 2t - a) Q^{a+b-t} Q^t,

and the output pair (a+b-t, t) is admissible exactly when 3t >= a+b, so we
sum t over ceil((a+b)/3) .. a-b-1 and let the mod-2 binomial kill the rest
(including 2t - a < 0 at the low end).  Both output entries stay positive
and the first one strictly drops (t >= b+1 gives a+b-t <= a-b-2 < a), which
is why repeated rewriting terminates.
"""

from __future__ import annotations

from functools import lru_cache

from .mod2 import binom_mod2


def adem_pair(a: int, b: int) -> frozenset[tuple[int, int]]:
    """Admissible pairs in the straightening of the inadmissible Q^a Q^b."""
    if a <= 2 * b:
        raise ValueError(f"Q^{a} Q^{b} is already admissible")
    if b < 1:
        raise ValueError("indices must be >= 1 here")
    out = set()
    for t in range(-(-(a + b) // 3), a - b):
        if binom_mod2(t - b - 1, 2 * t - a):
            out.add((a + b - t, t))
    return frozenset(out)


@lru_cache(maxsize=None)
def admissible_expansion(ops: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Mod-2 set of admissible sequences equal to the composite Q^ops.

    Rewrites the leftmost inadmissible adjacent pair and recurses; the
    position-weighted sum of the entries strictly grows under each rewrite
    while the plain sum is constant, so this terminates.
    """
    if any(i < 1 for i in ops):
        raise ValueError(f"indices must be >= 1, got {ops}")
    for j in range(len(ops) - 1):
        if ops[j] > 2 * ops[j + 1]:
            out: set[tuple[int, ...]] = set()
            for x, y in adem_pair(ops[j], ops[j + 1]):
                out ^= admissible_expansion(ops[:j] + (x, y) + ops[j + 2 :])
            return frozenset(out)
    return frozenset({ops})
