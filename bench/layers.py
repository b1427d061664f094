"""Per-layer spans, timed from outside the package.

`Tracer.install` rebinds, inside `qhk.sieve` and `qhk.cli`, every function
those two modules import from another qhk module, plus the sieve's own
exported entry points and `qhk.cli.main`.  Each rebound name opens a span
owned by the module that defines the function (its layer).  A layer's self
time is the duration of its spans minus the part covered by nested spans,
so the self times of all layers plus the harness's own time add up to the
traced run's verdict time.  Nothing under src/ is modified.

Calls between the lower layers (steenrod calling algebra, algebra calling
adem) are not rebound, so they count as the caller's self time.
"""

from __future__ import annotations

import gc
import inspect
import time
from collections import defaultdict

# Layers whose self time is reported; spaces, mod2 and cache spans still
# count towards the coverage ratio.
LAYERS = ("cli", "sieve", "words", "steenrod", "algebra", "exprs")

# Boundaries whose call counts and inclusive times are reported, named
# layer.function with any leading underscore dropped.
TIMED = (
    "words.admissible_words",
    "sieve.monomial_basis",
    "sieve.annihilated_subspace",
    "sieve.primitive_subspace",
    "sieve.spherical_candidates",
    "steenrod.sq_down",
    "steenrod.element_is_A_annihilated",
    "algebra.reduced_coproduct",
    "algebra.coproduct",
    "algebra.el_mul",
    "algebra.tensor_mul",
    "algebra.root",
    "algebra.normalize",
    "exprs.element_to_json",
    "exprs.format_element",
)

# Boundaries that also count the work they return, and the metric for it.
SIZED = {
    "words.admissible_words": "words.admissible_words.count",
    "steenrod.sq_down": "steenrod.sq_down.terms",
    "algebra.reduced_coproduct": "algebra.reduced_coproduct.terms",
}
KERNELS = ("sieve.annihilated_subspace", "sieve.primitive_subspace", "sieve.spherical_candidates")
# sieve functions called as f(space, degree, max_len); the largest degree
# they see is the workload's top degree
DEGREE_ARG = ("sieve.monomial_basis",) + KERNELS

def now() -> float:
    """CLOCK_MONOTONIC, the clock run.py and its children share."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.secs: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.bases: dict[tuple, int] = {}
        self.top_degree = -1
        self.t_top = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0
        # one accumulator per open span for the time its children took; the
        # bottom entry collects the top-level spans
        self._child_s = [0.0]
        self.installed: set[str] = set()

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        self.installed.add(key)
        stack, calls, secs, self_s = self._child_s, self.calls, self.secs, self.self_s
        sized = key in SIZED or key in KERNELS
        degree_arg = key in DEGREE_ARG
        bases = self.bases if key == "sieve.monomial_basis" else None

        def span(*args, **kwargs):
            t0 = now()
            if degree_arg and args[1] > self.top_degree:
                self.top_degree, self.t_top = args[1], t0
            stack.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = now() - t0
                nested = stack.pop()
                stack[-1] += dt
                self_s[layer] += dt - nested
                calls[key] += 1
                secs[key] += dt
            if sized:
                self.work[key] += len(out)
            if bases is not None:
                bases.setdefault(args, len(out))
            return out

        return span

    def install(self) -> None:
        import qhk
        import qhk.cli
        import qhk.sieve

        exported = {n for n in qhk.__all__ if getattr(getattr(qhk.sieve, n, None), "__module__", "") == "qhk.sieve"}
        spans: dict[int, object] = {}
        for mod in (qhk.sieve, qhk.cli):
            for name, obj in list(vars(mod).items()):
                owner = getattr(obj, "__module__", "") or ""
                if not owner.startswith("qhk.") or not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                if owner == mod.__name__ and not (mod is qhk.sieve and name in exported):
                    continue
                if id(obj) not in spans:
                    spans[id(obj)] = self._wrap(owner.rsplit(".", 1)[1], name.lstrip("_"), obj)
                setattr(mod, name, spans[id(obj)])
        qhk.cli.main = self._wrap("cli", "main", qhk.cli.main)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = now()
        else:
            self.gc_s += now() - self._gc_t0
            self.gc_collections += 1

    def metrics(self, verdict_s: float, top_s: float) -> tuple[dict, list[str]]:
        """Per-layer values as {name: (value, unit)}, and the names of the
        boundaries that no longer exist (reported missing, never as 0)."""
        import qhk.algebra
        import qhk.steenrod

        out: dict[str, tuple[float, str]] = {}
        missing = [key for key in TIMED if key not in self.installed]
        for key in TIMED:
            if key in missing:
                continue
            if key not in KERNELS:
                out[f"{key}.calls"] = (self.calls[key], "count")
            out[f"{key}.s"] = (self.secs[key], "s")
            if key in SIZED:
                out[SIZED[key]] = (self.work[key], "count")
        if "sieve.monomial_basis" not in missing:
            out["sieve.monomial_basis.dim"] = (sum(self.bases.values()), "count")
        if not any(k in missing for k in KERNELS):
            out["sieve.kernel_dim"] = (sum(self.work[k] for k in KERNELS), "count")
        out["sieve.top_degree_s"] = (top_s, "s")
        out["steenrod.memo_size"] = (memo_size(qhk.steenrod), "count")
        out["algebra.memo_size"] = (memo_size(qhk.algebra), "count")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        out["interp.gc_s"] = (self.gc_s, "s")
        out["interp.gc_collections"] = (self.gc_collections, "count")
        out["trace.coverage"] = (sum(self.self_s.values()) / verdict_s, "ratio")
        return out, missing


def memo_size(module) -> int:
    """Entries held by the module's own lru_cache tables."""
    return sum(
        obj.cache_info().currsize
        for obj in vars(module).values()
        if hasattr(obj, "cache_info") and obj.__module__ == module.__name__
    )
