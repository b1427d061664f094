"""Acceptance gate: the eleven criteria, one test and one verdict line each.

Each criterion asserts its exact GF(2) identities or oracle equivalences and
its stated wall-clock budget.  Nothing here is statistical.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import time

from qhk.adem import adem_pair
from qhk.algebra import EL_ZERO, el_add, is_primitive
from qhk.cli import main as cli_main
from qhk.exprs import element_from_json, element_to_json, format_element, parse_element
from qhk.mod2 import binom_mod2, lowest_zero_bit
from qhk.sieve import (
    annihilated_subspace,
    check_curtis_bound,
    spherical_candidates,
    verify_annihilation,
    verify_root_compatibility,
    verify_spherical_form,
    verify_suspension_factorization,
)
from qhk.spaces import RealProj, Sphere
from qhk.steenrod import element_is_A_annihilated, nishida_expansion, sq_down, word_is_A_annihilated
from qhk.words import admissible_words, is_admissible_ops

P = RealProj()
S1 = Sphere(1)
S2 = Sphere(2)

H3_CLASS = "Q^2 a1 + a3 + a1^3 + a1*a2"


def _done(n: int, t0: float, budget: float) -> None:
    dt = time.perf_counter() - t0
    print(f"criterion {n}: PASS in {dt:.2f}s (budget {budget:.0f}s)")
    assert dt < budget, f"criterion {n} exceeded its {budget}s budget: {dt:.1f}s"


def test_criterion_01_worked_example_identities():
    t0 = time.perf_counter()
    el = parse_element("Q^9 Q^5 g1")
    assert sq_down(4, el) == EL_ZERO
    got = sq_down(2, el)
    assert got == parse_element("Q^7 Q^5 g1") and got != EL_ZERO
    assert adem_pair(7, 3) == frozenset()
    _done(1, t0, 1)


def test_criterion_02_annihilation_criterion_vs_brute_force():
    t0 = time.perf_counter()
    mismatches = 0
    for space in (S1, S2, P):
        rep = verify_annihilation(space, 32, 3)
        mismatches += len(rep.failures)
        for degree in range(1, 33):
            for w in admissible_words(space, degree, 3):
                if word_is_A_annihilated(w):
                    assert all(i % 2 == 1 for i in w.ops), w
    assert mismatches == 0
    _done(2, t0, 300)


def test_criterion_03_degree_three_projective_class():
    t0 = time.perf_counter()
    xi = parse_element(H3_CLASS)
    cand = spherical_candidates(P, 3, 3)
    span = {EL_ZERO}
    for v in cand:
        span |= {el_add(s, v) for s in span}
    assert xi in span
    assert not element_is_A_annihilated(parse_element("Q^2 a1"))
    assert is_primitive(xi)
    _done(3, t0, 1)


def test_criterion_04_counterexample_family():
    t0 = time.perf_counter()
    for t in range(1, 5):
        n = 2**t
        mixed = parse_element(f"Q^{n} a{n - 1} + a{n}*a{n - 1}")
        assert sq_down(1, mixed) == EL_ZERO
        alone = parse_element(f"Q^{n} a{n - 1}")
        assert sq_down(1, alone) != EL_ZERO
        assert not element_is_A_annihilated(alone)
    _done(4, t0, 5)


def test_criterion_05_sequence_level_excess_bound():
    t0 = time.perf_counter()
    checked, failures = check_curtis_bound(32, 4)
    assert failures == []
    assert checked > 0
    _done(5, t0, 600)


def test_criterion_06_parity_and_order_suite():
    t0 = time.perf_counter()
    # straightening outputs: parity preserved, excess strictly reduced
    for b in range(1, 32):
        for a in range(2 * b + 1, 65):
            for x, y in adem_pair(a, b):
                assert x + y == a + b and x <= 2 * y
                assert x - y < a - b
                if a % 2 == 1 and b % 2 == 1:
                    assert x % 2 == 1 and y % 2 == 1
                if a % 2 == 1 and b % 2 == 0:
                    assert x % 2 == 1 and y % 2 == 0
    # dual-action outputs on all-odd admissible sequences: an output K is
    # all-odd exactly when its residual index is even, an odd residual
    # leaves a single even entry in the last slot, and the residual-free
    # terms of an even operation are all-odd
    seqs = []
    for length in range(1, 4):
        for seq in itertools.product(range(1, 25, 2), repeat=length):
            if sum(seq) <= 24 and is_admissible_ops(seq):
                seqs.append(seq)
    for seq in seqs:
        for a in range(1, sum(seq) + 1):
            for k, r in nishida_expansion(a, seq):
                evens = [pos for pos, entry in enumerate(k) if entry % 2 == 0]
                assert (not evens) == (r % 2 == 0)
                if r % 2:
                    assert evens == [len(k) - 1]
                if a % 2 == 0 and r == 0:
                    assert not evens
    _done(6, t0, 120)


def test_criterion_07_rho_characterization():
    t0 = time.perf_counter()
    for n in range(1, 65536):
        least = next(t for t in range(18) if binom_mod2(n - 2**t, 2**t) == 1)
        assert least == lowest_zero_bit(n)
    _done(7, t0, 1)


def test_criterion_08_hopf_and_root_identities():
    t0 = time.perf_counter()
    rep = verify_root_compatibility(
        P, 2, hopf_degree=12, square_degree=10, word_degree=16, primitive_degree=16
    )
    assert rep.ok, rep.failures[:5]
    assert rep.checked > 0
    _done(8, t0, 300)


def test_criterion_09_spherical_form_enumeration():
    t0 = time.perf_counter()
    rep = verify_spherical_form(S1, 24, 3)
    assert rep.ok, rep.failures[:5]
    rep = verify_spherical_form(P, 20, 2)
    assert rep.ok, rep.failures[:5]
    assert rep.excluded.count(H3_CLASS) == 1
    _done(9, t0, 600)


def test_criterion_10_suspension_factorization_enumeration():
    t0 = time.perf_counter()
    for space in (S1, P):
        rep = verify_suspension_factorization(space, 20, 2, 64)
        assert rep.ok, rep.failures[:5]
        # every sampled class either produced a witness or was a recognized
        # suspension-zero skip
        assert rep.checked > 0
    _done(10, t0, 600)


def test_criterion_11_determinism_and_round_trips(capsys):
    t0 = time.perf_counter()
    # parse/print identity over computed subspaces
    seen = 0
    for degree in range(1, 9):
        for el in annihilated_subspace(P, degree, 2) + spherical_candidates(P, degree, 2):
            assert parse_element(format_element(el)) == el
            assert element_from_json(element_to_json(el)) == el
            seen += 1
    assert seen > 10
    # JSON schema stability
    assert element_to_json(parse_element("Q^9 Q^5 g1")) == {
        "terms": [
            {"factors": [{"ops": [9, 5], "gen": {"space": "S1", "index": 1}, "exp": 1}]}
        ]
    }
    # the basis listing: byte-identical across fresh interpreters under two
    # hash seeds, and to the same command run in this process
    for space, degree, cap in (("P", 9, 2), ("S1", 12, 3)):
        argv = ["basis", "--space", space, "--degree", str(degree), "--max-length", str(cap)]
        argv += ["--format", "json"]
        outputs = set()
        for seed in ("0", "4242"):
            proc = subprocess.run(
                [sys.executable, "-m", "qhk.cli", *argv],
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr
            outputs.add(proc.stdout)
        capsys.readouterr()
        assert cli_main(argv) == 0
        assert outputs == {capsys.readouterr().out.encode()}, argv
    _done(11, t0, 60)


def test_the_gate_is_complete():
    # the eleven criteria above are the whole acceptance surface
    names = [n for n in sorted(globals()) if n.startswith("test_criterion_")]
    assert len(names) == 11
