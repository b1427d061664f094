"""Binary persistence: determinism, and the one boundary, load_or_compute,
which keeps a file only when it is byte for byte the basis's encoding."""

import io
import os
import struct
import subprocess
import sys
import tempfile
import zlib
from contextlib import redirect_stderr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhk.cache import basis_to_bytes, cache_path, load_or_compute
from qhk.sieve import monomial_basis
from qhk.spaces import (
    REALPROJ,
    SPHERE,
    RealProj,
    SigmaCPplus,
    Space,
    Sphere,
)


P = RealProj()
S1 = Sphere(1)

CASES = [
    (P, 6, 2),
    (P, 3, 3),
    (S1, 7, 3),
    (Sphere(2), 8, 2),
    (SigmaCPplus(), 9, 2),
    (RealProj(shift=1), 6, 2),
]


def _canonical(space, degree, cap):
    return basis_to_bytes(space, degree, cap, monomial_basis(space, degree, cap))


def _load(cache_dir, space, degree, cap):
    """load_or_compute, and what it printed on stderr."""
    err = io.StringIO()
    with redirect_stderr(err):
        got = load_or_compute(cache_dir, space, degree, cap)
    assert got == monomial_basis(space, degree, cap)
    return err.getvalue()


def _assert_rewritten(cache_dir, space, degree, cap, data):
    """A file holding `data` at the basis's path gets one warning line that
    names it, and is replaced by the canonical encoding."""
    path = cache_path(cache_dir, space, degree, cap)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    err = _load(cache_dir, space, degree, cap)
    assert err.startswith("warning: ") and err.count("\n") == 1 and str(path) in err
    assert path.read_bytes() == _canonical(space, degree, cap)


def _resealed(data, at, chunk):
    """`data` with `chunk` written at offset `at` and its checksum
    recomputed, so only the edit is wrong."""
    body = bytearray(data[:-4])
    body[at : at + len(chunk)] = chunk
    return bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))


@pytest.mark.parametrize("space,degree,cap", CASES)
def test_round_trip(tmp_path, space, degree, cap):
    # the first call writes the canonical bytes, the second keeps them
    assert _load(tmp_path, space, degree, cap) == ""
    path = cache_path(tmp_path, space, degree, cap)
    assert path.read_bytes() == _canonical(space, degree, cap)
    assert _load(tmp_path, space, degree, cap) == ""
    assert path.read_bytes() == _canonical(space, degree, cap)


def test_encoding_is_deterministic():
    basis = monomial_basis(P, 8, 2)
    a = basis_to_bytes(P, 8, 2, basis)
    b = basis_to_bytes(P, 8, 2, tuple(basis))
    assert a == b


def test_load_or_compute_writes_then_reuses(tmp_path):
    first = load_or_compute(tmp_path, P, 6, 2)
    path = cache_path(tmp_path, P, 6, 2)
    assert path.exists()
    on_disk = path.read_bytes()
    # the file is exactly the canonical encoding of a recomputation
    assert on_disk == basis_to_bytes(P, 6, 2, monomial_basis(P, 6, 2))
    second = load_or_compute(tmp_path, P, 6, 2)
    assert first == second == monomial_basis(P, 6, 2)
    assert path.read_bytes() == on_disk


def test_corrupt_byte_is_rejected_and_recomputed(tmp_path):
    raw = bytearray(_canonical(P, 5, 2))
    raw[len(raw) // 2] ^= 0xFF
    _assert_rewritten(tmp_path, P, 5, 2, bytes(raw))


def test_bad_magic_truncation_and_version(tmp_path):
    data = _canonical(S1, 5, 2)
    _assert_rewritten(tmp_path, S1, 5, 2, b"NOPE" + data[4:])
    _assert_rewritten(tmp_path, S1, 5, 2, data[:10])
    _assert_rewritten(tmp_path, S1, 5, 2, _resealed(data, 4, struct.pack("<H", 99)))


def test_mismatched_descriptor_recomputes(tmp_path):
    # a sound file of degree 4 under the name of degree 5
    _assert_rewritten(tmp_path, P, 5, 2, _canonical(P, 4, 2))


def test_cache_path_names_are_filesystem_safe(tmp_path):
    p = cache_path(tmp_path, RealProj(shift=2), 7, 3)
    assert "^" not in p.name
    assert p.suffix == ".qhk"


def _encode_raw(space, degree, cap, monomials):
    """basis_to_bytes without its canonical-form guarantees: each monomial
    is a list of (ops, generator index, exponent) factors, written as given."""
    out = bytearray(b"QHK1" + struct.pack("<H", 1))
    kind = {"sphere": 0, "realproj": 1, "sigmacp": 2}[space.kind]
    out += struct.pack("<BII", kind, space.dim, space.shift)
    out += struct.pack("<III", degree, cap, len(monomials))
    for factors in monomials:
        out += struct.pack("<I", len(factors))
        for ops, index, e in factors:
            out += struct.pack("<III", e, index, len(ops))
            out += struct.pack(f"<{len(ops)}I", *ops)
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


def test_raw_encoding_of_a_canonical_basis_is_the_real_format(tmp_path):
    basis = monomial_basis(P, 3, 2)
    raw = [[(w.ops, w.gen.index, e) for w, e in m] for m in basis]
    data = _encode_raw(P, 3, 2, raw)
    assert data == basis_to_bytes(P, 3, 2, basis)
    cache_path(tmp_path, P, 3, 2).write_bytes(data)
    assert _load(tmp_path, P, 3, 2) == ""


def test_reordered_factors_are_rejected(tmp_path):
    # a2*a1 instead of the canonical a1*a2: the CRC is valid, the order is not
    _assert_rewritten(tmp_path, P, 3, 2, _encode_raw(P, 3, 2, [[((), 2, 1), ((), 1, 1)]]))


def test_repeated_factor_is_rejected(tmp_path):
    _assert_rewritten(tmp_path, P, 2, 2, _encode_raw(P, 2, 2, [[((), 1, 1), ((), 1, 1)]]))


def test_zero_exponent_is_rejected(tmp_path):
    _assert_rewritten(tmp_path, P, 3, 2, _encode_raw(P, 3, 2, [[((), 1, 0), ((), 3, 1)]]))


@pytest.mark.parametrize(
    "space,index",
    [(SigmaCPplus(), 2), (S1, 2), (P, 0)],
)
def test_generator_outside_the_space_is_rejected(tmp_path, space, index):
    _assert_rewritten(tmp_path, space, 2, 2, _encode_raw(space, 2, 2, [[((), index, 1)]]))


def test_repeated_monomial_is_rejected(tmp_path):
    # a3 listed twice: every factor is canonical and the CRC is valid
    _assert_rewritten(tmp_path, P, 3, 2, _encode_raw(P, 3, 2, [[((), 3, 1)], [((), 3, 1)]]))


def test_writes_go_through_a_renamed_temporary_file(tmp_path, monkeypatch):
    load_or_compute(tmp_path, P, 4, 2)
    assert [p.name for p in tmp_path.iterdir()] == [cache_path(tmp_path, P, 4, 2).name]

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("qhk.cache.os.replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        load_or_compute(tmp_path / "fresh", P, 5, 2)
    # the file was never written under its own name, and the temporary is gone
    assert list((tmp_path / "fresh").iterdir()) == []


def test_basis_out_of_enumeration_order_is_rejected(tmp_path):
    # every monomial canonical and distinct, the CRC valid, the order reversed
    basis = monomial_basis(P, 4, 2)
    _assert_rewritten(tmp_path, P, 4, 2, basis_to_bytes(P, 4, 2, tuple(reversed(basis))))


@pytest.mark.parametrize("listed", [monomial_basis(P, 7, 2)[:-3], ()], ids=["truncated", "empty"])
def test_a_sound_file_listing_another_basis_is_rewritten(tmp_path, listed):
    # the file is canonical and its checksum is sound, but it lists fewer
    # monomials than the degree has
    _assert_rewritten(tmp_path, P, 7, 2, basis_to_bytes(P, 7, 2, listed))


@pytest.mark.parametrize(
    "space", [Space(REALPROJ, dim=7), Space(SPHERE, 2, shift=5), Space(SPHERE, 0)]
)
def test_non_canonical_space_descriptor_is_rejected(tmp_path, space):
    # the listing of a real space under a descriptor that differs from its
    # canonical one (S0 is no space at all)
    target = P if space.kind == REALPROJ else Sphere(max(space.dim, 1))
    descriptor = struct.pack("<BII", {SPHERE: 0, REALPROJ: 1}[space.kind], space.dim, space.shift)
    _assert_rewritten(tmp_path, target, 4, 2, _resealed(_canonical(target, 4, 2), 6, descriptor))


def test_cache_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # words and monomials hash by identity, so set order varies between
    # processes; the bytes written must not
    cases = [(P, 9, 2), (S1, 12, 3)]
    snippet = (
        "import sys\n"
        "from qhk.cache import load_or_compute\n"
        "from qhk.spaces import parse_space\n"
        "for name, degree, cap in (('P', 9, 2), ('S1', 12, 3)):\n"
        "    load_or_compute(sys.argv[1], parse_space(name), degree, cap)\n"
    )
    for seed in ("0", "4242"):
        proc = subprocess.run(
            [sys.executable, "-c", snippet, str(tmp_path / seed)],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    for space, degree, cap in cases:
        files = [cache_path(tmp_path / seed, space, degree, cap).read_bytes() for seed in ("0", "4242")]
        assert files[0] == files[1] == _canonical(space, degree, cap)


_FUZZ_CASES = [(P, 5, 2), (S1, 6, 2), (SigmaCPplus(), 5, 2)]
_FUZZ_SEEDS = {case: _canonical(*case) for case in _FUZZ_CASES}


@st.composite
def _mutated_files(draw):
    """A real file with a few bytes overwritten, cut out or inserted after
    the magic, and its checksum recomputed so that the checksum alone does
    not give the mutation away; some edits change nothing."""
    case = draw(st.sampled_from(_FUZZ_CASES))
    body = bytearray(_FUZZ_SEEDS[case][:-4])
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(4, len(body) - 1))
        edit = draw(st.sampled_from(["byte", "word", "cut", "insert"]))
        if edit == "byte":
            body[pos] = draw(st.integers(0, 255))
        elif edit == "word":
            body[pos : pos + 4] = struct.pack("<I", draw(st.integers(0, 2**32 - 1)))
        elif edit == "cut":
            del body[pos : pos + draw(st.integers(1, 8))]
        else:
            body[pos:pos] = draw(st.binary(min_size=1, max_size=8))
    return case, bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))


@settings(deadline=None, max_examples=600)
@given(_mutated_files())
def test_fuzzed_files_are_kept_exactly_when_canonical(mutated):
    case, data = mutated
    with tempfile.TemporaryDirectory() as cache_dir:
        path = cache_path(cache_dir, *case)
        path.write_bytes(data)
        err = _load(cache_dir, *case)
        assert (err != "") == (data != _FUZZ_SEEDS[case])
        assert path.read_bytes() == _FUZZ_SEEDS[case]
