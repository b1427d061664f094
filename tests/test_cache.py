"""Binary persistence: round trips, determinism, corruption handling."""

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhk.cache import (
    CacheError,
    basis_from_bytes,
    basis_to_bytes,
    cache_path,
    load_or_compute,
)
from qhk.sieve import monomial_basis
from qhk.spaces import (
    REALPROJ,
    SPHERE,
    RealProj,
    SigmaCPplus,
    Space,
    Sphere,
    parse_space,
    space_name,
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


@pytest.mark.parametrize("space,degree,cap", CASES)
def test_round_trip(space, degree, cap):
    basis = monomial_basis(space, degree, cap)
    data = basis_to_bytes(space, degree, cap, basis)
    got = basis_from_bytes(data)
    assert got == (space, degree, cap, basis)


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


def test_corrupt_byte_is_rejected_and_recomputed(tmp_path, capsys):
    load_or_compute(tmp_path, P, 5, 2)
    path = cache_path(tmp_path, P, 5, 2)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError):
        basis_from_bytes(bytes(raw))
    got = load_or_compute(tmp_path, P, 5, 2)
    assert got == monomial_basis(P, 5, 2)
    assert "ignoring cache" in capsys.readouterr().err
    # and the bad file was replaced by a sound one
    assert basis_from_bytes(path.read_bytes())[3] == got


def test_bad_magic_truncation_and_version():
    basis = monomial_basis(S1, 5, 2)
    data = basis_to_bytes(S1, 5, 2, basis)
    with pytest.raises(CacheError, match="magic"):
        basis_from_bytes(b"NOPE" + data[4:])
    with pytest.raises(CacheError):
        basis_from_bytes(data[:10])
    bumped = bytearray(data[:-4])
    bumped[4:6] = struct.pack("<H", 99)
    bumped += struct.pack("<I", zlib.crc32(bytes(bumped)))
    with pytest.raises(CacheError, match="version"):
        basis_from_bytes(bytes(bumped))


def test_mismatched_descriptor_recomputes(tmp_path, capsys):
    load_or_compute(tmp_path, P, 4, 2)
    wrong = cache_path(tmp_path, P, 5, 2)
    cache_path(tmp_path, P, 4, 2).rename(wrong)
    got = load_or_compute(tmp_path, P, 5, 2)
    assert got == monomial_basis(P, 5, 2)
    assert "different basis" in capsys.readouterr().err


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


def test_raw_encoding_of_a_canonical_basis_is_the_real_format():
    basis = monomial_basis(P, 3, 2)
    raw = [[(w.ops, w.gen.index, e) for w, e in m.factors] for m in basis]
    data = _encode_raw(P, 3, 2, raw)
    assert data == basis_to_bytes(P, 3, 2, basis)
    assert basis_from_bytes(data) == (P, 3, 2, basis)


def test_reordered_factors_are_rejected():
    # a2*a1 instead of the canonical a1*a2: the CRC is valid, the order is not
    data = _encode_raw(P, 3, 2, [[((), 2, 1), ((), 1, 1)]])
    with pytest.raises(CacheError, match="canonical order"):
        basis_from_bytes(data)


def test_repeated_factor_is_rejected():
    data = _encode_raw(P, 2, 2, [[((), 1, 1), ((), 1, 1)]])
    with pytest.raises(CacheError, match="canonical order"):
        basis_from_bytes(data)


def test_zero_exponent_is_rejected():
    data = _encode_raw(P, 3, 2, [[((), 1, 0), ((), 3, 1)]])
    with pytest.raises(CacheError, match="exponent 0"):
        basis_from_bytes(data)


@pytest.mark.parametrize(
    "space,index",
    [(SigmaCPplus(), 2), (S1, 2), (P, 0)],
)
def test_generator_outside_the_space_is_rejected(space, index):
    data = _encode_raw(space, 2, 2, [[((), index, 1)]])
    with pytest.raises(CacheError, match="no generator"):
        basis_from_bytes(data)


def test_repeated_monomial_is_rejected(tmp_path, capsys):
    # a3 listed twice: every factor is canonical and the CRC is valid
    data = _encode_raw(P, 3, 2, [[((), 3, 1)], [((), 3, 1)]])
    with pytest.raises(CacheError, match="listed twice"):
        basis_from_bytes(data)
    path = cache_path(tmp_path, P, 3, 2)
    path.write_bytes(data)
    assert load_or_compute(tmp_path, P, 3, 2) == monomial_basis(P, 3, 2)
    assert "listed twice" in capsys.readouterr().err
    assert path.read_bytes() == basis_to_bytes(P, 3, 2, monomial_basis(P, 3, 2))


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


def test_basis_out_of_enumeration_order_is_rejected(tmp_path, capsys):
    # every monomial canonical and distinct, the CRC valid, the order reversed
    basis = monomial_basis(P, 4, 2)
    data = basis_to_bytes(P, 4, 2, tuple(reversed(basis)))
    with pytest.raises(CacheError, match="enumeration order"):
        basis_from_bytes(data)
    path = cache_path(tmp_path, P, 4, 2)
    path.write_bytes(data)
    assert load_or_compute(tmp_path, P, 4, 2) == basis
    assert "enumeration order" in capsys.readouterr().err
    assert path.read_bytes() == basis_to_bytes(P, 4, 2, basis)


@pytest.mark.parametrize("listed", [monomial_basis(P, 7, 2)[:-3], ()], ids=["truncated", "empty"])
def test_a_sound_file_listing_another_basis_is_rewritten(tmp_path, capsys, listed):
    # the file is canonical and its checksum is sound, but it lists fewer
    # monomials than the degree has
    path = cache_path(tmp_path, P, 7, 2)
    path.write_bytes(basis_to_bytes(P, 7, 2, listed))
    assert basis_from_bytes(path.read_bytes())[3] == listed
    assert load_or_compute(tmp_path, P, 7, 2) == monomial_basis(P, 7, 2)
    assert "lists another basis" in capsys.readouterr().err
    assert path.read_bytes() == basis_to_bytes(P, 7, 2, monomial_basis(P, 7, 2))


@pytest.mark.parametrize(
    "space", [Space(REALPROJ, dim=7), Space(SPHERE, 2, shift=5), Space(SPHERE, 0)]
)
def test_non_canonical_space_descriptor_is_rejected(space):
    data = _encode_raw(space, 3, 2, [])
    with pytest.raises(CacheError, match="not canonical"):
        basis_from_bytes(data)


_FUZZ_SEEDS = [
    basis_to_bytes(space, degree, 2, monomial_basis(space, degree, 2))
    for space, degree in ((P, 5), (S1, 6), (SigmaCPplus(), 5))
]


@st.composite
def _mutated_files(draw):
    """A real file with a few bytes overwritten, cut out or inserted after
    the magic, and its checksum recomputed so that the mutation reaches the
    decoder."""
    body = bytearray(draw(st.sampled_from(_FUZZ_SEEDS))[:-4])
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
    return bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))


@settings(deadline=None, max_examples=600)
@given(_mutated_files())
def test_fuzzed_files_decode_canonically_or_raise_cache_error(data):
    try:
        space, degree, cap, basis = basis_from_bytes(data)
    except CacheError:
        return
    assert space == parse_space(space_name(space))
    assert basis_to_bytes(space, degree, cap, basis) == data
