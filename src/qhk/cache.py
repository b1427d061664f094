"""Versioned, checksummed binary persistence for monomial bases.

Layout, all little-endian:

    magic  b"QHK1"
    u16    format version (currently 1)
    u8     space kind    (0 sphere, 1 projective, 2 suspended-CP)
    u32    space dim
    u32    space shift
    u32    degree
    u32    length cap
    u32    monomial count
    per monomial:  u32 factor count, then per factor
                   u32 exponent, u32 generator index,
                   u32 word length, u32 * len operation entries
    u32    crc32 of everything above

The encoding of a basis is canonical (the enumeration order of
monomial_basis, factors in their stored ascending order), so writing the
same basis twice gives identical bytes; the round-trip test relies on it.
Decoding accepts only that canonical form: every generator lives on the
file's space, the space descriptor is the canonical one of its name,
every exponent is positive, the factors of a monomial are distinct and
ascending by word order, and the monomials are distinct and in the
enumeration order of monomial_basis (checked by its order key).  Files
are written to a temporary name in the same directory and renamed into
place, so a reader never sees a partial file.

The cache is a determinism check, not a speed-up: computing a basis costs
less than decoding its file (over P at degree 20, cap 2, about 0.07 s
against 0.5 s).  load_or_compute always computes the basis and accepts a
file only when it lists exactly that basis; any other file is ignored
with a warning and rewritten.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from pathlib import Path

from .algebra import Monomial, mono_from_pairs
from .sieve import basis_order_key, monomial_basis
from .spaces import (
    REALPROJ,
    SIGMACP,
    SPHERE,
    Generator,
    Space,
    gen_degree,
    generators,
    parse_space,
    space_name,
)
from .words import AdmissibleGen

MAGIC = b"QHK1"
VERSION = 1

_KIND_CODE = {SPHERE: 0, REALPROJ: 1, SIGMACP: 2}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


class CacheError(ValueError):
    pass


def basis_to_bytes(space: Space, degree: int, max_len: int, basis: tuple[Monomial, ...]) -> bytes:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<H", VERSION)
    out += struct.pack("<BII", _KIND_CODE[space.kind], space.dim, space.shift)
    out += struct.pack("<III", degree, max_len, len(basis))
    for m in basis:
        out += struct.pack("<I", len(m.factors))
        for w, e in m.factors:
            out += struct.pack("<III", e, w.gen.index, len(w.ops))
            out += struct.pack(f"<{len(w.ops)}I", *w.ops)
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


def basis_from_bytes(data: bytes) -> tuple[Space, int, int, tuple[Monomial, ...]]:
    if len(data) < 4 or data[:4] != MAGIC:
        raise CacheError("bad magic")
    if len(data) < 4 + 2 + 9 + 12 + 4:
        raise CacheError("truncated header")
    (stored_crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(data[:-4]) != stored_crc:
        raise CacheError("checksum mismatch")
    pos = 4
    (version,) = struct.unpack_from("<H", data, pos)
    pos += 2
    if version != VERSION:
        raise CacheError(f"version {version} not supported")
    kind_code, dim, shift = struct.unpack_from("<BII", data, pos)
    pos += 9
    if kind_code not in _CODE_KIND:
        raise CacheError(f"unknown space kind {kind_code}")
    space = Space(_CODE_KIND[kind_code], dim, shift)
    try:
        canonical = space == parse_space(space_name(space))
    except ValueError:
        canonical = False
    if not canonical:
        raise CacheError(f"space descriptor {space} is not canonical")
    degree, max_len, count = struct.unpack_from("<III", data, pos)
    pos += 12
    body_end = len(data) - 4
    basis = []
    try:
        for _ in range(count):
            (nfac,) = struct.unpack_from("<I", data, pos)
            pos += 4
            factors = []
            for _ in range(nfac):
                e, index, wordlen, *_ = struct.unpack_from("<III", data, pos)
                pos += 12
                ops = struct.unpack_from(f"<{wordlen}I", data, pos)
                pos += 4 * wordlen
                gen = Generator(space, index)
                if generators(space, gen_degree(gen)) != (gen,):
                    raise CacheError(f"no generator of index {index} on {space_name(space)}")
                if e < 1:
                    raise CacheError(f"exponent {e} in a stored factor")
                factors.append((AdmissibleGen(tuple(ops), gen), e))
            m = mono_from_pairs(factors)
            if m.factors != tuple(factors):
                raise CacheError("factors out of canonical order")
            if m.degree != degree:
                raise CacheError(f"monomial of degree {m.degree} in a degree-{degree} file")
            basis.append(m)
    except (struct.error, ValueError) as err:
        raise CacheError(str(err)) from err
    if pos != body_end:
        raise CacheError("trailing bytes before checksum")
    keys = [basis_order_key(m) for m in basis]
    for earlier, later in zip(keys, keys[1:]):
        if earlier == later:
            raise CacheError("a monomial is listed twice")
        if earlier < later:
            raise CacheError("monomials out of enumeration order")
    return space, degree, max_len, tuple(basis)


def cache_path(cache_dir: str | Path, space: Space, degree: int, max_len: int) -> Path:
    tag = space_name(space).replace("^", "_")
    return Path(cache_dir) / f"basis-{tag}-d{degree}-l{max_len}.qhk"


def load_or_compute(cache_dir: str | Path, space: Space, degree: int, max_len: int) -> tuple[Monomial, ...]:
    """The basis, computed; the file is kept only if it lists exactly that
    basis, and is otherwise (re)written, creating the directory if needed."""
    basis = monomial_basis(space, degree, max_len)
    path = cache_path(cache_dir, space, degree, max_len)
    if path.exists():
        try:
            cspace, cdeg, clen, cbasis = basis_from_bytes(path.read_bytes())
            if (cspace, cdeg, clen) != (space, degree, max_len):
                raise CacheError("file describes a different basis")
            if cbasis != basis:
                raise CacheError("file lists another basis")
            return basis
        except CacheError as err:
            print(f"warning: ignoring cache {path}: {err}", file=sys.stderr)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(basis_to_bytes(space, degree, max_len, basis))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return basis
