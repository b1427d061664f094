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
Files are written to a temporary name in the same directory and renamed
into place, so a reader never sees a partial file.

The cache is a determinism check, not a speed-up, and there is no
decoder.  load_or_compute always computes the basis, encodes it, and keeps
the file only when its bytes are exactly that encoding; any other file is
rewritten, with one warning on stderr.  Byte equality is the strictest
reading of the format there is: a file passes only if its magic, version,
descriptor, factors, monomial order and checksum are the canonical ones
and it lists the computed basis.  It is also the cheapest: over P at
degree 20, cap 2, encoding and comparing take about 0.04 s.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from pathlib import Path

from .algebra import Monomial
from .sieve import monomial_basis
from .spaces import REALPROJ, SIGMACP, SPHERE, Space, space_name

MAGIC = b"QHK1"
VERSION = 1

_KIND_CODE = {SPHERE: 0, REALPROJ: 1, SIGMACP: 2}


def basis_to_bytes(space: Space, degree: int, max_len: int, basis: tuple[Monomial, ...]) -> bytes:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<H", VERSION)
    out += struct.pack("<BII", _KIND_CODE[space.kind], space.dim, space.shift)
    out += struct.pack("<III", degree, max_len, len(basis))
    for m in basis:
        out += struct.pack("<I", len(m))
        for w, e in m:
            out += struct.pack("<III", e, w.gen.index, len(w.ops))
            out += struct.pack(f"<{len(w.ops)}I", *w.ops)
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


def cache_path(cache_dir: str | Path, space: Space, degree: int, max_len: int) -> Path:
    tag = space_name(space).replace("^", "_")
    return Path(cache_dir) / f"basis-{tag}-d{degree}-l{max_len}.qhk"


def load_or_compute(cache_dir: str | Path, space: Space, degree: int, max_len: int) -> tuple[Monomial, ...]:
    """The basis, computed; the file is kept only if its bytes are exactly
    the basis's encoding, and is otherwise (re)written, creating the
    directory if needed."""
    basis = monomial_basis(space, degree, max_len)
    data = basis_to_bytes(space, degree, max_len, basis)
    path = cache_path(cache_dir, space, degree, max_len)
    if path.exists():
        if path.read_bytes() == data:
            return basis
        print(f"warning: rewriting cache {path}: not the encoding of this basis", file=sys.stderr)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return basis
