"""Certificates: the line-oriented ASCII text that backs each hemisystem.

Header lines carry the field, the rank, the Gram matrix, the expected
counts, and the generators of the orbit group; then one ``maximal`` line per
member holding its RREF basis matrix in row-major serialization; then the
mask; then ``end``.  The verifier rebuilds the whole geometry from the
header and re-derives every member id from the subspace its matrix spans,
so any basis of a maximal is accepted -- a certificate is a claim, not a
proof, until re-checked.

The member block is written and read ``_CHUNK_LINES`` lines at a time:
``certificate_chunks`` yields it a chunk at a time between the header and
the tail, and both block readers check every byte of a chunk and write its
elements into the one member stack before they read the next.
"""

from __future__ import annotations

import functools
import re
import warnings
import weakref
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .gf import Field, field_make
from .groups import embed_w_block
from .hemi import Prepared
from .linform import BadMatrix, format_matrices, format_matrix, parse_matrices
from .orbits import ActionEscape
from .quadric import QuadricModel

CERT_MAGIC = "hemisystem-certificate"
CERT_VERSION = 1
_MEMBER = "maximal "
# member lines per chunk, for the writer and both block readers alike
_CHUNK_LINES = 4096
# the header text of each preparation, written on its first certificate; a
# preparation equals only itself, and its entry goes when it does
_HEADERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class ParseError(ValueError):
    """The certificate file (or a flag value) is not well-formed."""


class ModelMismatch(ValueError):
    """A certificate header disagrees with the recomputed geometry."""


def parse_mask(text: str) -> int:
    s = text.strip().lower()
    if s.startswith("0x"):
        s = s[2:]
    if not s:
        raise ParseError("mask is empty")
    # int(s, 16) alone would also take a sign and underscores
    if not re.fullmatch("[0-9a-f]+", s):
        raise ParseError(f"mask {text!r} is not hexadecimal")
    return int(s, 16)


def parse_int(text: str, what: str) -> int:
    """An optional '-' and ASCII digits; int() alone would also take a '+',
    spaces, underscores and the digits of other scripts."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"{what} {text!r} is not an integer")
    return int(text)


def parse_modulus(text: str) -> tuple:
    try:
        return tuple(parse_int(t, "coefficient") for t in text.split(","))
    except ParseError:
        raise ParseError(
            f"modulus {text!r} must be comma-separated integers (low degree first)"
        ) from None


# ---------------------------------------------------------------------------
# the text


def _header(prep: Prepared) -> str:
    """The header lines of every certificate of a preparation, from the
    magic line to the generators; a pure function of the preparation, so
    written once for each and kept in ``_HEADERS``."""
    text = _HEADERS.get(prep)
    if text is not None:
        return text
    F = prep.field
    split = prep.report.split
    lines = [f"{CERT_MAGIC} {CERT_VERSION}"]
    lines.append(f"field {F.p} {F.k} {','.join(str(c) for c in F.modulus)}")
    lines.append(f"rank {prep.model.d}")
    lines.append(f"gram {format_matrix(F, prep.model.space.gram)}")
    lines.append(f"counts {prep.qm.num_points} {prep.qm.num_maximals}")
    lines.append(f"degree {prep.qm.target_degree}")
    lines.append(f"orbits {len(split.pairs)} {split.partition.n_orbits}")
    gens = embed_w_block(F, prep.b.generators, prep.model.dim)
    lines += [f"generator {s}" for s in format_matrices(F, gens)]
    text = _HEADERS[prep] = "\n".join(lines) + "\n"
    return text


def certificate_chunks(prep: Prepared, mask: int, member_ids: np.ndarray) -> Iterator[str]:
    """Serialize one verified hemisystem as a line-oriented certificate, in
    consecutive pieces: the header, the member block ``_CHUNK_LINES`` lines
    at a time, then the mask and ``end``.  The header is written on a
    preparation's first certificate and reused for the rest (``_header``),
    so a mask costs only its members."""
    F = prep.field
    yield _header(prep)
    ids = np.asarray(member_ids, dtype=np.int64)
    for start in range(0, ids.size, _CHUNK_LINES):
        chunk = np.take(prep.qm.maximal_bases, ids[start:start + _CHUNK_LINES], axis=0)
        yield format_matrix_block(F, chunk)
    yield f"mask {mask:x} {prep.report.split.m}\nend\n"


def certificate_text(prep: Prepared, mask: int, member_ids: np.ndarray) -> str:
    """The certificate of ``certificate_chunks`` as one string."""
    return "".join(certificate_chunks(prep, mask, member_ids))


@dataclass
class Certificate:
    """Parsed form of a certificate file; nothing in it is trusted yet."""

    field: Field
    d: int
    gram: np.ndarray
    num_points: int
    num_maximals: int
    degree: int
    m: int
    n_b: int
    generators: np.ndarray  # (g, 2d + 1, 2d + 1) stack of the orbit group's generators
    members: np.ndarray  # (N, d, 2d + 1) stack of the claimed members' bases
    mask: int


def _numbered(text: str, first: int = 1) -> list[tuple[int, str]]:
    """The nonblank lines of a text, stripped, each with its line number in the file."""
    return [(no, ln) for no, ln in enumerate(map(str.strip, text.splitlines()), first) if ln]


def parse_certificate(text: str) -> Certificate:
    """Parse certificate text; raise ParseError on any structural defect.

    Non-ASCII text is refused at once, by its first such line.  The member
    block, from the first ``maximal`` line to the last ``mask`` line, is
    read by ``parse_matrix_block`` from a view of the text encoded once, and
    the line parser reads the lines around it.  A block that is not
    canonical, and any defect, send the whole text through the line parser,
    so every error message is the line parser's.
    """
    if not text.isascii():
        no = next(no for no, ln in enumerate(text.splitlines(), 1) if not ln.isascii())
        raise ParseError(f"line {no}: non-ASCII character")
    head = text.find("\n" + _MEMBER) + 1
    tail = text.rfind("\nmask ", head) + 1 if head else 0
    if tail:
        block = np.frombuffer(text.encode("ascii"), dtype=np.uint8)[head:tail]
        try:
            cert = _parse_lines(text[:head], block, text[tail:])
        except ParseError:
            cert = None
        if cert is not None:
            return cert
    return _parse_lines(text)


def _parse_lines(head: str, block: np.ndarray | None = None, tail: str = "") -> Certificate | None:
    """Parse a certificate line by line, or, given the bytes of a member
    block, the lines around it; None when that block (or what precedes it)
    is not canonical."""
    lines = _numbered(head)
    if not lines:
        raise ParseError("empty certificate")

    def split_line(i: int, tag: str, n_fields: int) -> list[str]:
        if i >= len(lines):
            raise ParseError(f"truncated certificate: missing {tag!r} line")
        no, line = lines[i]
        parts = line.split()
        if parts[0] != tag:
            raise ParseError(f"line {no}: expected {tag!r}, got {parts[0]!r}")
        if len(parts) != n_fields + 1:
            raise ParseError(f"line {no}: {_takes(tag, n_fields)}")
        return parts[1:]

    magic = split_line(0, CERT_MAGIC, 1)
    if parse_int(magic[0], "version") != CERT_VERSION:
        raise ParseError(f"unsupported certificate version {magic[0]}")

    p_s, k_s, mod_s = split_line(1, "field", 3)
    p, k = parse_int(p_s, "p"), parse_int(k_s, "k")
    modulus = parse_modulus(mod_s)
    try:
        F = field_make(p, k, modulus)
    except ValueError as exc:
        raise ParseError(f"bad field header: {exc}") from None

    d = parse_int(split_line(2, "rank", 1)[0], "rank")
    if d < 2:
        raise ParseError(f"rank {d} out of range")
    dim = 2 * d + 1

    def matrices(tokens: list[str], rows: int, what: str, first: int | None = None) -> np.ndarray:
        """Parse matrices; a misshapen one of those read from lines[first:] is
        named by its line in the file."""
        try:
            return parse_matrices(F, tokens, rows, dim)
        except ValueError as exc:
            named = first is not None and isinstance(exc, BadMatrix)
            at = f"line {lines[first + exc.index][0]}: " if named else ""
            raise ParseError(f"{at}bad {what} matrix: {exc}") from None

    gram = matrices(split_line(3, "gram", 1), dim, "gram", 3)[0]
    np_s, nm_s = split_line(4, "counts", 2)
    num_points, num_maximals = parse_int(np_s, "points"), parse_int(nm_s, "maximals")
    degree = parse_int(split_line(5, "degree", 1)[0], "degree")
    m_s, nb_s = split_line(6, "orbits", 2)
    m, n_b = parse_int(m_s, "m"), parse_int(nb_s, "n_b")

    def tagged(start: int, tag: str, rows: int) -> tuple[int, np.ndarray]:
        """The matrices, one per field, of the consecutive lines from ``start`` with this tag."""
        i = start
        while i < len(lines) and lines[i][1].startswith(tag + " "):
            i += 1
        fields = " ".join(ln for _, ln in lines[start:i]).split()
        if len(fields) != 2 * (i - start):
            bad = next(no for no, ln in lines[start:i] if len(ln.split()) != 2)
            raise ParseError(f"line {bad}: {_takes(tag, 1)}")
        return i, matrices(fields[1::2], rows, tag, start)

    i, generators = tagged(7, "generator", dim)
    if block is None:
        i, members = tagged(i, "maximal", d)
        if not len(members):
            raise ParseError("certificate lists no maximals")
    else:
        # the generators must end the head, as the member block follows them
        members = parse_matrix_block(F, block, d) if i == len(lines) else None
        if members is None:
            return None
        lines += _numbered(tail, len(head.splitlines()) + len(members) + 1)

    mask_s, mbits_s = split_line(i, "mask", 2)
    mask = parse_mask(mask_s)
    if parse_int(mbits_s, "mask width") != m:
        raise ParseError("mask width disagrees with the orbits header")
    if mask >= 2**m:
        raise ParseError(f"mask has more than {m} bits")
    i += 1
    split_line(i, "end", 0)
    if i + 1 != len(lines):
        raise ParseError("trailing lines after 'end'")
    return Certificate(
        F, d, gram, num_points, num_maximals, degree, m, n_b, generators, members, mask
    )


def _takes(tag: str, n_fields: int) -> str:
    return f"{tag!r} takes {n_fields} field{'' if n_fields == 1 else 's'}"


# ---------------------------------------------------------------------------
# checks against the recomputed geometry


def check_certificate_header(cert: Certificate, qm: QuadricModel) -> None:
    """Raise ModelMismatch when the header disagrees with the geometry."""
    F = cert.field
    if F != qm.field:
        raise ModelMismatch(f"field header {F!r} differs from the model's {qm.field!r}")
    gram = qm.model.space.gram
    if not np.array_equal(cert.gram, gram):
        raise ModelMismatch("Gram header differs from the standard-basis form")
    if cert.num_points != qm.num_points or cert.num_maximals != qm.num_maximals:
        raise ModelMismatch(
            f"counts header {cert.num_points}/{cert.num_maximals} differ from "
            f"recomputed {qm.num_points}/{qm.num_maximals}"
        )
    if cert.degree != qm.target_degree:
        raise ModelMismatch(
            f"degree header {cert.degree} differs from (t+1)/2 = {qm.target_degree}"
        )
    if cert.n_b != 2 * cert.m:
        raise ModelMismatch("orbits header violates n_b = 2m")
    moved = (qm.model.space.restrict_gram(cert.generators) != gram).any(axis=(1, 2))
    if moved.any():
        raise ModelMismatch(f"generator {np.argmax(moved)} is not an isometry of the form")


def resolve_members(cert: Certificate, qm: QuadricModel):
    """Re-derive member ids from the subspaces their matrices span.

    Returns (ids, None) on success or (None, reason) when some claimed
    member is not a maximal of the quadric or appears twice.  Ids that
    strictly increase, as a canonical certificate lists them, hold no
    duplicate; only others are counted for one.
    """
    try:
        ids = qm.maximal_ids(cert.members)
    except ActionEscape as exc:
        return None, f"member {exc.index} is not a maximal of the quadric"
    increasing = (ids[1:] > ids[:-1]).all()
    if not increasing and np.bincount(ids, minlength=qm.num_maximals).max() > 1:
        return None, "duplicate members"
    return ids, None


# ---------------------------------------------------------------------------
# the member block as bytes


@functools.lru_cache(maxsize=None)
def _line_layout(F: Field, d: int) -> tuple[np.ndarray, ...]:
    """Built once per field and rank, read only: the ``maximal`` line of the
    zero matrix as bytes; the most that line XOR a canonical line takes at
    each byte when p < 10 (p - 1 at a digit, else 0); and, for p >= 10, the
    line's non-digit bytes and whether a coefficient precedes each.  When
    p < 10 coefficient i of entry j is byte len("maximal ") + 2 (j k + i).
    """
    zero = format_matrix(F, np.zeros((d, 2 * d + 1), dtype=np.uint8))
    line = np.frombuffer(f"{_MEMBER}{zero}\n".encode("ascii"), dtype=np.uint8)
    digit = line == ord("0")
    at = np.flatnonzero(~digit)
    # the byte before the first is the previous line's newline
    layout = line, np.where(digit, F.p - 1, 0).astype(np.uint8), line[at], digit[at - 1]
    for a in layout[1:]:
        a.setflags(write=False)
    return layout


def format_matrix_block(F: Field, stack: np.ndarray) -> str:
    """One ``maximal`` line per basis of an (N, d, 2d+1) stack, in
    ``format_matrices``' spelling.  When p < 10 they are written into one
    byte array from ``_line_layout``, coefficient i of element a being
    floor(a / p^i) mod p: coefficient 0 is a mod p and the top one
    floor(a / p^(k-1)), so at k = 1 the digit is the element itself; the
    text is decoded from the array's own buffer, with no bytes copy.
    Otherwise they are joined from ``format_matrices``.
    """
    stack = np.asarray(stack, dtype=np.uint8)
    N, d, _ = stack.shape
    p, k = F.p, F.k
    if p >= 10:
        return "".join(f"{_MEMBER}{s}\n" for s in format_matrices(F, stack))
    line = _line_layout(F, d)[0]
    out = np.empty((N, line.size), dtype=np.uint8)
    out[:] = line
    flat = stack.reshape(N, -1)
    for i in range(k):
        c = flat // p**i if i else flat
        if i < k - 1:
            # c mod p; NumPy's uint8 % by a scalar is some 20x slower than //
            c = c - c // p * p
        np.add(c, ord("0"), out=out[:, len(_MEMBER) + 2 * i::2 * k])
    return str(out, "ascii")


def parse_matrix_block(F: Field, buf: np.ndarray, d: int) -> np.ndarray | None:
    """The (N, d, 2d+1) stack of ASCII bytes as ``format_matrix_block``
    writes them, or None unless they are one or more canonical lines of
    rank d.  ``_parse_fixed_block`` reads them when p < 10, and
    ``_parse_wide_block`` otherwise, each ``_CHUNK_LINES`` lines at a time.
    """
    read = _parse_wide_block if F.p >= 10 else _parse_fixed_block
    out = read(F, buf, d)
    return None if out is None else out.reshape(len(out), d, 2 * d + 1)


def _elements(coeffs: np.ndarray, p: int, k: int, out: np.ndarray) -> None:
    """Write into ``out`` the rows of elements sum c_i p^i from rows of
    coefficients, where coefficient i of entry j is column j k + i."""
    out[:] = coeffs[:, k - 1::k]
    for i in range(k - 2, -1, -1):
        out *= p
        out += coeffs[:, i::k]


def _parse_fixed_block(F: Field, buf: np.ndarray, d: int) -> np.ndarray | None:
    """The elements of canonical lines at p < 10, one row of d·(2d+1) per
    line, or None.  Every line has the ``_line_layout`` line's length; each
    chunk of lines is XORed with that line and checked against its bound,
    so a wrong separator or digit gives None.
    """
    line, top, _, _ = _line_layout(F, d)
    if not buf.size or buf.size % line.size:
        return None
    rows = buf.reshape(-1, line.size)
    out = np.empty((len(rows), d * (2 * d + 1)), dtype=np.uint8)
    # one buffer for the XOR of every chunk
    work = np.empty_like(rows[:_CHUNK_LINES])
    for start in range(0, len(rows), _CHUNK_LINES):
        chunk = rows[start:start + _CHUNK_LINES]
        bits = np.bitwise_xor(chunk, line, out=work[:len(chunk)])
        _elements(bits[:, len(_MEMBER)::2], F.p, F.k, out[start:start + len(chunk)])
        # a digit XOR '0' is its value, and any other byte XOR '0' is 10 or
        # more; the bound is checked in place, as a bool array would be a
        # second copy of the chunk
        if np.greater(bits, top, out=bits).any():
            return None
    return out


def _parse_wide_block(F: Field, buf: np.ndarray, d: int) -> np.ndarray | None:
    """The elements of canonical lines at p >= 10, one row of d·(2d+1) per
    line, or None.

    A chunk's non-digit bytes must be the layout's, line by line, and its
    digit runs must stand exactly where the layout has a coefficient: one
    to as many digits as p - 1 has, with no leading zero unless the run is
    a lone 0.  ``np.fromstring`` then reads the runs, every other byte
    mapped to a space, and there must be one value below p per coefficient.
    The masks hold a byte per byte of the chunk, and its non-digits 8 each.
    """
    if not buf.size or buf[-1] != ord("\n"):
        return None
    _, _, want, has_coeff = _line_layout(F, d)
    width, cells = len(str(F.p - 1)), d * (2 * d + 1)
    n = cells * F.k
    # the line ends, found 16 MB at a time so that the mask stays small
    window = 1 << 24
    ends = np.concatenate(
        [np.flatnonzero(buf[s:s + window] == ord("\n")) + s for s in range(0, buf.size, window)]
    )
    out = np.empty((ends.size, cells), dtype=np.uint8)
    start = 0
    for first in range(0, ends.size, _CHUNK_LINES):
        last = min(first + _CHUNK_LINES, ends.size)
        chunk = buf[start:ends[last - 1] + 1]
        start = ends[last - 1] + 1
        lines = last - first
        # bytes below '0' wrap around to 208 and up
        digit = chunk - np.uint8(ord("0")) < 10
        # whether the byte before is a digit; the one before the chunk is a newline
        after_digit = np.empty_like(digit)
        after_digit[0], after_digit[1:] = False, digit[:-1]
        other = np.flatnonzero(~digit)
        seen = chunk[other]
        if seen.size != lines * want.size or (seen.reshape(lines, -1) != want).any():
            return None
        if (after_digit[other].reshape(lines, -1) != has_coeff).any():
            return None
        # a run of more than ``width`` digits, or one led by a 0
        long = digit[width:].copy()
        for i in range(width):
            long &= digit[i:i - width]
        if long.any() or (digit[1:] & ~after_digit[:-1] & (chunk[:-1] == ord("0"))).any():
            return None
        spaced = chunk.copy()
        spaced[other] = ord(" ")
        try:
            with warnings.catch_warnings():
                # older NumPy warns on unmatched data and returns what it read
                warnings.simplefilter("error", DeprecationWarning)
                values = np.fromstring(spaced.tobytes(), dtype=np.uint16, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
        if values.size != lines * n or values.max() >= F.p:
            return None
        _elements(values.reshape(lines, n), F.p, F.k, out[first:last])
    return out
