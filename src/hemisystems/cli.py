"""Command-line surface: stats, orbits, construct, verify, selftest.

Exit codes form a stable contract for CI:

* 0 -- verified / success,
* 1 -- rejected (a certificate or construction failed verification),
* 2 -- usage or parse error (bad flags, malformed file, header mismatch).

Certificates are line-oriented text.  Header lines carry the field, the
rank, the Gram matrix, the expected counts, and the generators of the
orbit group; then one ``maximal`` line per member holding its RREF basis
matrix in row-major serialization; then the mask; then ``end``.  The
verifier rebuilds the whole geometry from the header and re-derives every
member id from the subspace its matrix spans, so any basis of a maximal is
accepted -- a certificate is a claim, not a proof, until re-checked.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass

import numpy as np

from .gf import Field, field_make
from .groups import embed_w_block, w_vector_orbits
from .hemi import Prepared, assemble, prepare, verify_hemisystem
from .linform import (
    format_matrices,
    format_matrix,
    format_matrix_block,
    parse_matrices,
    parse_matrix_block,
    standard_model,
    witt_index,
)
from .orbits import ActionEscape, partition
from .quadric import QuadricModel, maximal_count, point_count, require_memory

CERT_MAGIC = "hemisystem-certificate"
CERT_VERSION = 1


class ParseError(ValueError):
    """The certificate file (or a flag value) is not well-formed."""


class ModelMismatch(ValueError):
    """A certificate header disagrees with the recomputed geometry."""


class VerificationFailed(RuntimeError):
    """A freshly assembled hemisystem failed its own verification."""


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs shared by every command."""

    p: int = 3
    k: int = 1
    modulus: tuple | None = None
    d: int = 2
    mask: str = "0"
    out: str = "-"
    format: str = "text"
    cap: int = 2**16
    path: str | None = None

    def make_field(self) -> Field:
        return field_make(self.p, self.k, self.modulus)


def _parse_mask(text: str) -> int:
    s = text.strip().lower()
    if s.startswith("0x"):
        s = s[2:]
    if not s:
        raise ParseError("mask is empty")
    # int(s, 16) alone would also take a sign and underscores
    if not re.fullmatch("[0-9a-f]+", s):
        raise ParseError(f"mask {text!r} is not hexadecimal")
    return int(s, 16)


def _parse_modulus(text: str) -> tuple:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ParseError(
            f"modulus {text!r} must be comma-separated integers (low degree first)"
        ) from None


# ---------------------------------------------------------------------------
# certificate serialization


def certificate_text(prep: Prepared, mask: int, member_ids: np.ndarray) -> str:
    """Serialize one verified hemisystem as a line-oriented certificate."""
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
    members = prep.qm.maximal_bases[np.asarray(member_ids, dtype=np.int64)]
    block = format_matrix_block(F, members, "maximal ")
    return "\n".join(lines) + "\n" + block + f"mask {mask:x} {len(split.pairs)}\nend\n"


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

    The member block, from the first ``maximal`` line to the ``mask`` line,
    is sliced out once and read as bytes when it is canonical
    (``linform.parse_matrix_block``); the line parser then reads only the
    lines around it.  Any other text, and any defect, goes through the line
    parser alone, so every error message is the line parser's.
    """
    head = text.find("\nmaximal ") + 1
    tail = text.find("\nmask ", head) + 1 if head else 0
    if tail:
        try:
            cert = _parse_lines(text[:head], text[head:tail], text[tail:])
        except ParseError:
            cert = None
        if cert is not None:
            return cert
    return _parse_lines(text)


def _parse_lines(head: str, block: str | None = None, tail: str = "") -> Certificate | None:
    """Parse a certificate line by line, or, given a member block, the lines
    around it; None when that block (or what precedes it) is not canonical."""
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

    def as_int(token: str, what: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise ParseError(f"{what} {token!r} is not an integer") from None

    magic = split_line(0, CERT_MAGIC, 1)
    if as_int(magic[0], "version") != CERT_VERSION:
        raise ParseError(f"unsupported certificate version {magic[0]}")

    p_s, k_s, mod_s = split_line(1, "field", 3)
    p, k = as_int(p_s, "p"), as_int(k_s, "k")
    modulus = _parse_modulus(mod_s)
    try:
        F = field_make(p, k, modulus)
    except ValueError as exc:
        raise ParseError(f"bad field header: {exc}") from None

    d = as_int(split_line(2, "rank", 1)[0], "rank")
    if d < 2:
        raise ParseError(f"rank {d} out of range")
    dim = 2 * d + 1

    def matrices(tokens: list[str], rows: int, what: str) -> np.ndarray:
        try:
            return parse_matrices(F, tokens, rows, dim)
        except ValueError as exc:
            raise ParseError(f"bad {what} matrix: {exc}") from None

    gram = matrices(split_line(3, "gram", 1), dim, "gram")[0]
    np_s, nm_s = split_line(4, "counts", 2)
    num_points, num_maximals = as_int(np_s, "points"), as_int(nm_s, "maximals")
    degree = as_int(split_line(5, "degree", 1)[0], "degree")
    m_s, nb_s = split_line(6, "orbits", 2)
    m, n_b = as_int(m_s, "m"), as_int(nb_s, "n_b")

    def tagged(start: int, tag: str) -> tuple[int, list[str]]:
        """The single field of each consecutive line from ``start`` with this tag."""
        i = start
        while i < len(lines) and lines[i][1].startswith(tag + " "):
            i += 1
        fields = " ".join(ln for _, ln in lines[start:i]).split()
        if len(fields) != 2 * (i - start):
            bad = next(no for no, ln in lines[start:i] if len(ln.split()) != 2)
            raise ParseError(f"line {bad}: {_takes(tag, 1)}")
        return i, fields[1::2]

    i, gen_tokens = tagged(7, "generator")
    generators = matrices(gen_tokens, dim, "generator")
    if block is None:
        i, member_tokens = tagged(i, "maximal")
        if not member_tokens:
            raise ParseError("certificate lists no maximals")
        members = matrices(member_tokens, d, "maximal")
    else:
        # the generators must end the head, as the member block follows them
        members = parse_matrix_block(F, block, d, dim, "maximal ") if i == len(lines) else None
        if members is None:
            return None
        lines += _numbered(tail, len(head.splitlines()) + len(members) + 1)

    mask_s, mbits_s = split_line(i, "mask", 2)
    mask = _parse_mask(mask_s)
    if as_int(mbits_s, "mask width") != m:
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
    member is not a maximal of the quadric or appears twice.
    """
    try:
        ids = qm.maximal_ids(cert.members)
    except ActionEscape as exc:
        return None, f"member {exc.index} is not a maximal of the quadric"
    if np.bincount(ids, minlength=qm.num_maximals).max() > 1:
        return None, "duplicate members"
    return ids, None


# ---------------------------------------------------------------------------
# output helpers


def _emit(cfg: RunConfig, payload: dict, text_lines: list[str]) -> None:
    if cfg.format == "structured":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _histogram_text(histogram) -> str:
    return " ".join(f"{deg}:{count}" for deg, count in histogram) or "(empty)"


# ---------------------------------------------------------------------------
# commands


def cmd_stats(cfg: RunConfig) -> int:
    F = cfg.make_field()
    prep = prepare(F, cfg.d)
    qm, rep = prep.qm, prep.report
    m = len(rep.split.pairs)
    payload = {
        "command": "stats",
        "q": F.q,
        "p": F.p,
        "k": F.k,
        "d": cfg.d,
        "points": qm.num_points,
        "maximals": qm.num_maximals,
        "s_plus_1": qm.s1,
        "t_plus_1": qm.t1,
        "target_degree": qm.target_degree,
        "b_order": rep.b_order,
        "a_order": rep.a_order,
        "m": m,
        "n_b": rep.n_b_maximal_orbits,
    }
    _emit(
        cfg,
        payload,
        [
            f"q {F.q} (p {F.p}, k {F.k})  d {cfg.d}",
            f"points {qm.num_points}",
            f"maximals {qm.num_maximals}",
            f"s+1 {qm.s1}",
            f"t+1 {qm.t1}",
            f"(t+1)/2 {qm.target_degree}",
            f"|B| {rep.b_order}",
            f"|A| {rep.a_order}",
            f"m {m}",
            f"n_b {rep.n_b_maximal_orbits}",
        ],
    )
    return 0


def cmd_orbits(cfg: RunConfig) -> int:
    F = cfg.make_field()
    prep = prepare(F, cfg.d)
    rep = prep.report
    if not rep.ok:
        print(f"error: orbit split unavailable: {rep.witness}", file=sys.stderr)
        return 1
    split = rep.split
    part = split.partition
    m = len(split.pairs)
    shown = split.pairs[: cfg.cap]
    pair_rows = [
        {
            "pair": i,
            "low": int(lo),
            "high": int(hi),
            "size": int(part.sizes[lo]),
            "rep_low": int(part.reps[lo]),
            "rep_high": int(part.reps[hi]),
        }
        for i, (lo, hi) in enumerate(shown)
    ]
    payload = {
        "command": "orbits",
        "q": F.q,
        "d": cfg.d,
        "point_orbits": prep.actions.b_point_part.n_orbits,
        "m": m,
        "n_b": part.n_orbits,
        "family_size": str(2**m),
        "pairs": pair_rows,
    }
    lines = [
        f"q {F.q}  d {cfg.d}",
        f"point-orbits {prep.actions.b_point_part.n_orbits} (same under B and A)",
        f"maximal-orbits {part.n_orbits} under B, {m} under A",
        f"family 2^{m} = {2 ** m}",
    ]
    lines += [
        f"pair {r['pair']}: orbits {r['low']},{r['high']} size {r['size']}"
        f" reps {r['rep_low']},{r['rep_high']}"
        for r in pair_rows
    ]
    if m > len(shown):
        lines.append(f"... ({m - len(shown)} more pairs beyond --cap)")
    _emit(cfg, payload, lines)
    return 0


def cmd_construct(cfg: RunConfig) -> int:
    F = cfg.make_field()
    mask = _parse_mask(cfg.mask)
    prep = prepare(F, cfg.d)
    rep = prep.report
    if not rep.ok:
        raise VerificationFailed(f"orbit-splitting hypotheses failed: {rep.witness}")
    ids = assemble(rep.split, mask)
    verdict = verify_hemisystem(prep.qm, ids)
    if not verdict.ok:
        raise VerificationFailed(
            f"assembled set failed verification; histogram "
            f"{_histogram_text(verdict.histogram)}"
        )
    text = certificate_text(prep, mask, ids)
    summary = {
        "command": "construct",
        "q": F.q,
        "d": cfg.d,
        "mask": f"{mask:x}",
        "m": len(rep.split.pairs),
        "size": int(ids.size),
        "target_degree": prep.qm.target_degree,
        "ok": True,
        "out": cfg.out,
    }
    if cfg.out == "-":
        if cfg.format == "structured":
            summary["certificate"] = text
            print(json.dumps(summary, sort_keys=True))
        else:
            sys.stdout.write(text)
        return 0
    try:
        with open(cfg.out, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write certificate: {exc}") from None
    _emit(
        cfg,
        summary,
        [
            f"verified: {ids.size} maximals, degree {prep.qm.target_degree}, "
            f"mask {mask:x} of {len(rep.split.pairs)} bits -> {cfg.out}"
        ],
    )
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.path in (None, "-"):
        text = sys.stdin.read()
    else:
        try:
            with open(cfg.path, "r", encoding="ascii") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read certificate: {exc}") from None
    cert = parse_certificate(text)
    require_memory(cert.field.q, cert.d)
    qm = QuadricModel(standard_model(cert.field, cert.d))
    check_certificate_header(cert, qm)
    ids, reason = resolve_members(cert, qm)
    if ids is None:
        payload = {
            "command": "verify",
            "ok": False,
            "reason": reason,
            "size": len(cert.members),
            "expected_size": qm.num_maximals // 2,
        }
        _emit(cfg, payload, [f"rejected: {reason}"])
        return 1
    verdict = verify_hemisystem(qm, ids)
    payload = {
        "command": "verify",
        "ok": verdict.ok,
        "size": verdict.size,
        "expected_size": verdict.expected_size,
        "target_degree": verdict.target_degree,
        "histogram": [[int(a), int(b)] for a, b in verdict.histogram],
        "method": verdict.method,
    }
    if verdict.ok:
        _emit(
            cfg,
            payload,
            [
                f"verified: {verdict.size} maximals, every point on exactly "
                f"{verdict.target_degree}"
            ],
        )
        return 0
    _emit(
        cfg,
        payload,
        [
            f"rejected: size {verdict.size} (expected {verdict.expected_size}), "
            f"degree histogram {_histogram_text(verdict.histogram)}"
        ],
    )
    return 1


# ---------------------------------------------------------------------------
# selftest


def _require(ok, what: str) -> None:
    """Raise AssertionError unless ok; unlike assert, this also runs under python -O."""
    if not ok:
        raise AssertionError(what)


def _selftest_checks(cfg: RunConfig):
    """Yield (name, callable) pairs in the canonical order.

    Each callable returns a detail string on success and raises on failure.
    Model and groups are built lazily once and shared by later checks.
    """
    F = cfg.make_field()
    state: dict = {}

    def prep() -> Prepared:
        if "prep" not in state:
            state["prep"] = prepare(F, cfg.d)
        return state["prep"]

    def field_axioms() -> str:
        q = F.q
        idx = np.arange(q, dtype=np.intp)
        A, M = F.add_table.astype(np.intp), F.mul_table.astype(np.intp)
        a, b, c = idx[:, None, None], idx[None, :, None], idx[None, None, :]
        _require(np.array_equal(A, A.T) and np.array_equal(M, M.T), "tables are not symmetric")
        _require(np.array_equal(A[0], idx) and np.array_equal(M[1], idx), "0 or 1 is not neutral")
        _require((M[0] == 0).all(), "0 is not absorbing")
        _require(np.array_equal(A[A[a, b], c], A[a, A[b, c]]), "addition is not associative")
        _require(np.array_equal(M[M[a, b], c], M[a, M[b, c]]), "multiplication is not associative")
        _require(np.array_equal(M[a, A[b, c]], A[M[a, b], M[a, c]]), "distributivity fails")
        _require(all(F.add(x, F.neg(x)) == 0 for x in range(q)), "x + (-x) != 0")
        _require(all(F.mul(x, F.inv(x)) == 1 for x in range(1, q)), "x * x^-1 != 1")
        return f"GF({q}) axioms hold over all {q ** 3} triples"

    def polarization() -> str:
        sp = prep().model.space
        n, q = sp.gram.shape[0], F.q
        rng = np.random.default_rng(0)
        U = rng.integers(0, q, size=(256, n)).astype(np.uint8)
        V = rng.integers(0, q, size=(256, n)).astype(np.uint8)
        for u, v in zip(U, V):
            lhs = sp.beta(u, v)
            rhs = F.add(sp.kappa(F.add_table[u, v]), F.neg(F.add(sp.kappa(u), sp.kappa(v))))
            _require(lhs == rhs, f"polarization fails at u={u.tolist()}, v={v.tolist()}")
        for lam in range(q):
            for v in V[:16]:
                scaled = sp.kappa(F.mul_table[lam, v])
                _require(scaled == F.mul(F.mul(lam, lam), sp.kappa(v)), f"k({lam}v) != {lam}^2k(v)")
        return "beta(u,v) = k(u+v) - k(u) - k(v) and k(lv) = l^2 k(v) on samples"

    def witt_indices() -> str:
        model = prep().model
        wv = witt_index(model.space)
        ww = witt_index(model.w_space)
        wu = witt_index(model.u_space)
        _require(wv == cfg.d and ww == 1 and wu == cfg.d - 2, f"V:{wv} W:{ww} U:{wu}")
        return f"V:{wv} W:{ww} U:{wu}"

    def counts() -> str:
        qm = prep().qm
        q = F.q
        _require(qm.num_points == point_count(q, cfg.d), f"{qm.num_points} points")
        _require(qm.num_maximals == maximal_count(q, cfg.d), f"{qm.num_maximals} maximals")
        # building the index raises when a point is not on t + 1 maximals
        _require(qm.maximal_points.shape[1] == qm.s1, f"a maximal does not hold s+1={qm.s1} points")
        return (
            f"{qm.num_points} points, {qm.num_maximals} maximals, "
            f"s+1={qm.s1}, t+1={qm.t1}"
        )

    def w_singular_orbit_sizes() -> str:
        part = w_vector_orbits(prep().model, prep().b)
        sizes = sorted(int(s) for s in part.sizes)
        half = (F.q**2 - 1) // 2
        _require(part.n_orbits == 2 and sizes == [half, half], f"orbit sizes {sizes}")
        return f"two orbits of size {half} on nonzero singular W-vectors"

    def group_orders() -> str:
        q = F.q
        b, a = prep().b.order, prep().a.order
        _require(b == q * (q**2 - 1) // 2 and a == q * (q**2 - 1), f"|B| = {b}, |A| = {a}")
        return f"|B| = {b}, |A| = {a}"

    def tau_properties() -> str:
        rep = prep().report
        ok = rep.tau_involution and rep.tau_outside_b and rep.b_normal_in_a
        _require(ok, f"involution {rep.tau_involution}, outside B {rep.tau_outside_b}, "
                 f"normalizes B {rep.b_normal_in_a}")
        return "tau^2 = 1, tau outside B, tau normalizes B"

    def ab_conditions() -> str:
        # the build reads A's orbits off B's and tau; as a reference, partition them here
        pr = prep()
        rep, qm = pr.report, pr.qm
        _require(rep.index_two, f"|A| = {rep.a_order} is not 2|B|")
        _require(rep.point_orbits_match and rep.orbit_pairing_complete, str(rep.witness))
        perms = [qm.point_permutation(g) for g in pr.a.generators]
        a_points = partition(qm.num_points, perms).orbit_of
        _require(np.array_equal(a_points, pr.actions.b_point_part.orbit_of), "A moves a point")
        a_maximals = [qm.maximal_permutation(g) for g in pr.a.generators]
        n_a = partition(qm.num_maximals, a_maximals).n_orbits
        m = len(rep.split.pairs)
        _require(rep.n_b_maximal_orbits == 2 * n_a, "n_b != 2 n_a")
        _require(n_a == m, f"{n_a} A-orbits, {m} pairs")
        return (
            f"index 2, shared point orbits, {rep.n_b_maximal_orbits} B-orbits "
            f"pair into {m} A-orbits"
        )

    def hemisystem_roundtrip() -> str:
        pr = prep()
        ids = assemble(pr.report.split, 0)
        text = certificate_text(pr, 0, ids)
        cert = parse_certificate(text)
        check_certificate_header(cert, pr.qm)
        back, reason = resolve_members(cert, pr.qm)
        _require(reason is None and np.array_equal(np.sort(back), np.sort(ids)), f"{reason}")
        verdict = verify_hemisystem(pr.qm, back)
        _require(verdict.ok, f"degree histogram {_histogram_text(verdict.histogram)}")
        return f"mask 0 certificate of {ids.size} maximals round-trips and verifies"

    yield "field-axioms", field_axioms
    yield "polarization", polarization
    yield "witt-indices", witt_indices
    yield "counts", counts
    yield "w-singular-orbits", w_singular_orbit_sizes
    yield "group-orders", group_orders
    yield "tau-properties", tau_properties
    yield "ab-conditions", ab_conditions
    yield "hemisystem-roundtrip", hemisystem_roundtrip


def cmd_selftest(cfg: RunConfig) -> int:
    results = []
    for name, check in _selftest_checks(cfg):
        try:
            detail = check()
            results.append({"name": name, "ok": True, "detail": detail})
        except Exception as exc:  # noqa: BLE001 - failures are the report
            results.append({"name": name, "ok": False, "detail": f"{type(exc).__name__}: {exc}"})
    ok = all(r["ok"] for r in results)
    payload = {
        "command": "selftest",
        "q": cfg.p**cfg.k,
        "d": cfg.d,
        "ok": ok,
        "checks": results,
    }
    lines = [
        f"{'pass' if r['ok'] else 'FAIL'} {r['name']}: {r['detail']}" for r in results
    ]
    lines.append(f"selftest {'passed' if ok else 'FAILED'} ({len(results)} checks)")
    _emit(cfg, payload, lines)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--p", type=int, default=3, help="field characteristic (odd prime)")
    common.add_argument("--k", type=int, default=1, help="extension degree")
    common.add_argument(
        "--modulus",
        type=str,
        default=None,
        help="irreducible modulus coefficients, low degree first (e.g. 1,0,1)",
    )
    common.add_argument("--d", type=int, default=2, help="rank of the quadric (>= 2)")
    common.add_argument("--format", choices=("text", "structured"), default="text")
    common.add_argument("--cap", type=int, default=2**16, help="listing/enumeration cap")

    parser = _Parser(prog="hemisystems", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("stats", parents=[common], help="print the model and group sizes")
    sub.add_parser("orbits", parents=[common], help="print the orbit pairing table")

    p_con = sub.add_parser("construct", parents=[common], help="write a verified certificate")
    p_con.add_argument("--mask", type=str, default="0", help="orbit-choice mask in hex")
    p_con.add_argument("--out", type=str, default="-", help="output path ('-' = stdout)")

    p_ver = sub.add_parser("verify", parents=[common], help="verify a certificate file")
    p_ver.add_argument("path", nargs="?", default="-", help="certificate path ('-' = stdin)")

    sub.add_parser("selftest", parents=[common], help="run the named checks in order")
    return parser


_COMMANDS = {
    "stats": cmd_stats,
    "orbits": cmd_orbits,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        cfg = RunConfig(
            p=ns.p,
            k=ns.k,
            modulus=_parse_modulus(ns.modulus) if ns.modulus else None,
            d=ns.d,
            mask=getattr(ns, "mask", "0"),
            out=getattr(ns, "out", "-"),
            format=ns.format,
            cap=ns.cap,
            path=getattr(ns, "path", None),
        )
        if cfg.d < 2:
            raise ParseError(f"rank d={cfg.d} must be >= 2")
        if cfg.cap < 0:
            raise ParseError(f"--cap {cfg.cap} must be >= 0")
        return _COMMANDS[ns.command](cfg)
    except VerificationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ModelMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
