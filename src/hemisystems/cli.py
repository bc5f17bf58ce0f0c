"""Command-line surface: stats, orbits, construct, verify, selftest.

Exit codes form a stable contract for CI:

* 0 -- verified / success,
* 1 -- rejected (a certificate or construction failed verification),
* 2 -- usage or parse error (bad flags, malformed file, header mismatch).

A certificate is the line-oriented ASCII text that ``construct`` writes
and ``verify`` re-derives; its format is ``hemisystems.certificate``'s.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .certificate import (
    ParseError,
    certificate_chunks,
    certificate_text,
    check_certificate_header,
    parse_certificate,
    parse_int,
    parse_mask,
    parse_modulus,
    resolve_members,
)
from .gf import Field, field_make
from .groups import w_vector_orbits
from .hemi import Prepared, assemble, prepare, verify_hemisystem
from .linform import identity, mat_mul, standard_model, witt_index
from .orbits import partition
from .quadric import QuadricModel, maximal_count, point_count, require_memory


class VerificationFailed(RuntimeError):
    """A freshly assembled hemisystem failed its own verification."""


# ---------------------------------------------------------------------------
# run configuration and output


def _make_field(ns: argparse.Namespace) -> Field:
    """GF(p^k) from the field flags, once --modulus parses and the rank --d is at least 2."""
    modulus = None if ns.modulus is None else parse_modulus(ns.modulus)
    if ns.d < 2:
        raise ParseError(f"rank d={ns.d} must be >= 2")
    return field_make(ns.p, ns.k, modulus)


def _emit(ns: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if ns.format == "structured":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _histogram_text(histogram) -> str:
    return " ".join(f"{deg}:{count}" for deg, count in histogram) or "(empty)"


# ---------------------------------------------------------------------------
# commands


def cmd_stats(ns: argparse.Namespace) -> int:
    F = _make_field(ns)
    prep = prepare(F, ns.d)
    qm, rep = prep.qm, prep.report
    rows = [  # (JSON key, text label, value)
        ("points", "points", qm.num_points),
        ("maximals", "maximals", qm.num_maximals),
        ("s_plus_1", "s+1", qm.s1),
        ("t_plus_1", "t+1", qm.t1),
        ("target_degree", "(t+1)/2", qm.target_degree),
        # prepare has refused any witness, so |A| = 2|B| as extension_order found
        ("b_order", "|B|", rep.a_order // 2),
        ("a_order", "|A|", rep.a_order),
        ("m", "m", rep.m),
        ("n_b", "n_b", rep.n_b_maximal_orbits),
    ]
    payload = {"command": "stats", "q": F.q, "p": F.p, "k": F.k, "d": ns.d}
    payload.update((key, value) for key, _, value in rows)
    lines = [f"q {F.q} (p {F.p}, k {F.k})  d {ns.d}"]
    lines += [f"{label} {value}" for _, label, value in rows]
    _emit(ns, payload, lines)
    return 0


def cmd_orbits(ns: argparse.Namespace) -> int:
    F = _make_field(ns)
    if ns.cap < 0:
        raise ParseError(f"--cap {ns.cap} must be >= 0")
    rep = prepare(F, ns.d).report
    if not rep.ok:
        raise VerificationFailed(f"orbit split unavailable: {rep.witness}")
    part = rep.split.partition
    m = rep.m
    shown = rep.split.pairs[: ns.cap]
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
        "d": ns.d,
        "point_orbits": rep.n_point_orbits,
        "m": m,
        "n_b": rep.n_b_maximal_orbits,
        "family_size": str(2**m),
        "pairs": pair_rows,
    }
    lines = [
        f"q {F.q}  d {ns.d}",
        f"point-orbits {rep.n_point_orbits} (same under B and A)",
        f"maximal-orbits {rep.n_b_maximal_orbits} under B, {m} under A",
        f"family 2^{m} = {2 ** m}",
    ]
    lines += [
        f"pair {r['pair']}: orbits {r['low']},{r['high']} size {r['size']}"
        f" reps {r['rep_low']},{r['rep_high']}"
        for r in pair_rows
    ]
    if m > len(shown):
        lines.append(f"... ({m - len(shown)} more pairs beyond --cap)")
    _emit(ns, payload, lines)
    return 0


def cmd_construct(ns: argparse.Namespace) -> int:
    F = _make_field(ns)
    mask = parse_mask(ns.mask)
    prep = prepare(F, ns.d)
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
    summary = {
        "command": "construct",
        "q": F.q,
        "d": ns.d,
        "mask": f"{mask:x}",
        "m": rep.m,
        "size": int(ids.size),
        "target_degree": prep.qm.target_degree,
        "ok": True,
        "out": ns.out,
    }
    # only the structured report holds the whole text; a file or plain
    # stdout takes the certificate a chunk at a time
    if ns.out == "-":
        if ns.format == "structured":
            summary["certificate"] = certificate_text(prep, mask, ids)
            print(json.dumps(summary, sort_keys=True))
        else:
            sys.stdout.writelines(certificate_chunks(prep, mask, ids))
        return 0
    try:
        with open(ns.out, "w", encoding="ascii") as fh:
            fh.writelines(certificate_chunks(prep, mask, ids))
    except OSError as exc:
        raise ParseError(f"cannot write certificate: {exc}") from None
    _emit(
        ns,
        summary,
        [
            f"verified: {ids.size} maximals, degree {prep.qm.target_degree}, "
            f"mask {mask:x} of {rep.m} bits -> {ns.out}"
        ],
    )
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    if ns.path == "-":
        text = sys.stdin.read()
    else:
        try:
            # a non-ASCII byte reads as U+FFFD, which parse_certificate
            # refuses by its line, as it refuses any non-ASCII text on stdin
            with open(ns.path, "r", encoding="ascii", errors="replace") as fh:
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
            "ok": False,
            "reason": reason,
            "size": len(cert.members),
            "expected_size": qm.num_maximals // 2,
        }
        line = f"rejected: {reason}"
    else:
        verdict = verify_hemisystem(qm, ids)
        payload = {
            "ok": verdict.ok,
            "size": verdict.size,
            "expected_size": verdict.expected_size,
            "target_degree": verdict.target_degree,
            "histogram": [[int(a), int(b)] for a, b in verdict.histogram],
            "method": verdict.method,
        }
        if verdict.ok:
            line = (
                f"verified: {verdict.size} maximals, every point on exactly "
                f"{verdict.target_degree}"
            )
        else:
            line = (
                f"rejected: size {verdict.size} (expected {verdict.expected_size}), "
                f"degree histogram {_histogram_text(verdict.histogram)}"
            )
    _emit(ns, {"command": "verify", **payload}, [line])
    return 0 if payload["ok"] else 1


# ---------------------------------------------------------------------------
# selftest


def _require(ok, what: str) -> None:
    """Raise AssertionError unless ok; unlike assert, this also runs under python -O."""
    if not ok:
        raise AssertionError(what)


def _selftest_checks(ns: argparse.Namespace):
    """Yield (name, callable) pairs in the canonical order.

    Each callable returns a detail string on success and raises on failure.
    Model and groups are built lazily once and shared by later checks.
    """
    F = _make_field(ns)
    state: dict = {}

    def prep() -> Prepared:
        if "prep" not in state:
            state["prep"] = prepare(F, ns.d)
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
        _require(wv == ns.d and ww == 1 and wu == ns.d - 2, f"V:{wv} W:{ww} U:{wu}")
        return f"V:{wv} W:{ww} U:{wu}"

    def counts() -> str:
        qm = prep().qm
        _require(qm.num_points == point_count(F.q, ns.d), f"{qm.num_points} points")
        _require(qm.num_maximals == maximal_count(F.q, ns.d), f"{qm.num_maximals} maximals")
        degrees = qm.degrees(np.arange(qm.num_maximals))
        _require((degrees == qm.t1).all(), f"a point does not lie on t+1={qm.t1} maximals")
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
        # the closure counts B and A; every element it lists must agree with the predicates
        q, pr = F.q, prep()
        b, a = pr.b.order, pr.a.order
        _require(b == q * (q**2 - 1) // 2 and a == q * (q**2 - 1), f"|B| = {b}, |A| = {a}")
        _require(pr.b.contains(pr.b.elements).all(), "an element of B fails B's predicate")
        coset = mat_mul(F, pr.tau_elt, pr.b.elements)
        _require(pr.a.contains(coset).all(), "an element of tau B fails A's predicate")
        _require(not pr.b.contains(coset).any(), "an element of tau B passes B's predicate")
        return f"|B| = {b}, |A| = {a}"

    def tau_properties() -> str:
        pr = prep()
        _require(np.array_equal(mat_mul(F, pr.tau_elt, pr.tau_elt), identity(3)), "tau^2 != 1")
        # |A| = 2|B| only when tau is outside B, normalizes B and squares into B
        _require(pr.report.a_order == 2 * pr.b.order, str(pr.report.witness))
        return "tau^2 = 1, tau outside B, tau normalizes B"

    def ab_conditions() -> str:
        # the build reads A's orbits off B's and tau; as a reference, partition them here
        pr = prep()
        rep, qm = pr.report, pr.qm
        _require(rep.ok, str(rep.witness))
        perms = [qm.point_permutation(g) for g in pr.a.generators]
        a_points = partition(qm.num_points, perms).orbit_of
        _require(np.array_equal(a_points, pr.actions.b_point_part.orbit_of), "A moves a point")
        a_maximals = [qm.maximal_permutation(g) for g in pr.a.generators]
        n_a = partition(qm.num_maximals, a_maximals).n_orbits
        _require(rep.n_b_maximal_orbits == 2 * n_a, "n_b != 2 n_a")
        _require(n_a == rep.m, f"{n_a} A-orbits, {rep.m} pairs")
        return (
            f"index 2, shared point orbits, {rep.n_b_maximal_orbits} B-orbits "
            f"pair into {rep.m} A-orbits"
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


def cmd_selftest(ns: argparse.Namespace) -> int:
    results = []
    for name, check in _selftest_checks(ns):
        try:
            detail = check()
            results.append({"name": name, "ok": True, "detail": detail})
        except Exception as exc:  # noqa: BLE001 - failures are the report
            results.append({"name": name, "ok": False, "detail": f"{type(exc).__name__}: {exc}"})
    ok = all(r["ok"] for r in results)
    payload = {
        "command": "selftest",
        "q": ns.p**ns.k,
        "d": ns.d,
        "ok": ok,
        "checks": results,
    }
    lines = [
        f"{'pass' if r['ok'] else 'FAIL'} {r['name']}: {r['detail']}" for r in results
    ]
    lines.append(f"selftest {'passed' if ok else 'FAILED'} ({len(results)} checks)")
    _emit(ns, payload, lines)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise ParseError(message)


def _int_flag(text: str) -> int:
    """An integer flag value, read as ``parse_int`` reads certificate headers."""
    try:
        return parse_int(text, "value")
    except ParseError as exc:
        # argparse puts the flag before this message
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=("text", "structured"), default="text")
    field = _Parser(add_help=False)
    field.add_argument("--p", type=_int_flag, default=3, help="field characteristic (odd prime)")
    field.add_argument("--k", type=_int_flag, default=1, help="extension degree")
    field.add_argument(
        "--modulus", help="irreducible modulus coefficients, low degree first (e.g. 1,0,1)"
    )
    field.add_argument("--d", type=_int_flag, default=2, help="rank of the quadric (>= 2)")

    parser = _Parser(prog="hemisystems", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("stats", parents=[field, fmt], help="print the model and group sizes")
    p_orb = sub.add_parser("orbits", parents=[field, fmt], help="print the orbit pairing table")
    p_orb.add_argument("--cap", type=_int_flag, default=2**16, help="listing cap")

    p_con = sub.add_parser("construct", parents=[field, fmt], help="write a verified certificate")
    p_con.add_argument("--mask", type=str, default="0", help="orbit-choice mask in hex")
    p_con.add_argument("--out", type=str, default="-", help="output path ('-' = stdout)")

    p_ver = sub.add_parser("verify", parents=[fmt], help="verify a certificate file")
    p_ver.add_argument("path", nargs="?", default="-", help="certificate path ('-' = stdin)")

    sub.add_parser("selftest", parents=[field, fmt], help="run the named checks in order")
    return parser


_COMMANDS = {
    "stats": cmd_stats,
    "orbits": cmd_orbits,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    """Parse the command line, run its command and map its exceptions to exit codes.

    argparse's namespace is the command's whole configuration; each flag is
    checked by the code that reads it, so main checks none.
    """
    try:
        ns = build_parser().parse_args(argv)
        return _COMMANDS[ns.command](ns)
    except VerificationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # ParseError and ModelMismatch among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
