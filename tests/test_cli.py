"""Command-line surface: exit codes, certificate round trips, rejections."""

import dataclasses
import hashlib
import io
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from hemibench.workloads import RUNGS
from hemisystems import certificate
from hemisystems.certificate import (
    CERT_MAGIC,
    ParseError,
    certificate_text,
    parse_certificate,
    resolve_members,
)
from hemisystems.cli import main
from hemisystems import cli, groups, hemi
from hemisystems.gf import field_make
from hemisystems.groups import embed_w_block
from hemisystems.hemi import assemble, prepare
from hemisystems.linform import format_matrix, identity, mat_mul, parse_matrices, rref
from conftest import model, one_plus_trace, qmodel, src_env  # noqa: F401 - shared fixtures
from test_linform import reference_format


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def structured(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--format", "structured")
    return rc, json.loads(out), err


@pytest.fixture(scope="module")
def cert_pair(tmp_path_factory):
    """Two verified certificates at (3,2) with different masks."""
    root = tmp_path_factory.mktemp("certs")
    paths = {}
    for mask in ("0", "7"):
        path = root / f"cert_{mask}.txt"
        rc = main(["construct", "--mask", mask, "--out", str(path)])
        assert rc == 0
        paths[mask] = path
    return paths


# ---------------------------------------------------------------------------
# stats / orbits


def test_stats_text_frozen_values(capsys):
    rc, out, _ = run(capsys, "stats")
    assert rc == 0
    for line in (
        "points 40",
        "maximals 40",
        "s+1 4",
        "t+1 4",
        "(t+1)/2 2",
        "|B| 12",
        "|A| 24",
        "m 3",
        "n_b 6",
    ):
        assert line in out


def test_stats_structured_frozen_values(capsys):
    rc, doc, _ = structured(capsys, "stats", "--p", "5")
    assert rc == 0
    assert doc["points"] == 156
    assert doc["maximals"] == 156
    assert doc["s_plus_1"] == 6
    assert doc["t_plus_1"] == 6
    assert doc["target_degree"] == 3
    assert doc["b_order"] == 60
    assert doc["a_order"] == 120
    assert doc["n_b"] == 2 * doc["m"]


def test_stats_rejects_even_characteristic(capsys):
    rc, _, err = run(capsys, "stats", "--p", "2")
    assert rc == 2
    assert "odd" in err


def test_stats_rejects_rank_one(capsys):
    rc, _, err = run(capsys, "stats", "--d", "1")
    assert rc == 2


def test_an_empty_modulus_is_a_usage_error(capsys):
    # an empty --modulus is a value to parse, not a request for the default field
    rc, out, err = run(capsys, "stats", "--modulus", "")
    assert (rc, out) == (2, "")
    assert err == "error: modulus '' must be comma-separated integers (low degree first)\n"


@pytest.mark.parametrize(
    "argv, rc, err",
    [
        # a subcommand defines only the flags it reads; the others are unknown
        (("verify", "--p", "5", "CERT"), 2, "unrecognized arguments"),
        (("verify", "--d", "1", "-"), 2, "unrecognized arguments"),
        (("verify", "--cap", "-1", "missing.txt"), 2, "unrecognized arguments"),
        (("stats", "--cap", "1"), 2, "unrecognized arguments"),
        (("construct", "--cap", "1"), 2, "unrecognized arguments"),
        (("selftest", "--cap", "1"), 2, "unrecognized arguments"),
        # the flags a subcommand reads behave as before, the rank checked first
        (("orbits", "--cap", "0"), 0, ""),
        (("selftest", "--d", "1"), 2, "error: rank d=1 must be >= 2\n"),
        (("construct", "--d", "1", "--mask", "zz"), 2, "error: rank d=1 must be >= 2\n"),
        (("verify", "--format", "structured", "CERT"), 0, ""),
    ],
)
def test_each_subcommand_takes_only_the_flags_it_reads(capsys, cert_pair, argv, rc, err):
    argv = [str(cert_pair["0"]) if a == "CERT" else a for a in argv]
    got_rc, _, got_err = run(capsys, *argv)
    assert got_rc == rc
    assert (err in got_err) if err else got_err == ""


@pytest.mark.parametrize(
    "argv, err",
    [
        # int() alone takes the digits of other scripts, underscores, '+' and spaces
        (
            ("stats", "--p", "3", "--k", "2", "--modulus", "\u0661,\u0660,\u0661", "--d", "2"),
            "error: modulus '\u0661,\u0660,\u0661' must be comma-separated integers"
            " (low degree first)\n",
        ),
        (
            ("stats", "--p", "\u0663", "--d", "2"),
            "error: argument --p: value '\u0663' is not an integer\n",
        ),
        (("stats", "--k", "+1"), "error: argument --k: value '+1' is not an integer\n"),
        (("stats", "--d", " 2"), "error: argument --d: value ' 2' is not an integer\n"),
        (("orbits", "--cap", "1_0"), "error: argument --cap: value '1_0' is not an integer\n"),
        (("stats", "--modulus", "1,+0,1"), "error: modulus '1,+0,1' must be comma-separated"
         " integers (low degree first)\n"),
    ],
    ids=["arabic modulus", "arabic p", "signed k", "spaced d", "separated cap", "signed modulus"],
)
def test_integer_flags_take_ascii_digits_alone(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


@pytest.mark.parametrize(
    "old, new, err",
    [
        ("rank 2", "rank 0_2", "error: rank '0_2' is not an integer\n"),
        ("rank 2", "rank \u0662", "error: line 3: non-ASCII character\n"),
        ("counts 40 40", "counts +40 40", "error: points '+40' is not an integer\n"),
        ("degree 2", "degree 2_", "error: degree '2_' is not an integer\n"),
    ],
    ids=["separated rank", "arabic rank", "signed points", "trailing separator"],
)
def test_certificate_headers_take_ascii_integers_alone(capsys, cert_pair, tmp_path, old, new, err):
    text = cert_pair["0"].read_text()
    assert f"\n{old}\n" in text
    bad = tmp_path / "header.txt"
    bad.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"), encoding="utf-8")
    assert run(capsys, "verify", str(bad)) == (2, "", err)


def test_stats_rejects_a_geometry_too_large_for_memory(capsys):
    # (3,7) has 3.6e13 maximals; the closed-form size check in QuadricModel
    # fails before anything is enumerated, and the message carries the number
    # of bytes
    for d, need in ((7, "161245155153152000"), (9, "182944133335081396349747200")):
        start = time.perf_counter()
        rc, _, err = run(capsys, "stats", "--p", "3", "--d", str(d))
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert f"{need} bytes" in err


def test_verify_rejects_a_geometry_too_large_for_memory(capsys, tmp_path):
    # the header alone sets the geometry, so the size check refuses it before
    # any member is read
    F = field_make(3)
    cert = tmp_path / "rank9.txt"
    cert.write_text(
        "\n".join([
            f"{CERT_MAGIC} 1",
            "field 3 1 0,1",
            "rank 9",
            f"gram {format_matrix(F, np.eye(19, dtype=np.uint8))}",
            "counts 1 1",
            "degree 1",
            "orbits 1 2",
            f"maximal {format_matrix(F, np.eye(9, 19, dtype=np.uint8))}",
            "mask 0 1",
            "end",
        ]) + "\n"
    )
    start = time.perf_counter()
    rc, _, err = run(capsys, "verify", str(cert))
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert "182944133335081396349747200 bytes" in err


def test_an_absurd_rank_is_refused_before_the_standard_model_is_built():
    # the guard is closed-form, so stats exits before it builds the dense
    # 6001 x 6001 Gram matrix of rank 3000; ru_maxrss is in KiB on Linux
    code = (
        "import resource, subprocess, sys\n"
        "run = subprocess.run([sys.executable, '-m', 'hemisystems.cli', 'stats', '--d', '3000'],"
        " capture_output=True, text=True)\n"
        "print(run.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        "print(run.stderr)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=300
    )
    assert run.returncode == 0, run.stderr
    status, err = run.stdout.split("\n", 1)
    rc, max_rss_kib = map(int, status.split())
    assert rc == 2 and "int32" in err
    assert max_rss_kib < 80 * 1024


def test_a_wrong_shape_at_an_absurd_rank_is_refused_in_little_memory(tmp_path):
    # the shape error compares row lengths without building a list as long
    # as the claimed 20000001 rows; ru_maxrss is in KiB on Linux
    cert = tmp_path / "cert.txt"
    cert.write_text(f"{CERT_MAGIC} 1\nfield 3 1 0,1\nrank {10**7}\ngram 1\n")
    code = (
        "import resource, subprocess, sys\n"
        "run = subprocess.run([sys.executable, '-m', 'hemisystems.cli', 'verify', sys.argv[1]],"
        " capture_output=True, text=True)\n"
        "print(run.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        "print(run.stderr)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, str(cert)],
        capture_output=True, text=True, env=src_env(), timeout=300,
    )
    assert run.returncode == 0, run.stderr
    status, err = run.stdout.split("\n", 1)
    rc, max_rss_kib = map(int, status.split())
    assert rc == 2 and "expected 20000001x20000001" in err
    assert max_rss_kib < 80 * 1024


@pytest.mark.parametrize(
    "argv,limit",
    [
        (["stats", "--p", str(2**61 - 1)], "q <= 255"),
        (["stats", "--p", str(2**61 - 1), "--k", "2"], "q <= 255"),
        (["stats", "--k", "1000000000"], "q <= 255"),
        (["verify", "CERT"], "q <= 255"),
        (["stats", "--d", "100000000"], "int32"),
    ],
)
def test_out_of_range_fields_and_ranks_exit_2_at_once(tmp_path, argv, limit):
    # a 61-bit prime, a huge extension degree or a huge rank is refused by
    # its size, before trial division or q^k and q^(2d) are formed
    cert = tmp_path / "cert.txt"
    cert.write_text(f"{CERT_MAGIC} 1\nfield {2**61 - 1} 1 0,1\nrank 2\n")
    argv = [str(cert) if a == "CERT" else a for a in argv]
    run = subprocess.run(
        [sys.executable, "-m", "hemisystems.cli", *argv],
        capture_output=True, text=True, env=src_env(), timeout=10,
    )
    assert run.returncode == 2
    assert limit in run.stderr


def test_construct_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path):
    missing = tmp_path / "no-such-dir" / "cert.txt"
    rc, out, err = run(capsys, "construct", "--out", str(missing))
    assert rc == 2
    assert out == ""
    assert "cannot write certificate" in err
    assert not missing.parent.exists()


def test_orbits_pairing_table(capsys):
    rc, doc, _ = structured(capsys, "orbits")
    assert rc == 0
    assert doc["m"] == 3
    assert doc["n_b"] == 6
    assert doc["point_orbits"] == 5
    assert doc["family_size"] == "8"
    assert sorted(r["size"] for r in doc["pairs"]) == [4, 4, 12]
    seen = [oid for r in doc["pairs"] for oid in (r["low"], r["high"])]
    assert sorted(seen) == list(range(6))


def test_orbits_cap_bounds_the_listing(capsys):
    rc, out, _ = run(capsys, "orbits", "--cap", "0")
    assert rc == 0
    assert "pair 0:" not in out
    assert "(3 more pairs beyond --cap)" in out
    rc, out, err = run(capsys, "orbits", "--cap", "-1")
    assert rc == 2
    assert out == ""
    assert "--cap -1" in err


def test_orbits_reports_an_unavailable_split_as_a_rejection(capsys, monkeypatch):
    # a report without a split exits 1 with its witness, as construct does
    real = hemi.ab_check
    monkeypatch.setattr(
        hemi, "ab_check", lambda *args: dataclasses.replace(real(*args), split=None, witness="w")
    )
    assert run(capsys, "orbits") == (1, "", "error: orbit split unavailable: w\n")
    assert run(capsys, "construct") == (1, "", "error: orbit-splitting hypotheses failed: w\n")


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys)[0] == 2


# ---------------------------------------------------------------------------
# construct


def test_construct_writes_verified_certificate(cert_pair):
    text = cert_pair["0"].read_text()
    assert text.startswith(CERT_MAGIC + " 1\n")
    assert sum(1 for ln in text.splitlines() if ln.startswith("maximal ")) == 20
    assert text.rstrip().endswith("end")


def test_construct_stdout_emits_only_the_certificate(capsys):
    rc, out, _ = run(capsys, "construct", "--mask", "3")
    assert rc == 0
    cert = parse_certificate(out)
    assert len(cert.members) == 20
    assert cert.mask == 3


def rewrite_members(text, F, edit):
    """The (3,2) certificate with every 2x5 member matrix M written as edit(M)."""
    return "".join(
        f"maximal {format_matrix(F, edit(parse_matrices(F, [ln.split()[1]], 2, 5)[0]))}\n"
        if ln.startswith("maximal ")
        else ln + "\n"
        for ln in text.splitlines()
    )


def test_construct_round_trip_is_identity_on_members(capsys, cert_pair):
    prep = prepare(model(3, 1, 2).field, 2)
    F = prep.field
    for mask_hex, path in cert_pair.items():
        text = path.read_text()
        expected = assemble(prep.report.split, int(mask_hex, 16))
        # members written as their RREF bases, or with rows swapped and scaled
        for edit in (lambda M: M, lambda M: F.mul_table[2, M[::-1]]):
            cert = parse_certificate(rewrite_members(text, F, edit))
            ids, reason = resolve_members(cert, prep.qm)
            assert reason is None
            assert np.array_equal(np.sort(ids), expected)
            bases = prep.qm.maximal_bases
            one_by_one = [
                np.flatnonzero((bases == rref(F, M)[0]).all(axis=(1, 2))).tolist()
                for M in cert.members
            ]
            assert [[i] for i in ids.tolist()] == one_by_one


def per_member_certificate_text(prep, mask, ids):
    """A certificate written one member and one element at a time."""
    F, split, qm = prep.field, prep.report.split, prep.qm
    lines = [
        f"{CERT_MAGIC} 1",
        f"field {F.p} {F.k} {','.join(str(c) for c in F.modulus)}",
        f"rank {prep.model.d}",
        f"gram {reference_format(F, prep.model.space.gram)}",
        f"counts {qm.num_points} {qm.num_maximals}",
        f"degree {qm.target_degree}",
        f"orbits {len(split.pairs)} {split.partition.n_orbits}",
    ]
    dim = prep.model.dim
    lines += [f"generator {reference_format(F, embed_w_block(F, g, dim))}" for g in prep.b.generators]
    lines += [f"maximal {reference_format(F, qm.maximal_bases[int(i)])}" for i in ids]
    lines += [f"mask {mask:x} {len(split.pairs)}", "end"]
    return "\n".join(lines) + "\n"


def test_certificate_bytes_are_unchanged():
    rung = RUNGS["family-q3"]
    prep = prepare(field_make(rung.p, rung.k), rung.d)
    for mask, digest in zip((0, (1 << rung.m) - 1), rung.digests):
        text = certificate_text(prep, mask, assemble(prep.report.split, mask))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
    prep = prepare(field_make(3, 2), 2)
    for mask in (0, 5):
        ids = assemble(prep.report.split, mask)
        assert certificate_text(prep, mask, ids) == per_member_certificate_text(prep, mask, ids)


@pytest.mark.parametrize("name", ["rank3-q5", "plane-q25"])
def test_construct_writes_the_certificate_a_chunk_at_a_time(capsys, monkeypatch, tmp_path, name):
    # a file and plain stdout take the certificate's chunks as they are
    # made, so neither builds the whole text; at (5,3) and q=25 the member
    # block is more than one chunk
    rung = RUNGS[name]
    prep = prepare(field_make(rung.p, rung.k), rung.d)
    ids = assemble(prep.report.split, 0)
    assert ids.size > certificate._CHUNK_LINES
    text = certificate_text(prep, 0, ids)
    assert hashlib.sha256(text.encode()).hexdigest() == rung.digests[0]

    def refused(*args, **kwargs):
        raise AssertionError("construct built the whole certificate text")

    monkeypatch.setattr(cli, "certificate_text", refused)
    monkeypatch.setattr(certificate, "certificate_text", refused)
    field = ("--p", str(rung.p), "--k", str(rung.k), "--d", str(rung.d))
    path = tmp_path / "cert.txt"
    rc, out, err = run(capsys, "construct", *field, "--out", str(path))
    assert (rc, err) == (0, "") and out.endswith(f" -> {path}\n")
    assert path.read_bytes() == text.encode("ascii")
    assert run(capsys, "construct", *field) == (0, text, "")


def test_construct_bad_mask_is_usage_error(capsys):
    rc, _, err = run(capsys, "construct", "--mask", "ff")
    assert rc == 2
    assert "3 bits" in err
    for mask in ("zz", "+5", "-1", "0_5", "0x-1", "0x"):
        rc, out, err = run(capsys, "construct", f"--mask={mask}")
        assert rc == 2, mask
        assert out == "" and "mask" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_accepts_fresh_certificate(capsys, cert_pair):
    rc, out, _ = run(capsys, "verify", str(cert_pair["0"]))
    assert rc == 0
    assert "verified" in out


def test_jobs_flag_is_usage_error(capsys, cert_pair):
    rc, doc, _ = structured(capsys, "verify", str(cert_pair["7"]))
    assert rc == 0
    assert doc["method"] == "index"
    assert doc["histogram"] == [[2, 40]]
    assert run(capsys, "verify", str(cert_pair["7"]), "--jobs", "3")[0] == 2
    assert run(capsys, "construct", "--jobs", "2")[0] == 2


def test_verify_rejects_a_signed_or_separated_mask(capsys, tmp_path, cert_pair):
    text = cert_pair["7"].read_text()
    assert "\nmask 7 3\n" in text
    for mask in ("-1", "+7", "0_7"):
        bad = tmp_path / "mask.txt"
        bad.write_text(text.replace("\nmask 7 3\n", f"\nmask {mask} 3\n"))
        rc, out, err = run(capsys, "verify", str(bad))
        assert rc == 2, mask
        assert "not hexadecimal" in err


def test_verify_reads_stdin(capsys, monkeypatch, cert_pair):
    monkeypatch.setattr(sys, "stdin", io.StringIO(cert_pair["0"].read_text()))
    rc, out, _ = run(capsys, "verify")
    assert rc == 0
    assert "verified" in out


NON_ASCII_EDITS = {
    # int() reads any Unicode digit, so the line parser alone would take
    # U+0661 (ARABIC-INDIC DIGIT ONE) for a 1 and U+0662 for a 2
    "member element": ("maximal ", "1", "\u0661"),
    "header integer": ("rank ", "2", "\u0662"),
}


def non_ascii_edit(text, edit):
    """The text with one digit of the first line of a tag replaced by a
    non-ASCII digit, and that line's number."""
    tag, old, new = NON_ASCII_EDITS[edit]
    lines = text.splitlines(keepends=True)
    i = next(i for i, ln in enumerate(lines) if ln.startswith(tag))
    lines[i] = lines[i].replace(old, new, 1)
    return "".join(lines), i + 1


@pytest.mark.parametrize("edit", sorted(NON_ASCII_EDITS))
def test_non_ascii_certificates_exit_2_alike_on_stdin_and_from_a_path(
    capsys, monkeypatch, tmp_path, cert_pair, edit
):
    # the format is ASCII: parse_certificate refuses any other text by its
    # first such line, whether it came from stdin or from a file
    text, no = non_ascii_edit(cert_pair["0"].read_text(), edit)
    path = tmp_path / "non_ascii.txt"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    want = (2, "", f"error: line {no}: non-ASCII character\n")
    assert run(capsys, "verify") == want
    assert run(capsys, "verify", str(path)) == want


def test_verify_rejects_tampered_member_with_histogram(capsys, tmp_path, cert_pair):
    base = cert_pair["0"].read_text()
    other = cert_pair["7"].read_text()
    mine = [ln for ln in base.splitlines() if ln.startswith("maximal ")]
    alien = next(
        ln
        for ln in other.splitlines()
        if ln.startswith("maximal ") and ln not in mine
    )
    tampered = tmp_path / "tampered.txt"
    tampered.write_text(base.replace(mine[0], alien))
    rc, doc, _ = structured(capsys, "verify", str(tampered))
    assert rc == 1
    assert doc["ok"] is False
    degrees = dict((a, b) for a, b in doc["histogram"])
    assert set(degrees) != {2}


def test_verify_rejects_edited_gram_header(capsys, tmp_path, cert_pair):
    text = cert_pair["0"].read_text()
    bad = tmp_path / "badgram.txt"
    bad.write_text(text.replace("gram 1;", "gram 2;", 1))
    rc, _, err = run(capsys, "verify", str(bad))
    assert rc == 2
    assert "Gram" in err


def test_verify_rejects_a_generator_that_is_not_an_isometry(capsys, tmp_path, cert_pair):
    # every generator line is checked as one stack; the reason names the
    # first generator whose product B J B^T is not J
    text = cert_pair["0"].read_text()
    lines = [ln for ln in text.splitlines() if ln.startswith("generator ")]
    assert len(lines) == 3
    F = field_make(3)
    g = parse_matrices(F, [lines[1].split(" ", 1)[1]], 5, 5)[0]
    g[1, 1] = F.add(int(g[1, 1]), 1)
    bad = tmp_path / "badgen.txt"
    bad.write_text(text.replace(lines[1], f"generator {format_matrix(F, g)}", 1))
    rc, _, err = run(capsys, "verify", str(bad))
    assert rc == 2
    assert "generator 1 is not an isometry" in err


def test_verify_rejects_garbage_and_truncation(capsys, tmp_path, cert_pair):
    junk = tmp_path / "junk.txt"
    junk.write_text("not a certificate\n")
    assert run(capsys, "verify", str(junk))[0] == 2

    trunc = tmp_path / "trunc.txt"
    trunc.write_text(cert_pair["0"].read_text().rsplit("end", 1)[0])
    assert run(capsys, "verify", str(trunc))[0] == 2

    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert run(capsys, "verify", str(empty))[0] == 2

    assert run(capsys, "verify", str(tmp_path / "missing.txt"))[0] == 2

    # member matrices the parser must refuse: ragged rows, a non-integer
    # token, and (over GF(9)) an element with one coefficient of two
    nine = tmp_path / "nine.txt"
    assert main(["construct", "--k", "2", "--out", str(nine)]) == 0
    capsys.readouterr()
    for source, old, new in (
        (cert_pair["0"], "maximal 1;", "maximal 1|"),
        (cert_pair["0"], "maximal 1;", "maximal x;"),
        (nine, "maximal 1,0;", "maximal 1;"),
    ):
        text = source.read_text()
        assert old in text
        bad = tmp_path / "bad_member.txt"
        bad.write_text(text.replace(old, new, 1))
        rc, _, err = run(capsys, "verify", str(bad))
        assert rc == 2, (old, new)
        assert "maximal matrix" in err


def test_parse_errors_name_the_line_of_the_file(cert_pair):
    text = cert_pair["0"].read_text()
    lines = text.splitlines()
    # a blank line before a bad 'rank' line, at file line 4
    bad = "\n".join(lines[:2] + ["", "rank 2 2"] + lines[3:]) + "\n"
    with pytest.raises(ParseError, match="^line 4: 'rank' takes 1 field$"):
        parse_certificate(bad)
    # a bad member after a blank line inside the member block
    first = next(i for i, ln in enumerate(lines) if ln.startswith("maximal "))
    edited = lines[: first + 3] + ["", "maximal 1;0 0"] + lines[first + 4:]
    bad = "\n".join(edited) + "\n"
    with pytest.raises(ParseError, match=f"^line {first + 5}: 'maximal' takes 1 field$"):
        parse_certificate(bad)
    # a bad line after the member block, with blank lines before it
    edited = lines[:1] + ["", ""] + lines[1:-2] + ["mask 0 3 3", "end"]
    with pytest.raises(ParseError, match=f"^line {len(lines) + 1}: 'mask' takes 2 fields$"):
        parse_certificate("\n".join(edited) + "\n")
    # a header that stops short of the member block names the first member
    # line, though the lines before that block end early
    cut = [ln for ln in lines if not ln.startswith(("orbits ", "generator "))]
    with pytest.raises(ParseError, match="^line 7: expected 'orbits', got 'maximal'$"):
        parse_certificate("\n".join(cut) + "\n")
    # a misshapen member or generator is named by its line, not its index
    short = lines[first + 4][: len(lines[first + 4]) // 2]
    edited = lines[: first + 4] + [short] + lines[first + 5:]
    with pytest.raises(ParseError, match=f"^line {first + 5}: bad maximal matrix: matrix 4 is "):
        parse_certificate("\n".join(edited) + "\n")
    gen = next(i for i, ln in enumerate(lines) if ln.startswith("generator ")) + 1
    edited = lines[:gen] + [lines[gen].rsplit("|", 1)[0]] + lines[gen + 1:]
    with pytest.raises(
        ParseError, match=f"^line {gen + 1}: bad generator matrix: matrix 1 is 4x5; expected 5x5$"
    ):
        parse_certificate("\n".join(edited) + "\n")
    # so is a member whose first element does not parse, over GF(3) and,
    # with one coefficient too many, over GF(9)
    prep = prepare(field_make(3, 2), 2)
    for text, bad, q in (
        (text, "x", 3),
        (certificate_text(prep, 0, assemble(prep.report.split, 0)), "1,0,0", 9),
    ):
        lines = text.splitlines()
        first = next(i for i, ln in enumerate(lines) if ln.startswith("maximal "))
        fourth = f"maximal {bad};" + lines[first + 3].split(";", 1)[1]
        edited = lines[: first + 3] + [fourth] + lines[first + 4:]
        with pytest.raises(
            ParseError,
            match=rf"^line {first + 4}: bad maximal matrix: matrix 3 has '{bad}', "
            rf"not an element of GF\({q}\)$",
        ):
            parse_certificate("\n".join(edited) + "\n")


def certificate_fields(cert):
    return [
        v.tolist() if isinstance(v, np.ndarray) else v
        for v in (getattr(cert, f.name) for f in dataclasses.fields(cert))
    ]


def parse_outcome(text):
    try:
        return certificate_fields(parse_certificate(text))
    except ParseError:
        return "ParseError"


def line_parser_only(monkeypatch):
    monkeypatch.setattr(certificate, "parse_matrix_block", lambda *args: None)


def byte_edits(text, p):
    """Edits of the first and last member lines of a certificate, and of the
    line breaks around the block: every byte replaced by each of a few, and
    every two neighbours swapped, which moves a digit into the prefix or
    into the place of another coefficient; at p >= 10 also a 0 put before
    each digit, each coefficient set to 10, 010 and p, and each separator
    dropped."""
    head = text.index("\nmaximal ")
    tail = text.index("\nmask ")
    first_end, last_start = text.index("\n", head + 1), text.rindex("\n", 0, tail)
    where = [*range(head, first_end + 1), *range(last_start, tail + 2)]
    edits = [text[:i] + c + text[i + 1:] for i in where for c in "03;|, x" if text[i] != c]
    edits += [text[:i] + text[i + 1] + text[i] + text[i + 2:] for i in where]
    if p >= 10:
        edits += [text[:i] + "0" + text[i:] for i in where if text[i].isdigit()]
        edits += [text[:i] + text[i + 1:] for i in where if text[i] in ",;|"]
        starts = [i for i in where if text[i].isdigit() and not text[i - 1].isdigit()]
        edits += [
            text[:i] + c + text[i:].lstrip("0123456789")
            for i in starts
            for c in ("10", "010", str(p))
        ]
    return edits


def test_byte_and_line_parsers_agree_on_single_byte_edits(monkeypatch):
    # the fixed-width reader at (3,3), and the reader of one- and two-digit
    # coefficients at p = 11 and 13, d = 2
    real = certificate.parse_matrix_block
    for p, d in ((3, 3), (11, 2), (13, 2)):
        prep = prepare(field_make(p), d)
        text = certificate_text(prep, 0, assemble(prep.report.split, 0))
        edits = byte_edits(text, p)
        read = []
        monkeypatch.setattr(
            certificate, "parse_matrix_block", lambda *args: read.append(real(*args)) or read[-1]
        )
        got = [parse_outcome(t) for t in edits]
        # a nonzero digit edited to 0 leaves the block canonical
        assert any(r is not None for r in read)
        line_parser_only(monkeypatch)
        want = [parse_outcome(t) for t in edits]
        head, tail = text.index("\nmaximal "), text.index("\nmask ")
        for t, g, w in zip(edits, got, want):
            assert g == w, t[head - 20: tail + 8]
        assert "ParseError" in want and want.count("ParseError") < len(want)


def test_non_canonical_spellings_verify(capsys, tmp_path, cert_pair):
    text = cert_pair["0"].read_text()
    lines = text.splitlines(keepends=True)
    first = next(i for i, ln in enumerate(lines) if ln.startswith("maximal 1;"))
    padded = "".join(lines[: first + 2] + ["\n", "  \n"] + lines[first + 2:])
    zero_led = text.replace(lines[first], lines[first].replace("maximal 1;", "maximal 01;"), 1)
    assert zero_led != text
    want = parse_outcome(text)
    for spelled in (text.replace("\n", "\r\n"), padded, zero_led):
        assert parse_outcome(spelled) == want
        path = tmp_path / "spelled.txt"
        path.write_bytes(spelled.encode("ascii"))
        rc, out, _ = run(capsys, "verify", str(path))
        assert rc == 0 and "verified" in out


def test_an_element_with_a_sign_an_underscore_or_past_p_exits_2(capsys, tmp_path, cert_pair):
    # each spelling of 1 over GF(3) was read by int() and reduced mod p, and
    # the certificate verified; now the first member line and the gram line
    # are refused, named by their line
    lines = cert_pair["0"].read_text().splitlines(keepends=True)
    gram = next(i for i, ln in enumerate(lines) if ln.startswith("gram 1;"))
    first = next(i for i, ln in enumerate(lines) if ln.startswith("maximal "))
    assert lines[first].startswith("maximal 1;")
    for at, tag in ((gram, "gram"), (first, "maximal")):
        for bad in ("+1", "0_1", "4", "-2"):
            edited = lines.copy()
            edited[at] = lines[at].replace(f"{tag} 1;", f"{tag} {bad};", 1)
            path = tmp_path / "spelled.txt"
            path.write_text("".join(edited))
            rc, out, err = run(capsys, "verify", str(path))
            assert rc == 2 and "verified" not in out
            assert f"line {at + 1}: bad {tag} matrix: matrix 0 has {bad!r}, not an element of GF(3)" in err


@pytest.mark.parametrize("p, k, d", [(5, 1, 3), (5, 2, 2), (11, 1, 2), (13, 1, 2)])
def test_canonical_member_block_is_read_as_bytes(monkeypatch, p, k, d):
    prep = prepare(field_make(p, k), d)
    ids = assemble(prep.report.split, 1)
    text = certificate_text(prep, 1, ids)
    with monkeypatch.context() as patch:
        line_parser_only(patch)
        by_lines = certificate_fields(parse_certificate(text))
    real = certificate.parse_matrices

    def members_refused(F, tokens, rows, cols):
        if rows == d:
            raise AssertionError("the member block went through parse_matrices")
        return real(F, tokens, rows, cols)

    monkeypatch.setattr(certificate, "parse_matrices", members_refused)
    cert = parse_certificate(text)
    assert certificate_fields(cert) == by_lines
    assert np.array_equal(cert.members, prep.qm.maximal_bases[ids])


def test_verify_rejects_duplicate_member(capsys, tmp_path, cert_pair):
    text = cert_pair["0"].read_text()
    lines = [ln for ln in text.splitlines() if ln.startswith("maximal ")]
    dup = tmp_path / "dup.txt"
    dup.write_text(text.replace(lines[1], lines[0], 1))
    rc, out, _ = run(capsys, "verify", str(dup))
    assert rc == 1
    assert "duplicate" in out


def test_resolve_members_finds_a_member_written_twice_in_two_bases(capsys, tmp_path, cert_pair):
    # member 0 listed again in place of member 1, as a scaled row permutation
    # of its basis, resolves to the same id
    text = cert_pair["0"].read_text()
    cert = parse_certificate(text)
    F = cert.field
    again = F.mul_table[2, cert.members[0, ::-1]]
    assert not np.array_equal(again, cert.members[0])
    cert.members[1] = again
    assert resolve_members(cert, qmodel(3, 1, 2)) == (None, "duplicate members")
    lines = [ln for ln in text.splitlines() if ln.startswith("maximal ")]
    dup = tmp_path / "dup_scaled.txt"
    dup.write_text(text.replace(lines[1], f"maximal {format_matrix(F, again)}", 1))
    rc, out, _ = run(capsys, "verify", str(dup))
    assert rc == 1
    assert "duplicate members" in out


def test_verify_rejects_non_maximal_member(capsys, tmp_path, cert_pair):
    text = cert_pair["0"].read_text()
    lines = [ln for ln in text.splitlines() if ln.startswith("maximal ")]
    for idx in (0, 3):
        rows = lines[idx].split(" ", 1)[1].split("|")
        degenerate = "maximal " + "|".join([rows[0], rows[0]])
        bad = tmp_path / "notmax.txt"
        bad.write_text(text.replace(lines[idx], degenerate, 1))
        rc, out, _ = run(capsys, "verify", str(bad))
        assert rc == 1
        assert f"member {idx} is not a maximal" in out


def test_resolve_members_mixes_canonical_and_rewritten_bases():
    # canonical members are looked up, scaled and reordered ones reduced; the
    # ids are the certificate's, and a bad member is named by its own index
    prep = prepare(field_make(3), 3)
    ids = assemble(prep.report.split, 0)
    cert = parse_certificate(certificate_text(prep, 0, ids))
    F, members = cert.field, cert.members
    members[1::3] = F.mul_table[2, members[1::3]]
    members[2::5] = members[2::5, ::-1]
    got, reason = resolve_members(cert, prep.qm)
    assert reason is None and np.array_equal(got, ids)
    for at in (0, 4, len(ids) - 1):
        bad = dataclasses.replace(cert, members=members.copy())
        bad.members[at, 1] = bad.members[at, 0]
        reason = f"member {at} is not a maximal of the quadric"
        assert resolve_members(bad, prep.qm) == (None, reason)


def test_verify_rejects_wrong_member_count(capsys, tmp_path, cert_pair):
    text = cert_pair["0"].read_text()
    lines = [ln for ln in text.splitlines() if ln.startswith("maximal ")]
    short = tmp_path / "short.txt"
    short.write_text(text.replace(lines[0] + "\n", "", 1))
    rc, doc, _ = structured(capsys, "verify", str(short))
    assert rc == 1
    assert doc["ok"] is False
    assert doc["size"] == 19


# ---------------------------------------------------------------------------
# selftest


def test_selftest_baseline_all_pass(capsys):
    rc, doc, _ = structured(capsys, "selftest")
    assert rc == 0
    assert doc["ok"] is True
    assert [c["name"] for c in doc["checks"]] == [
        "field-axioms",
        "polarization",
        "witt-indices",
        "counts",
        "w-singular-orbits",
        "group-orders",
        "tau-properties",
        "ab-conditions",
        "hemisystem-roundtrip",
    ]
    assert all(c["ok"] for c in doc["checks"])


def test_selftest_extension_field(capsys):
    rc, doc, _ = structured(capsys, "selftest", "--p", "3", "--k", "2")
    assert rc == 0
    assert doc["q"] == 9
    assert all(c["ok"] for c in doc["checks"])


def test_selftest_text_reports_one_line_per_check(capsys):
    rc, out, _ = run(capsys, "selftest", "--p", "5")
    assert rc == 0
    assert sum(1 for ln in out.splitlines() if ln.startswith("pass ")) == 9
    assert "selftest passed" in out


def test_selftest_checks_the_pairing_against_the_orbits_of_a(capsys, monkeypatch):
    # a report that lost one pair and counts n_b = 2m by its own numbers;
    # only the orbits of A, partitioned by selftest itself, expose it
    real = hemi.ab_check

    def dropped(*args):
        rep = real(*args)
        split = hemi.OrbitSplit(rep.split.partition, rep.split.pairs[:-1])
        return dataclasses.replace(rep, split=split, n_b_maximal_orbits=2 * split.m)

    monkeypatch.setattr(hemi, "ab_check", dropped)
    rc, out, _ = run(capsys, "selftest")
    assert rc == 1
    assert "FAIL ab-conditions: AssertionError: n_b != 2 n_a" in out.splitlines()


def test_selftest_checks_the_predicates_against_the_closure(capsys, monkeypatch):
    # a predicate that also took every isometry of trace -1 still decides
    # prepare's few memberships right; only the listed tau B exposes it
    real = groups._in_omega

    def loose(space, reader, h):
        iso = (space.restrict_gram(h) == space.gram).all(axis=(1, 2))
        return real(space, reader, h) | (iso & (one_plus_trace(space.field, h) == 0))

    monkeypatch.setattr(groups, "_in_omega", loose)
    rc, out, _ = run(capsys, "selftest")
    assert rc == 1
    lines = out.splitlines()
    assert "FAIL group-orders: AssertionError: an element of tau B passes B's predicate" in lines
    assert [ln.split(":")[0] for ln in lines if ln.startswith("FAIL")] == ["FAIL group-orders"]


def test_selftest_checks_tau_squared_on_the_models_tau(capsys, monkeypatch):
    # tau g with g in B passes the AB check, which does not need tau^2 = 1;
    # selftest claims tau^2 = 1 of the model's tau and checks it there
    real = hemi.tau

    def tau_g(m):
        F, t = m.field, real(m)
        coset = mat_mul(F, t, hemi.omega_w(m).elements)
        return next(g for g in coset if not np.array_equal(mat_mul(F, g, g), identity(3)))

    monkeypatch.setattr(hemi, "tau", tau_g)
    rc, out, _ = run(capsys, "selftest")
    assert rc == 1
    assert "FAIL tau-properties: AssertionError: tau^2 != 1" in out.splitlines()
    assert "pass ab-conditions: " in out


def test_selftest_reports_a_corrupt_field_under_optimize():
    code = (
        "import sys\n"
        "from hemisystems import cli\n"
        "from hemisystems.gf import field_make\n"
        "field_make(3).add_table[1, 1] = 0\n"
        "sys.exit(cli.main(['selftest']))\n"
    )
    run = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=src_env(), timeout=300,
    )
    assert run.returncode == 1, run.stderr
    assert run.stdout.splitlines()[0].startswith("FAIL field-axioms: AssertionError: ")


# ---------------------------------------------------------------------------
# subprocess smoke: real exit codes through the console entry point


def test_subprocess_construct_then_verify(tmp_path):
    out = tmp_path / "cert.txt"
    build = subprocess.run(
        [sys.executable, "-m", "hemisystems.cli", "construct", "--out", str(out)],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert build.returncode == 0, build.stderr
    check = subprocess.run(
        [sys.executable, "-m", "hemisystems.cli", "verify", str(out)],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert check.returncode == 0, check.stderr
    assert "verified" in check.stdout
    bad = subprocess.run(
        [sys.executable, "-m", "hemisystems.cli", "stats", "--p", "2"],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert bad.returncode == 2


# ---------------------------------------------------------------------------
# frozen surface: every command's bytes, text and structured, and its failures

SURFACE_FIELDS = {"q3": ("--p", "3"), "q9": ("--p", "3", "--k", "2")}

# sha256 of (exit code, stdout, stderr) per command line; a digest changes
# only with a deliberate, documented change of the command's output
SURFACE_DIGESTS = {
    "stats q3 text": "0bb8b026d27b630a560b5d26d48964118e765739fd9f052d8baeb610f38919b9",
    "orbits q3 text": "80d5e4e3f24a889b587504b52170096e0e3891cb7193a7f6bc3bd30ca84941fc",
    "selftest q3 text": "9b51d406913e90642e3a89e6fd92dd3fd41baafcf043254d2c24c9cd470de16a",
    "construct q3 text": "42097ec40359665ebfeb6cf0d4a1e72fa2fff3e6080bd0e9fd2879a941405b0f",
    "stats q3 structured": "b2ebe06e8680c558f2086581a2d1a30cb2438449001f226457a76cdc4aadfcc1",
    "orbits q3 structured": "10d796efece4d8d4bfd5e15ce72ac443c03f7f71e35bd348abe2eea0dfcf324e",
    "selftest q3 structured": "c4c443a6c8f56beb86becacbdf6d4b587731dffb5c4e481b179d97b520e45343",
    "construct q3 structured": "afdc8d425a2077f7d08f5633a11ca56e884f391adc695f4d9c036245017bd96b",
    "certificate q3": "42097ec40359665ebfeb6cf0d4a1e72fa2fff3e6080bd0e9fd2879a941405b0f",
    "verify q3 text": "9bfac6d380d59e398ced2f8368f5441b071d8b78496a5da55d5ea8280f164a3c",
    "verify q3 structured": "50c1734d2f24beab78fb51567d8e2d47f883657622dfd6252e11130439565fda",
    "stats q9 text": "4b32af80575933af65e6b67546db8bc2f74db6a9e72bf25d780a2d96ef9af082",
    "orbits q9 text": "dc3e5238d029e80a248c2ca1556fb4f04e7198850c8ef9ab5dff97a9cfc4b62f",
    "selftest q9 text": "a51ef4fb427eb6b38d460ab9b9cc341a038ed692a93e850108ba9a8b6997b3af",
    "construct q9 text": "64a67b9da1d3b0260a5bcc96c7a10298e1bafa8177bd3c0d0963cfeb3b676389",
    "stats q9 structured": "844af4d176a460b0b2427dad2cb89d72074f1c4fd4d695fdc12e1a3e6ee13160",
    "orbits q9 structured": "59c8a1548efa247ac1b4b3903a4c4ce50b8d27ce06504f0fe0974c491406b8be",
    "selftest q9 structured": "b0da1e8d2c880918698d0fc19549e83708d1542b7913a36956a3612b6dc4bebf",
    "construct q9 structured": "540b650306791a505ac523a7821ccb49e4733633d84e9e556c998dc366b10987",
    "certificate q9": "64a67b9da1d3b0260a5bcc96c7a10298e1bafa8177bd3c0d0963cfeb3b676389",
    "verify q9 text": "f86b7f7654bb15a454a4411c33a9554dd0f907c6c2937f263972ed29941edf5c",
    "verify q9 structured": "8ef4e353a7666774789a30cdbd1327075df6a350784f669ef06cd2ebe72dbe2d",
    "rank one": "4dd94eee5842fc1f2b0df2e5a7904fa5ba0ea314b4001796a9270d0255d0b635",
    "negative cap": "da62f0d2014d5a8b67b2f72b2810d06bcc1f7f2ec15194d9e059c24435205cd2",
    "bad modulus": "5a920aee343983573b8c28e2ec002afe6dacfb2d8fd6186b6cd91fd9771e3f0b",
    "unknown flag": "98ed5ebd33d9712fee52a87968206f1bc53072f74dfc9c26e8d1973683ad31c8",
    "even characteristic": "40d334d0e43c68c42c5eca1c343435fc4d8b831a5b6b14d144d16c3ca1887f05",
    "missing file": "aaa45aad97b515aa6e004dd857c40267c9abf7f8324a1faba515b2a4887a438d",
    "truncated text": "c318976a868d26bd50948aeda3d26a380ec558b1f9e4ab934a6d0a98550fa97e",
    "truncated structured": "c318976a868d26bd50948aeda3d26a380ec558b1f9e4ab934a6d0a98550fa97e",
    "member deleted text": "4b4a39abedf96bd6f125029b029dc8bcad8f0fa7de57eb7fddd23b56d283e93e",
    "member deleted structured": "b5f02b7166f2c224720a6b827d6401f1d35b69f95aeb8e5bee47821163a83f43",
    "member repeated text": "bfbc3374c19236f134579cbe77db870da4bc574a9abeb3da4a7f3a1d08c0c065",
    "member repeated structured": "3c658d1b3eaed60e300d86253aa82e5d26071f7a10d90c7308afce49efacc861",
    "counts edited text": "5a4936f8ee97af0688d4f822ccd9f3448f71ac7b5aaefe6ef8dc874837dcdec5",
    "counts edited structured": "5a4936f8ee97af0688d4f822ccd9f3448f71ac7b5aaefe6ef8dc874837dcdec5",
}


def test_cli_surface_is_frozen(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    digests, certs = {}, {}

    def record(name, *argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        rc, out, err = run(capsys, *argv)
        digests[name] = hashlib.sha256(f"{rc}\0{out}\0{err}".encode()).hexdigest()
        return out

    for q, field in SURFACE_FIELDS.items():
        for fmt in ("text", "structured"):
            for cmd in ("stats", "orbits", "selftest"):
                record(f"{cmd} {q} {fmt}", cmd, *field, "--format", fmt)
            record(f"construct {q} {fmt}", "construct", "--mask", "3", *field, "--format", fmt)
        certs[q] = record(f"certificate {q}", "construct", "--mask", "3", *field)
        for fmt in ("text", "structured"):
            record(f"verify {q} {fmt}", "verify", "--format", fmt, stdin=certs[q])
    for name, argv in {
        "rank one": ("stats", "--d", "1"),
        "negative cap": ("orbits", "--cap", "-1"),
        "bad modulus": ("stats", "--modulus", "1,x"),
        "unknown flag": ("stats", "--bogus"),
        "even characteristic": ("stats", "--p", "4"),
        "missing file": ("verify", "missing.txt"),
    }.items():
        record(name, *argv)
    cert = certs["q3"]
    first, second = [ln for ln in cert.splitlines(True) if ln.startswith("maximal ")][:2]
    for name, text in {
        "truncated": cert[: len(cert) // 2],
        "member deleted": cert.replace(first, "", 1),
        "member repeated": cert.replace(first, second, 1),
        "counts edited": cert.replace("counts 40 40", "counts 40 41", 1),
    }.items():
        for fmt in ("text", "structured"):
            record(f"{name} {fmt}", "verify", "--format", fmt, stdin=text)
    assert digests == SURFACE_DIGESTS
