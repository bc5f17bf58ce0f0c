"""Command-line surface: exit codes, certificate round trips, rejections."""

import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hemibench.workloads import RUNGS
from hemisystems import cli
from hemisystems.cli import (
    CERT_MAGIC,
    ParseError,
    certificate_text,
    main,
    parse_certificate,
    resolve_members,
)
from hemisystems import hemi
from hemisystems.gf import field_make
from hemisystems.groups import embed_w_block
from hemisystems.hemi import assemble, prepare
from hemisystems.linform import format_matrix, parse_matrices, rref
from conftest import model, qmodel  # noqa: F401 - shared cached fixtures
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
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
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
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    run = subprocess.run(
        [sys.executable, "-c", code, str(cert)],
        capture_output=True, text=True, env=env, timeout=300,
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
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "hemisystems.cli", *argv],
        capture_output=True, text=True, env=env, timeout=10,
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
    monkeypatch.setattr(cli, "parse_matrix_block", lambda *args: None)


def test_byte_and_line_parsers_agree_on_single_byte_edits(monkeypatch):
    # every byte of the first and last member lines of a (3,3) certificate,
    # and the line breaks around the block, replaced by each of these
    prep = prepare(field_make(3), 3)
    text = certificate_text(prep, 0, assemble(prep.report.split, 0))
    head = text.index("\nmaximal ")
    tail = text.index("\nmask ")
    width = text.index("\n", head + 1) - head
    where = [*range(head, head + width + 1), *range(tail - width, tail + 2)]
    edits = [text[:i] + c + text[i + 1:] for i in where for c in "03;|, x" if text[i] != c]
    read = []
    real = cli.parse_matrix_block
    monkeypatch.setattr(
        cli, "parse_matrix_block", lambda *args: read.append(real(*args)) or read[-1]
    )
    got = [parse_outcome(t) for t in edits]
    # a nonzero digit edited to 0 leaves the block canonical
    assert any(r is not None for r in read)
    line_parser_only(monkeypatch)
    want = [parse_outcome(t) for t in edits]
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


@pytest.mark.parametrize("p, k, d", [(5, 1, 3), (5, 2, 2)])
def test_canonical_member_block_is_read_as_bytes(monkeypatch, p, k, d):
    prep = prepare(field_make(p, k), d)
    ids = assemble(prep.report.split, 1)
    text = certificate_text(prep, 1, ids)
    with monkeypatch.context() as patch:
        line_parser_only(patch)
        by_lines = certificate_fields(parse_certificate(text))
    real = cli.parse_matrices

    def members_refused(F, tokens, rows, cols):
        if rows == d:
            raise AssertionError("the member block went through parse_matrices")
        return real(F, tokens, rows, cols)

    monkeypatch.setattr(cli, "parse_matrices", members_refused)
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
    cert = parse_certificate(cli.certificate_text(prep, 0, ids))
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
    # a report that lost one pair and counts n_b = 2 n_a = 2m by its own
    # numbers; only the orbits of A, partitioned by selftest itself, expose it
    real = hemi.ab_check

    def dropped(*args):
        rep = real(*args)
        split = hemi.OrbitSplit(rep.split.partition, rep.split.pairs[:-1])
        return dataclasses.replace(
            rep, split=split, n_b_maximal_orbits=2 * split.m, n_a_maximal_orbits=split.m
        )

    monkeypatch.setattr(hemi, "ab_check", dropped)
    rc, out, _ = run(capsys, "selftest")
    assert rc == 1
    assert "FAIL ab-conditions: AssertionError: n_b != 2 n_a" in out.splitlines()


def test_selftest_reports_a_corrupt_field_under_optimize():
    code = (
        "import sys\n"
        "from hemisystems import cli\n"
        "from hemisystems.gf import field_make\n"
        "field_make(3).add_table[1, 1] = 0\n"
        "sys.exit(cli.main(['selftest']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=300
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
    )
    assert build.returncode == 0, build.stderr
    check = subprocess.run(
        [sys.executable, "-m", "hemisystems.cli", "verify", str(out)],
        capture_output=True,
        text=True,
    )
    assert check.returncode == 0, check.stderr
    assert "verified" in check.stdout
    bad = subprocess.run(
        [sys.executable, "-m", "hemisystems.cli", "stats", "--p", "2"],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 2
