import tracemalloc

import numpy as np
import pytest

from hemisystems import certificate as cf
from hemisystems.certificate import certificate_text, parse_certificate
from hemisystems.gf import field_make
from hemisystems.hemi import assemble, prepare
from hemisystems.linform import format_matrices, parse_matrices
from test_linform import SERIALIZED_FIELDS, reference_format


def reference_block(F, stack):
    return "".join(f"maximal {reference_format(F, M)}\n" for M in stack)


def read_block(F, block, d):
    """The block reader on a text's bytes; a non-ASCII character reaches it
    as the bytes of its UTF-8 encoding."""
    return cf.parse_matrix_block(F, np.frombuffer(block.encode(), dtype=np.uint8), d)


@pytest.mark.parametrize("d", [2, 3])
def test_matrix_block_round_trip(d):
    # the block is format_matrices' text, read back as bytes at every p
    for p, k in SERIALIZED_FIELDS:
        F = field_make(p, k)
        stack = np.random.default_rng(9).integers(0, F.q, size=(6, d, 2 * d + 1)).astype(np.uint8)
        stack[0] = F.q - 1
        block = cf.format_matrix_block(F, stack)
        assert block == reference_block(F, stack)
        back = read_block(F, block, d)
        assert np.array_equal(back, stack)
        assert back.dtype == np.uint8


def test_matrix_block_reader_refuses_what_it_cannot_read_as_written():
    F = field_make(3, 2)
    stack = np.random.default_rng(3).integers(0, F.q, size=(4, 2, 5)).astype(np.uint8)
    block = cf.format_matrix_block(F, stack)
    assert np.array_equal(read_block(F, block, 2), stack)
    line = len(block) // 4
    for bad in (
        "",  # no lines
        block[:-1],  # a short last line
        block + "\n",  # a blank line
        block.replace("\n", "\r\n"),  # CRLF
        block.replace("maximal 0,", "maximal 00,", 1),  # a two-digit coefficient
        block[:line] + "maximal  " + block[line + 8:-1],  # a doubled space
        block.replace(";", "|", 1),  # a wrong separator
        block.replace("1", "3", 1),  # a digit >= p
        block.replace("1", "\u0661", 1),  # a non-ASCII digit
        block.replace("maximal ", "generator "),  # a generator block
    ):
        assert read_block(F, bad, 2) is None, repr(bad[:40])
    # a block of another rank
    assert read_block(F, block, 3) is None


@pytest.mark.parametrize("p", [11, 13])
def test_wide_block_round_trip_across_chunks(p):
    # GF(p^2) with one- and two-digit coefficients, on a block of one chunk
    # and 3 lines: the reader's one chunk boundary falls three lines from the end
    F = field_make(p, 2)
    C = cf._CHUNK_LINES
    stack = np.random.default_rng(p).integers(0, F.q, size=(C + 3, 2, 5)).astype(np.uint8)
    stack[-1] = F.q - 1
    block = cf.format_matrix_block(F, stack)
    lines = block.splitlines()
    assert lines[:3] == [f"maximal {s}" for s in format_matrices(F, stack[:3])]
    by_tokens = parse_matrices(F, [ln.split(" ", 1)[1] for ln in lines], 2, 5)
    back = read_block(F, block, 2)
    assert back.dtype == np.uint8
    assert np.array_equal(back, by_tokens) and np.array_equal(back, stack)
    # a stray byte on either side of the boundary, or in the last line, is seen
    at = [len("".join(ln + "\n" for ln in lines[:i])) for i in (C - 1, C, C + 2)]
    for i in at:
        bad = block[:i] + "maximal x" + block[i + len("maximal "):]
        assert read_block(F, bad, 2) is None


@pytest.mark.parametrize("p, k", [(7, 1), (3, 2)])
def test_fixed_block_round_trip_across_chunks(p, k):
    # the fixed-width reader checks and reads a chunk at a time; on a block of
    # one chunk and 3 lines its one boundary falls three lines from the end
    F = field_make(p, k)
    C = cf._CHUNK_LINES
    stack = np.random.default_rng(p).integers(0, F.q, size=(C + 3, 2, 5)).astype(np.uint8)
    stack[-1] = F.q - 1
    block = cf.format_matrix_block(F, stack)
    assert block == reference_block(F, stack)
    back = read_block(F, block, 2)
    assert back.dtype == np.uint8 and np.array_equal(back, stack)
    # a digit equal to p on either side of the boundary, or in the last line, is seen
    width = len(block) // (C + 3)
    for i in (C - 1, C, C + 2):
        at = i * width + len("maximal ")
        bad = block[:at] + str(p) + block[at + 1:]
        assert len(bad) == len(block) and read_block(F, bad, 2) is None


def test_wide_block_reader_refuses_what_it_cannot_read_as_written():
    F = field_make(13)
    stack = np.random.default_rng(4).integers(0, F.q, size=(4, 2, 5)).astype(np.uint8)
    stack[0, 0, :3] = (10, 0, 12)
    block = cf.format_matrix_block(F, stack)
    assert block.startswith("maximal 10;0;12;")
    assert np.array_equal(read_block(F, block, 2), stack)
    for bad in (
        "",  # no lines
        block[:-1],  # a short last line
        block + "\n",  # a blank line
        block.replace("\n", "\r\n"),  # CRLF
        block.replace("maximal 10;", "maximal 010;", 1),  # a leading zero
        block.replace("maximal 10;0;", "maximal 10;00;", 1),  # a doubled zero
        block.replace("maximal 10;", "maximal 13;", 1),  # a coefficient equal to p
        block.replace("maximal 10;", "maximal 100;", 1),  # three digits
        block.replace("maximal 10;", "maximal 65536;", 1),  # 0 in a uint16
        block.replace("maximal 10;0;", "maximal 10;;0", 1),  # a coefficient moved
        block.replace("maximal 10;", "m1aximal 0;", 1),  # a digit in the prefix
        block.replace("maximal 10;0;", "maximal 100;", 1),  # a dropped separator
        block.replace(";", "|", 1),  # a wrong separator
        block.replace("1", "\u0661", 1),  # a non-ASCII digit
        block.replace("maximal ", "generator "),  # a generator block
    ):
        assert read_block(F, bad, 2) is None, repr(bad[:40])
    # a block of another rank
    assert read_block(F, block, 3) is None


def mask_zero_certificate(p, d):
    prep = prepare(field_make(p), d)
    return certificate_text(prep, 0, assemble(prep.report.split, 0))


@pytest.mark.parametrize("p, d, copies, bound", [(7, 2, 30, 2.5), (11, 2, 20, 13.5)])
def test_parsing_a_canonical_certificate_copies_the_text_once(p, d, copies, bound):
    # the block reader reads a view of the text's one ASCII encoding; a slice
    # of the block and then the slice's encoding would be two copies of it
    # (peaks of 4.07 and 13.97 times the text here), and at p < 10 XOR and
    # bound arrays over the whole block peaked at 3.07 times the text
    text = mask_zero_certificate(p, d)
    head, tail = text.index("\nmaximal ") + 1, text.index("\nmask ") + 1
    text = text[:head] + text[head:tail] * copies + text[tail:]
    parse_certificate(text)  # the layouts and element strings are cached
    tracemalloc.start()
    try:
        cert = parse_certificate(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cert.members) == text.count("\nmaximal ")
    assert peak < bound * len(text), peak / len(text)


def test_the_writer_yields_the_block_a_chunk_at_a_time():
    # q=25, d=2: 8,138 members, one full chunk of the block and then the rest
    pr = prepare(field_make(5, 2), 2)
    ids = assemble(pr.report.split, 3)
    head, *block, tail = cf.certificate_chunks(pr, 3, ids)
    C = cf._CHUNK_LINES
    assert [piece.count("\n") for piece in block] == [C, ids.size - C]
    assert {ln.split(" ", 1)[0] for piece in block for ln in piece.splitlines()} == {"maximal"}
    assert head.endswith("\n") and "\nmaximal " not in head
    assert tail == f"mask 3 {pr.report.m}\nend\n"


def test_writing_a_certificate_holds_the_text_and_its_chunks():
    # the chunks and their join are two texts' worth; one byte array for the
    # whole block, its bytes and their str peaked at 3.85 times the text here
    pr = prepare(field_make(5), 3)
    ids = assemble(pr.report.split, 0)
    text = certificate_text(pr, 0, ids)  # the layouts and element strings are cached
    tracemalloc.start()
    try:
        again = certificate_text(pr, 0, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == text
    assert peak < 2.5 * len(text), peak / len(text)


def test_members_out_of_order_resolve_and_a_repeat_among_them_is_refused():
    # a canonical certificate lists its members ascending, which skips the
    # duplicate count; lines in any other order are counted for a repeat
    pr = prepare(field_make(3), 3)
    ids = assemble(pr.report.split, 6)
    lines = certificate_text(pr, 6, ids).splitlines(keepends=True)
    at = [i for i, ln in enumerate(lines) if ln.startswith("maximal ")]
    head, members, tail = lines[:at[0]], lines[at[0]:at[-1] + 1], lines[at[-1] + 1:]
    reversed_ids, reason = cf.resolve_members(
        parse_certificate("".join(head + members[::-1] + tail)), pr.qm
    )
    assert reason is None and np.array_equal(reversed_ids, ids[::-1])
    for repeated in (members[::-1] + members[3:4], members[:3] + members[2:]):
        cert = parse_certificate("".join(head + repeated + tail))
        assert cf.resolve_members(cert, pr.qm) == (None, "duplicate members")
