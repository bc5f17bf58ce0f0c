import itertools
import re

import numpy as np
import pytest

from hemisystems import gf
from hemisystems.certificate import CERT_MAGIC, ParseError, parse_certificate
from hemisystems.cli import main
from hemisystems.gf import (
    DivisionByZero,
    Field,
    NotIrreducible,
    NotOddPrime,
    field_make,
)

AXIOM_FIELDS = [(3, 1), (7, 1), (3, 2), (5, 2)]
ALL_FIELDS = [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3)]
#: the default moduli, little-endian: the least irreducible by encoding, for
#: every odd q <= 255 that is a power of a prime but not prime
BUILTIN_MODULI = {
    (3, 2): (1, 0, 1),
    (5, 2): (2, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (7, 2): (1, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (11, 2): (1, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (13, 2): (2, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
}


def schoolbook_product(p, modulus, a, b):
    """a * b mod the monic modulus, by long multiplication and long division."""
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, j in itertools.product(range(k), repeat=2):
        prod[i + j] = (prod[i + j] + a[i] * b[j]) % p
    for top in range(2 * k - 2, k - 1, -1):
        lead = prod[top]
        for i, c in enumerate(modulus):
            prod[top - k + i] = (prod[top - k + i] - lead * c) % p
    return prod[:k]


# ---------------------------------------------------------------------------
# construction


def test_make_examples():
    F = field_make(7)
    assert (F.p, F.k, F.q) == (7, 1, 7)
    assert F.modulus == (0, 1)
    F9 = field_make(3, 2)
    assert F9.q == 9
    assert F9.modulus == (1, 0, 1)  # x^2 + 1, smallest irreducible by encoding
    assert field_make(3, 2, (1, 0, 1)) is F9


def test_make_rejects():
    with pytest.raises(NotOddPrime):
        field_make(2)
    with pytest.raises(NotOddPrime):
        field_make(4)
    with pytest.raises(NotOddPrime):
        field_make(9)
    with pytest.raises(ValueError):
        field_make(3, 0)
    with pytest.raises(NotIrreducible):
        field_make(3, 2, (0, 0, 1))  # x^2 = x * x
    with pytest.raises(NotIrreducible):
        field_make(3, 2, (2, 0, 1))  # x^2 + 2 has root 1
    with pytest.raises(ValueError):
        field_make(3, 2, (1, 0, 2))  # not monic


@pytest.mark.parametrize("p,k,rank", [(13, 2, 3), (3, 5, 8)])
def test_default_modulus_is_the_least_irreducible_by_encoding(p, k, rank):
    # q = 169 and q = 243 have a default modulus, as every odd q <= 255 has:
    # x^2 + 2 is the 3rd monic quadratic over GF(13) by encoding and
    # x^5 + 2x + 1 the 8th monic quintic over GF(3); all before them factor
    modulus = field_make(p, k).modulus
    assert modulus == BUILTIN_MODULI[(p, k)]
    code = sum(c * p**i for i, c in enumerate(modulus[:k]))
    assert code == rank - 1
    for smaller in range(code):
        digits = tuple(smaller // p**i % p for i in range(k))
        with pytest.raises(NotIrreducible):
            Field(p, k, digits + (1,))


def test_orders_beyond_uint8_tables_are_rejected(capsys):
    with pytest.raises(ValueError, match="255"):
        Field(257)
    assert Field(251).add(128, 128) == 5  # the largest prime whose tables fit
    with pytest.raises(ParseError):
        parse_certificate(f"{CERT_MAGIC} 1\nfield 257 1 0,1\nrank 2\n")
    assert main(["stats", "--p", "257"]) == 2
    assert "255" in capsys.readouterr().err


def test_builtin_moduli_are_frozen():
    # every odd q <= 255 that is a power of a prime but not prime
    odd_primes = [n for n in range(3, 256) if all(n % f for f in range(2, n))]
    powers = sorted({p**k for p in odd_primes for k in range(2, 6) if p**k <= 255})
    assert powers == [9, 25, 27, 49, 81, 121, 125, 169, 243]
    assert sorted(p**k for p, k in BUILTIN_MODULI) == powers
    for (p, k), modulus in BUILTIN_MODULI.items():
        assert field_make(p, k).modulus == modulus


def test_reducible_modulus_without_a_root_is_rejected():
    # (x^2 + 1)^2 = x^4 + 2x^2 + 1 has no root in GF(3), but x^2 + 1 divides it
    with pytest.raises(NotIrreducible):
        Field(3, 4, (1, 0, 2, 0, 1))


@pytest.mark.parametrize("p,k,count", [(3, 4, 18), (5, 3, 40)])
def test_accepted_moduli_match_gauss_count(p, k, count):
    # Gauss: (1/k) sum over d | k of mu(d) p^(k/d) monic irreducibles of degree k
    accepted = 0
    for tail in itertools.product(range(p), repeat=k):
        try:
            Field(p, k, tail + (1,))
        except NotIrreducible:
            continue
        accepted += 1
    assert accepted == count


def test_oversized_fields_are_refused_before_the_primality_test(monkeypatch):
    # trial division of a 61-bit prime would not finish; the size check must
    # come first, in Field and in field_make alike
    monkeypatch.setattr(gf, "_is_prime", lambda n: pytest.fail(f"primality test of {n} ran"))
    with pytest.raises(ValueError, match="255"):
        Field(2**61 - 1)
    with pytest.raises(ValueError, match="255"):
        field_make(2**61 - 1, 2)


def test_builtin_moduli_deterministic():
    for p, k in BUILTIN_MODULI:
        F1 = field_make(p, k)
        F2 = field_make(p, k, F1.modulus)
        assert F1.modulus == F2.modulus
        assert F1.modulus[-1] == 1 and len(F1.modulus) == k + 1


# ---------------------------------------------------------------------------
# element order and coefficient view


def test_elements_order():
    # the elements are encoded as 0 .. q - 1, the prime field first
    F9 = field_make(3, 2)
    assert len({F9.coeffs(a) for a in range(F9.q)}) == 9
    assert [F9.coeffs(a) for a in range(3)] == [(0, 0), (1, 0), (2, 0)]
    assert F9.coeffs(0) == (0, 0)
    assert F9.coeffs(2) == (2, 0)
    assert F9.coeffs(3) == (0, 1)  # the polynomial generator x


def test_coeffs_roundtrip():
    for p, k in ALL_FIELDS:
        F = field_make(p, k)
        for a in range(F.q):
            assert F.from_coeffs(F.coeffs(a)) == a
            assert F.parse_elt(F.format_elt(a)) == a


def test_serialization_example():
    F9 = field_make(3, 2)
    a = F9.from_coeffs((2, 1))  # 2 + x
    assert a == 5
    assert F9.format_elt(a) == "2,1"
    assert F9.parse_elt("2,1") == a


def test_parse_elt_reads_ascii_digits_below_p():
    # as certificate.parse_int reads integers; int() would take a sign, a
    # space, an underscore and other scripts' digits, and from_coeffs would
    # reduce a coefficient of p or more
    F3, F9 = field_make(3), field_make(3, 2)
    assert F3.parse_elt("02") == 2 and F9.parse_elt("2,01") == F9.from_coeffs((2, 1))
    for F, bad in (
        (F3, "+1"), (F3, "-1"), (F3, " 1"), (F3, "1 "), (F3, "0_1"), (F3, "3"), (F3, "\u0661"),
        (F3, ""), (F9, "1,3"), (F9, "1"), (F9, "1,0,0"), (F9, "1,+0"), (F9, "1, 0"),
    ):
        with pytest.raises(ValueError, match=rf"^{re.escape(repr(bad))} is not an element of GF\({F.q}\)$"):
            F.parse_elt(bad)


# ---------------------------------------------------------------------------
# field axioms, exhaustive on small fields


@pytest.mark.parametrize("p,k", AXIOM_FIELDS)
def test_axioms(p, k):
    F = field_make(p, k)
    q = F.q
    a = np.arange(q)
    ADD, MUL = F.add_table, F.mul_table
    assert (ADD == ADD.T).all() and (MUL == MUL.T).all()
    assert (ADD[0] == a).all() and (MUL[1] == a).all()
    assert (MUL[0] == 0).all()
    assert (ADD[a, F.neg_table[a]] == 0).all()
    # associativity and distributivity over all triples
    assert (ADD[ADD[a[:, None, None], a[None, :, None]], a[None, None, :]]
            == ADD[a[:, None, None], ADD[a[None, :, None], a[None, None, :]]]).all()
    assert (MUL[MUL[a[:, None, None], a[None, :, None]], a[None, None, :]]
            == MUL[a[:, None, None], MUL[a[None, :, None], a[None, None, :]]]).all()
    assert (MUL[a[:, None, None], ADD[a[None, :, None], a[None, None, :]]]
            == ADD[MUL[a[:, None, None], a[None, :, None]], MUL[a[:, None, None], a[None, None, :]]]).all()


@pytest.mark.parametrize("p,k", ALL_FIELDS)
def test_inverses_and_frobenius(p, k):
    F = field_make(p, k)
    for x in range(1, F.q):
        assert F.mul(x, F.inv(x)) == 1
        assert F.div(1, x) == F.inv(x)
    for x in range(F.q):
        powers = [1]
        for _ in range(F.q):
            powers.append(F.mul(powers[-1], x))
        assert powers[F.q] == x  # Frobenius fixed points
        if x:
            assert powers[F.q - 2] == F.inv(x)
    with pytest.raises(DivisionByZero):
        F.inv(0)
    with pytest.raises(DivisionByZero):
        F.div(1, 0)


def test_characteristic():
    for p, k in ALL_FIELDS:
        F = field_make(p, k)
        x = 1
        for _ in range(p - 1):
            x = F.add(x, 1)
        assert x == 0


def test_scalar_examples():
    F7 = field_make(7)
    assert F7.inv(3) == 5
    F5 = field_make(5)
    assert F5.add(4, 3) == 2
    F9 = field_make(3, 2)
    x = F9.from_coeffs((0, 1))
    assert F9.mul(x, x) == 2  # x^2 = -1 = 2 with modulus x^2 + 1


@pytest.mark.parametrize("p,k", sorted(set(ALL_FIELDS) | set(BUILTIN_MODULI)))
def test_mul_table_matches_schoolbook_product(p, k):
    F = field_make(p, k)
    coeffs = [F.coeffs(a) for a in range(F.q)]
    expected = [[F.from_coeffs(schoolbook_product(p, F.modulus, a, b)) for b in coeffs] for a in coeffs]
    assert F.mul_table.dtype == np.uint8
    assert np.array_equal(F.mul_table, expected)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 2), (3, 3), (5, 3)])
def test_array_arithmetic_matches_the_tables(p, k):
    # every pair, as a (q, 1) x (1, q) broadcast, gathered at a·q + b; at
    # q = 125 that index passes 255, so it must not wrap in uint8
    F = field_make(p, k)
    a = np.arange(F.q, dtype=np.uint8)
    for got, table in (
        (F.add_arrays(a[:, None], a[None, :]), F.add_table),
        (F.mul_arrays(a[:, None], a[None, :]), F.mul_table),
    ):
        assert got.dtype == np.uint8 and np.array_equal(got, table)


# ---------------------------------------------------------------------------
# squares


@pytest.mark.parametrize("p,k", ALL_FIELDS)
def test_square_structure(p, k):
    F = field_make(p, k)
    brute = {F.mul(x, x) for x in range(F.q)}
    assert {a for a in range(F.q) if F.is_square(a)} == brute
    assert F.is_square(0)
    nonzero_squares = brute - {0}
    assert len(nonzero_squares) == (F.q - 1) // 2
    for a in nonzero_squares:
        r = F.sqrt(a)
        assert F.mul(r, r) == a
    for r in range(F.q):
        assert F.sqrt_table[F.mul(r, r)] <= r  # the least root
    ns = F.first_nonsquare
    assert not F.is_square(ns)
    assert all(F.is_square(a) for a in range(ns))


def test_first_nonsquare_examples():
    assert field_make(3).first_nonsquare == 2
    assert field_make(5).first_nonsquare == 2
    assert field_make(7).first_nonsquare == 3
    F9 = field_make(3, 2)
    assert F9.first_nonsquare == F9.from_coeffs((1, 1))  # 1 + x

