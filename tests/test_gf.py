import numpy as np
import pytest

from hemisystems.cli import CERT_MAGIC, ParseError, main, parse_certificate
from hemisystems.gf import (
    BUILTIN_ORDERS,
    DivisionByZero,
    Field,
    NoBuiltinModulus,
    NotIrreducible,
    NotOddPrime,
    field_make,
)

AXIOM_FIELDS = [(3, 1), (7, 1), (3, 2), (5, 2)]
ALL_FIELDS = [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3)]


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
    with pytest.raises(NoBuiltinModulus):
        field_make(3, 5)


def test_orders_beyond_uint8_tables_are_rejected(capsys):
    with pytest.raises(ValueError, match="255"):
        Field(257)
    assert Field(251).add(128, 128) == 5  # the largest prime whose tables fit
    with pytest.raises(ParseError):
        parse_certificate(f"{CERT_MAGIC} 1\nfield 257 1 0,1\nrank 2\n")
    assert main(["stats", "--p", "257"]) == 2
    assert "255" in capsys.readouterr().err


def test_builtin_moduli_deterministic():
    for q in BUILTIN_ORDERS:
        p = min(f for f in range(2, q + 1) if q % f == 0)
        k = 0
        n = q
        while n > 1:
            n //= p
            k += 1
        F1 = field_make(p, k)
        F2 = field_make(p, k, F1.modulus)
        assert F1.modulus == F2.modulus
        assert F1.modulus[-1] == 1 and len(F1.modulus) == k + 1


# ---------------------------------------------------------------------------
# element order and coefficient view


def test_elements_order():
    F = field_make(3)
    assert list(F.elements()) == [0, 1, 2]
    F9 = field_make(3, 2)
    els = list(F9.elements())
    assert len(els) == 9 and len(set(els)) == 9
    assert els[:3] == [0, 1, 2]
    assert F9.coeffs(0) == (0, 0)
    assert F9.coeffs(2) == (2, 0)
    assert F9.coeffs(3) == (0, 1)  # the polynomial generator x


def test_coeffs_roundtrip():
    for p, k in ALL_FIELDS:
        F = field_make(p, k)
        for a in F.elements():
            assert F.from_coeffs(F.coeffs(a)) == a
            assert F.parse_elt(F.format_elt(a)) == a


def test_serialization_example():
    F9 = field_make(3, 2)
    a = F9.from_coeffs((2, 1))  # 2 + x
    assert a == 5
    assert F9.format_elt(a) == "2,1"
    assert F9.parse_elt("2,1") == a


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
    for x in F.elements():
        assert F.pow(x, F.q) == x  # Frobenius fixed points
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


# ---------------------------------------------------------------------------
# squares


@pytest.mark.parametrize("p,k", ALL_FIELDS)
def test_square_structure(p, k):
    F = field_make(p, k)
    brute = {F.mul(x, x) for x in F.elements()}
    assert {a for a in F.elements() if F.is_square(a)} == brute
    assert F.is_square(0)
    nonzero_squares = brute - {0}
    assert len(nonzero_squares) == (F.q - 1) // 2
    for a in nonzero_squares:
        r = F.sqrt(a)
        assert F.mul(r, r) == a
    ns = F.first_nonsquare
    assert not F.is_square(ns)
    assert all(F.is_square(a) for a in range(ns))


def test_first_nonsquare_examples():
    assert field_make(3).first_nonsquare == 2
    assert field_make(5).first_nonsquare == 2
    assert field_make(7).first_nonsquare == 3
    F9 = field_make(3, 2)
    assert F9.first_nonsquare == F9.from_coeffs((1, 1))  # 1 + x


def test_pow_matches_repeated_mul():
    F = field_make(5, 2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = int(rng.integers(1, F.q))
        e = int(rng.integers(0, 60))
        out = 1
        for _ in range(e):
            out = F.mul(out, a)
        assert F.pow(a, e) == out
        assert F.pow(a, -1) == F.inv(a)
