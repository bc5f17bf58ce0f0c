"""Exact arithmetic in GF(p^k) for odd prime powers.

An element with polynomial coefficients (c0, c1, ..., c_{k-1}) over GF(p),
little-endian by degree, is encoded as the integer c0 + c1*p + ... +
c_{k-1}*p^(k-1).  Encoded integers in [0, q) are the element representation
used everywhere downstream, and the integer order is the canonical element
order: the prime subfield comes first as 0, 1, ..., p-1.

All arithmetic is table driven.  A Field instance precomputes dense q x q
numpy tables for addition and multiplication plus unary tables for negation,
inversion and square roots, so scalar operations and bulk numpy gathers give
identical results.  For k = 1 the encoding coincides with integers mod p.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np


class NotOddPrime(ValueError):
    """The characteristic is not an odd prime."""


class NotIrreducible(ValueError):
    """The modulus polynomial is not irreducible over GF(p)."""


class NoBuiltinModulus(ValueError):
    """No built-in modulus is provided for this field order."""


class DivisionByZero(ZeroDivisionError):
    """Division or inversion of the zero element."""


#: field orders with a built-in modulus when none is supplied
BUILTIN_ORDERS = (9, 25, 27, 49, 81, 121, 125)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# ---------------------------------------------------------------------------
# dense polynomial helpers over GF(p), coefficients little-endian by degree


def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_mul(p, a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(p, a, b):
    b = _poly_trim(list(b))
    a = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    while len(_poly_trim(a)) >= len(b):
        a = _poly_trim(a)
        shift = len(a) - len(b)
        factor = a[-1] * inv_lead % p
        quo[shift] = factor
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bi) % p
    return quo, _poly_trim(a)


def _poly_is_irreducible(p, f):
    """Trial division by every monic polynomial of degree 1..deg(f)//2."""
    f = _poly_trim(list(f))
    deg = len(f) - 1
    if deg < 1:
        return False
    for g_deg in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=g_deg):
            g = list(tail) + [1]
            _, rem = _poly_divmod(p, f, g)
            if not rem:
                return False
    return True


def _builtin_modulus(p, k):
    """Smallest monic irreducible of degree k, by encoded coefficient order."""
    for code in range(p**k):
        coeffs = []
        c = code
        for _ in range(k):
            coeffs.append(c % p)
            c //= p
        cand = tuple(coeffs) + (1,)
        if _poly_is_irreducible(p, cand):
            return cand
    raise NotIrreducible(f"no irreducible of degree {k} over GF({p})")


class Field:
    """GF(p^k) with dense lookup tables over encoded elements.

    Attributes
    ----------
    p, k, q : int
        Characteristic, extension degree, order q = p^k.
    modulus : tuple of int
        Monic modulus polynomial of degree k, little-endian, length k + 1.
    add_table, mul_table : (q, q) uint8 arrays
    neg_table, inv_table, sqrt_table : (q,) arrays
        inv_table[0] and sqrt_table[a] for non-squares hold 0 as a filler;
        use the scalar methods for checked access.
    square_mask : (q,) bool array
        True where the element is a square (0 counts as a square).
    """

    def __init__(self, p: int, k: int = 1, modulus=None):
        if not _is_prime(p) or p == 2:
            raise NotOddPrime(f"p={p} is not an odd prime")
        if k < 1:
            raise ValueError(f"extension degree k={k} must be >= 1")
        q = p**k
        if q > 255:
            raise ValueError(f"q={q} is too large: element tables are uint8, so q <= 255")
        if modulus is None:
            if k == 1:
                modulus = (0, 1)
            elif q in BUILTIN_ORDERS:
                modulus = _builtin_modulus(p, k)
            else:
                raise NoBuiltinModulus(f"no built-in modulus for q={q}; pass one")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {k}")
        if k > 1 and not _poly_is_irreducible(p, modulus):
            raise NotIrreducible(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = modulus
        self._build_tables()

    # -- table construction

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        digits = np.zeros((q, k), dtype=np.int64)
        c = np.arange(q)
        for i in range(k):
            digits[:, i] = c % p
            c = c // p
        self._digits = digits
        powers = p ** np.arange(k)

        add_digits = (digits[:, None, :] + digits[None, :, :]) % p
        self.add_table = (add_digits @ powers).astype(np.uint8)
        self.neg_table = (((-digits) % p) @ powers).astype(np.uint8)

        mul = np.zeros((q, q), dtype=np.uint8)
        if k == 1:
            mul[:, :] = (np.arange(q)[:, None] * np.arange(q)[None, :]) % p
        else:
            polys = [_poly_trim([int(d) for d in digits[a]]) for a in range(q)]
            mod = list(self.modulus)
            for a in range(q):
                for b in range(a, q):
                    prod = _poly_mul(p, polys[a], polys[b])
                    if len(prod) > k:
                        _, prod = _poly_divmod(p, prod, mod)
                    code = sum(ci * p**i for i, ci in enumerate(prod))
                    mul[a, b] = code
                    mul[b, a] = code
        self.mul_table = mul

        inv = np.zeros(q, dtype=np.uint8)
        rows, cols = np.nonzero(mul == 1)
        inv[rows] = cols
        self.inv_table = inv

        squares = mul[np.arange(q), np.arange(q)]
        self.square_mask = np.zeros(q, dtype=bool)
        self.square_mask[squares] = True
        sqrt = np.zeros(q, dtype=np.uint8)
        seen = np.zeros(q, dtype=bool)
        for b in range(q):
            s = int(squares[b])
            if not seen[s]:
                seen[s] = True
                sqrt[s] = b
        self.sqrt_table = sqrt

    # -- scalar arithmetic on encoded elements

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[a, self.neg_table[b]])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return int(self.inv_table[a])

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise DivisionByZero("division by 0")
        return int(self.mul_table[a, self.inv_table[b]])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        out, base = 1, a
        while e:
            if e & 1:
                out = int(self.mul_table[out, base])
            base = int(self.mul_table[base, base])
            e >>= 1
        return out

    def is_square(self, a: int) -> bool:
        return bool(self.square_mask[a])

    def sqrt(self, a: int) -> int:
        if not self.square_mask[a]:
            raise ValueError(f"element {a} is not a square")
        return int(self.sqrt_table[a])

    @property
    def first_nonsquare(self) -> int:
        """Least non-square in the canonical element order."""
        return int(np.nonzero(~self.square_mask)[0][0])

    def elements(self) -> range:
        return range(self.q)

    # -- coefficient view and serialization

    def coeffs(self, a: int) -> tuple:
        return tuple(int(d) for d in self._digits[a])

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) != self.k:
            raise ValueError(f"expected {self.k} coefficients")
        return sum((int(c) % self.p) * self.p**i for i, c in enumerate(cs))

    def format_elt(self, a: int) -> str:
        return ",".join(str(d) for d in self.coeffs(a))

    def parse_elt(self, s: str) -> int:
        return self.from_coeffs(int(t) for t in s.split(","))

    # -- identity

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.q};{self.format_elt(self.from_coeffs(self.modulus[:-1]))},1)"


@functools.lru_cache(maxsize=None)
def _field_cached(p, k, modulus):
    return Field(p, k, modulus)


def field_make(p: int, k: int = 1, modulus=None) -> Field:
    """Construct (and cache) GF(p^k), with the built-in modulus if omitted."""
    if modulus is None and k == 1:
        modulus = (0, 1)
    if modulus is None and _is_prime(p) and p**k in BUILTIN_ORDERS:
        modulus = _builtin_modulus(p, k)
    key = None if modulus is None else tuple(int(c) for c in modulus)
    return _field_cached(p, k, key)
