"""Exact arithmetic in GF(p^k) for odd prime powers.

An element with polynomial coefficients (c0, c1, ..., c_{k-1}) over GF(p),
little-endian by degree, is encoded as the integer c0 + c1*p + ... +
c_{k-1}*p^(k-1).  Encoded integers in [0, q) are the element representation
used everywhere downstream, and the integer order is the canonical element
order: the prime subfield comes first as 0, 1, ..., p-1.

All arithmetic is table driven.  A Field instance precomputes dense q x q
numpy tables for addition and multiplication plus unary tables for negation,
inversion and square roots, so scalar operations and bulk numpy gathers give
identical results.  GF(p)[x]/(f) is linear algebra over GF(p): multiplication
by x is the companion matrix C of the monic modulus f, so each element
b = sum b_i x^i acts on the rows of base-p digits as sum b_i C^i, and the
product table is the digit rows times these action matrices, for k = 1 as
for k > 1.  f is irreducible exactly when that ring has no zero divisors, so
the table itself checks a supplied modulus and, when none is supplied,
picks the least irreducible one by encoding, for every q.
"""

from __future__ import annotations

import numpy as np


class NotOddPrime(ValueError):
    """The characteristic is not an odd prime."""


class NotIrreducible(ValueError):
    """The modulus polynomial is not irreducible over GF(p)."""


class DivisionByZero(ZeroDivisionError):
    """Division or inversion of the zero element."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _order(p: int, k: int) -> int:
    """q = p^k, once p is an odd prime and q fits the uint8 tables.

    Sizes are checked before primality and before p^k is formed, so a huge
    p or k is refused at once: with p >= 3, q <= 255 needs k <= 5.
    """
    too_large = f"q={p}^{k} is too large: element tables are uint8, so q <= 255"
    if p > 255:
        raise ValueError(too_large)
    if p == 2 or not _is_prime(p):
        raise NotOddPrime(f"p={p} is not an odd prime")
    if k < 1:
        raise ValueError(f"extension degree k={k} must be >= 1")
    if k > 5 or p**k > 255:
        raise ValueError(too_large)
    return p**k


def _mul_table(p: int, digits: np.ndarray, modulus: tuple) -> np.ndarray:
    """The (q, q) product table of GF(p)[x]/(modulus) over encoded elements.

    With C the companion matrix of the modulus, a row of digits times C is
    the digits of that element times x.  So the action matrix of b, whose
    row i holds the digits of b * x^i, is sum_j b_j C^j, and a * b is the
    digit row of a times that matrix.
    """
    k = digits.shape[1]
    comp = np.zeros((k, k), dtype=np.int64)
    comp[np.arange(k - 1), np.arange(1, k)] = 1
    comp[k - 1] = np.negative(modulus[:k]) % p
    action = np.empty((len(digits), k, k), dtype=np.int64)
    action[:, 0] = digits
    for i in range(1, k):
        action[:, i] = action[:, i - 1] @ comp % p
    # prod[b, a] = digits[a] @ action[b], the digits of a * b = b * a
    prod = digits @ action % p
    return (prod @ p ** np.arange(k)).astype(np.uint8)


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
        q = _order(p, k)
        digits = np.zeros((q, k), dtype=np.int64)
        c = np.arange(q)
        for i in range(k):
            digits[:, i] = c % p
            c = c // p
        if modulus is None:
            candidates = (tuple(row.tolist()) + (1,) for row in digits)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {k}")
            candidates = [modulus]
        # the quotient ring is a field exactly when it has no zero divisors
        for modulus in candidates:
            mul = _mul_table(p, digits, modulus)
            if mul[1:, 1:].all():
                break
        else:
            raise NotIrreducible(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = modulus
        self._digits = digits
        powers = p ** np.arange(k)
        self.add_table = ((digits[:, None, :] + digits[None, :, :]) % p @ powers).astype(np.uint8)
        self.neg_table = ((-digits) % p @ powers).astype(np.uint8)
        self.mul_table = mul

        inv = np.zeros(q, dtype=np.uint8)
        rows, cols = np.nonzero(mul == 1)
        inv[rows] = cols
        self.inv_table = inv

        # np.unique returns the first index of each value: the least root
        squares, roots = np.unique(np.diagonal(mul), return_index=True)
        self.square_mask = np.zeros(q, dtype=bool)
        self.square_mask[squares] = True
        self.sqrt_table = np.zeros(q, dtype=np.uint8)
        self.sqrt_table[squares] = roots

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

    def is_square(self, a: int) -> bool:
        return bool(self.square_mask[a])

    def sqrt(self, a: int) -> int:
        if not self.square_mask[a]:
            raise ValueError(f"element {a} is not a square")
        return int(self.sqrt_table[a])

    # -- elementwise arithmetic on broadcastable arrays of encoded elements,
    # one gather from the flattened table at the uint16 index a·q + b < q^2

    def add_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.take(self.add_table.ravel(), a.astype(np.uint16) * self.q + b)

    def mul_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.take(self.mul_table.ravel(), a.astype(np.uint16) * self.q + b)

    @property
    def first_nonsquare(self) -> int:
        """Least non-square in the canonical element order."""
        return int(np.nonzero(~self.square_mask)[0][0])

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
        """The element whose k comma-separated coefficients are spelled as
        ASCII digits below p, as ``certificate.parse_int`` reads integers;
        raises ValueError on a sign, a space, an underscore or a coefficient
        of p or more, which int() alone would take or reduce."""
        cs = s.split(",")
        if len(cs) != self.k or not all(c.isascii() and c.isdigit() and int(c) < self.p for c in cs):
            raise ValueError(f"{s!r} is not an element of GF({self.q})")
        return self.from_coeffs(map(int, cs))

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


class _Memo(dict):
    """Fields by (p, k, modulus) as asked for and as resolved; clears like an lru_cache."""

    cache_clear = dict.clear


_field_cached = _Memo()


def field_make(p: int, k: int = 1, modulus=None) -> Field:
    """Construct (and cache) GF(p^k), with the least irreducible modulus if omitted."""
    key = (p, k, None if modulus is None else tuple(int(c) for c in modulus))
    if key not in _field_cached:
        F = Field(p, k, key[2])
        _field_cached[key] = _field_cached.setdefault((p, k, F.modulus), F)
    return _field_cached[key]
