"""Row vectors, matrices and quadratic forms over GF(q).

Vectors are numpy uint8 rows of encoded field elements and matrices act on
the right, so a group element g, itself a uint8 matrix, moves a vector v to
``mat_mul(F, v, g)``.  A quadratic space carries a symmetric nonsingular
Gram matrix J with bilinear form beta(u, v) = u J v^T and quadratic form
kappa(v) = beta(v, v) / 2, which is the polarization convention for odd
characteristic.

Every GF(q) matrix product goes through ``mat_mul``.  Over GF(p) it is
lifted to one float32 BLAS product of the integer entries, reduced mod p by
a division that is exact while the inner sums stay below 2^24; past that
it raises ValueError.  Over GF(p^k) it gathers from the flattened field
tables term by term.

The standard model basis of the (2d+1)-dimensional ambient space is ordered
(z, e0, f0, x, y, e1, f1, ..., e_{d-2}, f_{d-2}) with beta(z, z) = 1,
beta(e_i, f_i) = 1, and the anisotropic plane <x, y> realized as
diag(1, -nu) for nu the least non-square.  W = <z, e0, f0> is parabolic of
Witt index 1 and U = W-perp is elliptic of dimension 2d - 2.
"""

from __future__ import annotations

import functools
import math
from itertools import repeat
from types import MappingProxyType

import numpy as np

from .gf import Field


class BadRank(ValueError):
    """The rank parameter d is out of range."""


class BadMatrix(ValueError):
    """A serialized matrix of a stack is not a grid of the expected shape or
    holds an element that does not parse; ``index`` is its position in the
    stack."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


# ---------------------------------------------------------------------------
# matrix arithmetic over encoded elements


def as_mat(rows) -> np.ndarray:
    A = np.asarray(rows, dtype=np.uint8)
    return np.atleast_2d(A)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def _floor_mod(C: np.ndarray, p: int) -> np.ndarray:
    """x - p·floor(x / p) for every entry x of a contiguous float array of
    exact integers, as uint8, for ``mat_mul``, which proves it exact."""
    k = C / p
    np.floor(k, out=k)
    k *= p
    C -= k
    del k  # before the uint8 copy, which would otherwise hold three arrays
    return C.astype(np.uint8)


def mat_mul(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product of encoded matrices, broadcast over leading axes like ``@``.

    Shapes (..., m, n) x (..., n, r) -> (..., m, r): one matrix or a stack
    on either side.  This is the package's one GF(q) matrix product.

    Over a prime field the product is lifted to float32: the entries are
    exact integers in [0, p), so one BLAS product gives the integer sums x,
    reduced as x - p·floor(x / p).  A stack times one matrix is folded into
    one GEMM, (N, m, n) x (n, r) as (N·m, n) x (n, r); every other shape is
    NumPy's broadcast ``@``.

    Exactness.  Every product and every partial sum of x is an integer in
    [0, n (p - 1)^2], so with n (p - 1)^2 < 2^24 each is exact in float32,
    in whatever order the GEMM adds them.  Write x = k p + c with
    0 <= c < p.  If c = 0, x / p = k is exact.  Otherwise
    k < x / p <= k + 1 - 1/p, and rounding moves x / p by at most
    2^-24 · x / p < 1/p (the unit roundoff of float32), so it stays below
    k + 1, and it stays at or above k because k is a float32 and rounding is
    monotone.  So floor(x / p) = k, and k p <= x and x - k p = c are exact.
    From 2^24 on the product raises ValueError before it casts either side.
    ``require_memory`` keeps the point ids in int32, which allows
    n = 2d + 1 <= 21 but only d = 2 at p = 251, so the widest product the
    package makes sums to at most 5 · 250^2 = 312,500.  The division is
    what keeps the bound: with a reciprocal, floor((x + 1/2) · (1/p)) in
    float32 fails for some p <= 251 below 2^23, first at x = 5,029,669
    (p = 241).

    Over an extension field each of the n terms is one gather from the
    flattened multiplication table and one from the flattened addition
    table, at the uint16 index a·q + b < q^2 <= 65,025, into buffers
    allocated once.
    """
    if A.shape[-1] != B.shape[-2]:
        raise ValueError(f"cannot multiply {A.shape[-1]} columns by {B.shape[-2]} rows")
    if F.k == 1:
        p, n = F.p, A.shape[-1]
        if n * (p - 1) ** 2 >= 2**24:
            raise ValueError(f"an inner dimension of {n} overflows float32 over GF({p})")
        if B.ndim == 2:
            rows = (math.prod(A.shape[:-1]), n)
            C = A.astype(np.float32, order="C").reshape(rows) @ B.astype(np.float32, order="C")
            return _floor_mod(C, p).reshape(A.shape[:-1] + B.shape[-1:])
        return _floor_mod(A.astype(np.float32) @ B.astype(np.float32), p)
    q = F.q
    shape = np.broadcast_shapes(A.shape[:-1] + (1,), B.shape[:-2] + (1, B.shape[-1]))
    if not A.shape[-1]:
        return np.zeros(shape, dtype=np.uint8)
    ADD, MUL = F.add_table.ravel(), F.mul_table.ravel()
    Aq = A.astype(np.uint16) * q
    idx = np.empty(shape, dtype=np.uint16)
    np.add(Aq[..., :, 0, None], B[..., 0, None, :], out=idx)
    acc = np.take(MUL, idx)
    term = np.empty(shape, dtype=np.uint8)
    for t in range(1, A.shape[-1]):
        np.add(Aq[..., :, t, None], B[..., t, None, :], out=idx)
        np.take(MUL, idx, out=term, mode="clip")
        np.multiply(acc, q, out=idx, dtype=np.uint16)
        idx += term
        np.take(ADD, idx, out=acc, mode="clip")
    return acc


def rref(F: Field, rows) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form; returns (matrix without zero rows, pivots).

    One matrix, eliminated row by row.  It stays beside ``rref_batch`` as
    the independent reference the tests check the stacks against, and for
    ``mat_inv``, whose matrices are small.
    """
    A = as_mat(rows).copy()
    ADD, MUL, NEG, INV = F.add_table, F.mul_table, F.neg_table, F.inv_table
    m, n = A.shape
    pivots = []
    r = 0
    for col in range(n):
        if r == m:
            break
        hits = np.nonzero(A[r:, col])[0]
        if hits.size == 0:
            continue
        lead = r + int(hits[0])
        if lead != r:
            A[[r, lead]] = A[[lead, r]]
        A[r] = MUL[INV[A[r, col]], A[r]]
        others = np.nonzero(A[:, col])[0]
        others = others[others != r]
        if others.size:
            A[others] = ADD[A[others], MUL[NEG[A[others, col]][:, None], A[r][None, :]]]
        pivots.append(col)
        r += 1
    return A[:r], tuple(pivots)


def rref_batch(F: Field, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RREF every matrix of an (N, m, n) stack; returns (stack, ranks).

    Column by column, each matrix with a pivot there swaps it into place and
    scales it; then only the rows that are nonzero in the pivot column are
    eliminated, each by ``F.mul_arrays`` and ``F.add_arrays``.  Rows are
    gathered by their index in the flattened (N·m, n) stack.
    """
    A = np.array(mats, dtype=np.uint8)
    N, m, n = A.shape
    R = A.reshape(N * m, n)
    NEG, INV = F.neg_table, F.inv_table
    cur = np.zeros(N, dtype=np.intp)
    free = np.ones((N, m), dtype=bool)
    top = np.arange(N) * m
    for col in range(n):
        # the first row at or below the current one that is nonzero here
        elig = (A[:, :, col] != 0) & free
        first = np.full(N, m)
        for r in range(m - 1, -1, -1):
            first = np.where(elig[:, r], r, first)
        has = first < m
        idx = np.flatnonzero(has)
        if not idx.size:
            continue
        src, dst = top[idx] + first[idx], top[idx] + cur[idx]
        prow = np.take(R, src, axis=0)
        moved = src != dst
        R[src[moved]] = R[dst[moved]]
        R[dst] = F.mul_arrays(INV[prow[:, col]][:, None], prow)
        hit = (A[:, :, col] != 0) & has[:, None]
        hit.ravel()[dst] = False
        hits = np.flatnonzero(hit)
        # np.take copies each uint16 index to intp, so chunks bound the memory
        for start in range(0, hits.size, 65536):
            rows = hits[start:start + 65536]
            piv = np.take(R, (top + cur)[rows // m], axis=0)
            term = F.mul_arrays(NEG[R[rows, col]][:, None], piv)
            R[rows] = F.add_arrays(np.take(R, rows, axis=0), term)
        cur[idx] += 1
        free.ravel()[dst] = False
        if (cur == m).all():
            break
    return A, cur


def mat_inv(F: Field, A: np.ndarray) -> np.ndarray:
    A = as_mat(A)
    n = A.shape[0]
    aug = np.concatenate([A, identity(n)], axis=1)
    R, piv = rref(F, aug)
    if len(piv) < n or tuple(piv[:n]) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return R[:, n:].copy()


def mat_det(F: Field, A: np.ndarray) -> int:
    A = as_mat(A).copy()
    n = A.shape[0]
    det = 1
    for col in range(n):
        hits = np.nonzero(A[col:, col])[0]
        if hits.size == 0:
            return 0
        lead = col + int(hits[0])
        if lead != col:
            A[[col, lead]] = A[[lead, col]]
            det = F.neg(det)
        det = F.mul(det, int(A[col, col]))
        inv = F.inv(int(A[col, col]))
        A[col] = F.mul_table[inv, A[col]]
        below = col + 1 + np.nonzero(A[col + 1:, col])[0]
        if below.size:
            A[below] = F.add_table[A[below], F.mul_table[F.neg_table[A[below, col]][:, None], A[col][None, :]]]
    return det


def all_vectors(q: int, length: int) -> np.ndarray:
    """All q^length coordinate tuples, lexicographically ascending."""
    if length == 0:
        return np.zeros((1, 0), dtype=np.uint8)
    return np.indices((q,) * length, dtype=np.uint8).reshape(length, -1).T.copy()


def vector_codes(q: int, vecs: np.ndarray) -> np.ndarray:
    """Each row of a (..., n) stack read as base-q digits, as int64.

    The digits are field elements, or point ids with q the point count.
    Code order is lexicographic order.  Codes are exact while q^n < 2^63.
    """
    code = vecs[..., 0].astype(np.int64)
    for c in range(1, vecs.shape[-1]):
        code *= q
        code += vecs[..., c]
    return code


def byte_keys(stack: np.ndarray) -> np.ndarray:
    """One opaque byte-string key per matrix; key order is lexicographic on entries.

    Keys group elements; vectors are keyed by ``vector_codes``, and
    maximals by the codes of their rows' point ids.
    """
    flat = np.ascontiguousarray(stack, dtype=np.uint8).reshape(len(stack), -1)
    return flat.view(f"V{flat.shape[1]}").ravel()


def search_keys(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each key in a sorted, nonempty key array, and whether it is there.

    Keys are vector codes or byte keys of the sorted keys' length; where a
    key is absent its position is meaningless.
    """
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return pos, sorted_keys[pos] == keys


@functools.lru_cache(maxsize=None)
def _element_strings(F: Field) -> tuple[np.ndarray, MappingProxyType]:
    """The spellings of the elements, built once per field and read only: a
    (3, q) object array of each ``F.format_elt`` string followed by ';', by
    '|' and by nothing, and the map from each string to its element."""
    strings = [F.format_elt(a) for a in range(F.q)]
    cells = np.array([[s + sep for s in strings] for sep in (";", "|", "")], dtype=object)
    cells.setflags(write=False)
    return cells, MappingProxyType({s: a for a, s in enumerate(strings)})


def format_matrices(F: Field, stack: np.ndarray) -> list[str]:
    """Serialize each matrix of an (N, rows, cols) stack: rows joined by ``|``,
    entries by ``;``, elements as ``F.format_elt`` writes them."""
    stack = np.asarray(stack, dtype=np.uint8)
    N, rows, cols = stack.shape
    # each cell is written with the separator that follows it: ';' inside a
    # row, '|' after a row's last entry, nothing after the matrix's last entry
    after = np.zeros((rows, cols), dtype=np.intp)
    after[:, -1] = 1
    after[-1, -1] = 2
    cells = _element_strings(F)[0][after, stack]
    return ["".join(m) for m in cells.reshape(N, -1).tolist()]


def _row_lengths(s: str) -> list[int]:
    return [line.count(";") + 1 for line in s.split("|")]


def parse_matrices(F: Field, tokens: list[str], rows: int, cols: int) -> np.ndarray:
    """Parse serialized rows x cols matrices into an (N, rows, cols) stack.

    Raises BadMatrix when a token is not a rows x cols grid or, naming the
    first, when an element does not parse.  Canonical element strings are
    looked up in a table; any other string goes through ``F.parse_elt``.
    """
    if not tokens:
        return np.zeros((0, rows, cols), dtype=np.uint8)
    lines = "|".join(tokens).split("|")
    row_seps = set(map(str.count, tokens, repeat("|")))
    col_seps = set(map(str.count, lines, repeat(";")))
    if row_seps != {rows - 1} or col_seps != {cols - 1}:
        i, found = next(
            (i, n)
            for i, n in enumerate(map(_row_lengths, tokens))
            if len(n) != rows or set(n) != {cols}
        )
        what = "has ragged rows" if len(set(found)) > 1 else f"is {len(found)}x{found[0]}"
        raise BadMatrix(f"matrix {i} {what}; expected {rows}x{cols}", i)
    elts = ";".join(lines).split(";")
    code = _element_strings(F)[1]
    try:
        flat = np.fromiter(map(code.__getitem__, elts), dtype=np.uint8, count=len(elts))
    except KeyError:
        flat = np.empty(len(elts), dtype=np.uint8)
        for j, s in enumerate(elts):
            try:
                flat[j] = code[s] if s in code else F.parse_elt(s)
            except ValueError:
                i = j // (rows * cols)
                raise BadMatrix(f"matrix {i} has {s!r}, not an element of GF({F.q})", i) from None
    return flat.reshape(len(tokens), rows, cols)


def format_matrix(F: Field, A: np.ndarray) -> str:
    return format_matrices(F, as_mat(A)[None])[0]


# ---------------------------------------------------------------------------
# quadratic spaces


class QuadraticSpace:
    """A vector space with a symmetric nonsingular Gram matrix."""

    def __init__(self, F: Field, gram):
        G = as_mat(gram)
        if G.shape[0] != G.shape[1] or (G != G.T).any():
            raise ValueError("Gram matrix must be square and symmetric")
        if mat_det(F, G) == 0:
            raise ValueError("Gram matrix is singular")
        self.field = F
        self.gram = np.array(G, dtype=np.uint8, order="C")
        self.gram.setflags(write=False)
        self.dim = G.shape[0]
        self._half = F.inv(F.add(1, 1))

    def beta(self, u, v) -> int:
        F = self.field
        u = np.asarray(u, dtype=np.uint8).reshape(1, -1)
        v = np.asarray(v, dtype=np.uint8).reshape(-1, 1)
        return int(mat_mul(F, mat_mul(F, u, self.gram), v)[0, 0])

    def kappa(self, v) -> int:
        return self.field.mul(self._half, self.beta(v, v))

    def kappa_batch(self, V: np.ndarray) -> np.ndarray:
        return self.field.mul_table[self._half, self.restrict_gram(V[:, None, :])[:, 0, 0]]

    def restrict_gram(self, basis: np.ndarray) -> np.ndarray:
        """B J B^T for one basis B, or for each basis of a (..., m, n) stack."""
        B = as_mat(basis)
        return mat_mul(self.field, mat_mul(self.field, B, self.gram), np.swapaxes(B, -1, -2))


# ---------------------------------------------------------------------------
# Witt index


def witt_index(space: QuadraticSpace) -> int:
    """Witt index of a nondegenerate quadratic space.

    Over GF(q), q odd, a nondegenerate quadratic space is determined up to
    isometry by its dimension n and the square class of det G (Lam,
    *Introduction to Quadratic Forms over Fields*, AMS 2005, ch. II §3).  So
    its Witt index is floor(n/2) when n is odd, n/2 when n is even and the
    discriminant (-1)^(n/2) det G is a nonzero square (hyperbolic), and
    n/2 - 1 otherwise (elliptic).  The Gram matrix of kappa is G/2, whose
    determinant differs from det G by the square 2^-n when n is even.
    ``QuadraticSpace`` refuses a singular G, so det G is never 0 here.
    """
    F = space.field
    n = space.dim
    if n % 2 == 1:
        return n // 2
    det = mat_det(F, space.gram)
    disc = F.mul(F.neg(1), det) if n % 4 == 2 else det
    return n // 2 if F.is_square(disc) else n // 2 - 1


# ---------------------------------------------------------------------------
# the standard model


class StandardModel:
    """Ambient (2d+1)-space over the standard basis, whose layout is stated once.

    Coordinates are ordered (z, e0, f0, x, y, e1, f1, ..., e_{d-2}, f_{d-2}).
    ``conic`` holds the columns of z, x and y, ``pairs`` the columns of the
    hyperbolic pairs (e_i, f_i) in order, and ``pairing`` the column each
    coordinate pairs with, the Gram entry g there and g^-1, so that
    beta(u, v) = sum_c u[c] g[c] v[partner[c]].  The Gram matrix is built
    from them.  Also exposes the parabolic 3-space W = <z, e0, f0>, its perp
    U, and the least non-square nu used for the anisotropic plane <x, y>.
    """

    def __init__(self, F: Field, d: int):
        if d < 2:
            raise BadRank(f"rank d={d} must be >= 2")
        n = 2 * d + 1
        nu = F.first_nonsquare
        self.field = F
        self.d = d
        self.dim = n
        self.nu = nu
        self.conic = (0, 3, 4)
        self.pairs = ((1, 2),) + tuple((5 + 2 * i, 6 + 2 * i) for i in range(d - 2))
        partner = np.arange(n)
        for e, f in self.pairs:
            partner[[e, f]] = f, e
        g = np.ones(n, dtype=np.uint8)
        g[4] = F.neg(nu)
        self.pairing = (partner, g, F.inv_table[g])
        G = np.zeros((n, n), dtype=np.uint8)
        G[np.arange(n), partner] = g
        self.space = QuadraticSpace(F, G)
        self.w_space = QuadraticSpace(F, G[:3, :3])
        self.u_space = QuadraticSpace(F, G[3:, 3:])
        self._check()

    def _check(self):
        """Check the layout the enumeration relies on, which implies the rest.

        With each Gram row nonzero at its partner alone, W = <z, e0, f0> and
        U = <x, y, e1, f1, ...> are orthogonal and U = W-perp.  W is the
        anisotropic <z> plus a hyperbolic plane, so its Witt index is 1; U is
        the anisotropic <x, y> plus d - 2 hyperbolic planes, so by Witt
        cancellation its Witt index is d - 2.
        """
        F, sp = self.field, self.space
        half = F.inv(F.add(1, 1))
        layout = np.eye(self.dim, dtype=bool)[self.pairing[0]]
        plane = QuadraticSpace(F, sp.gram[3:5, 3:5])
        for ok, what in (
            (sp.kappa(self.basis_vector(0)) == half, "kappa(z) != 1/2"),
            (all(sp.gram[e, f] == 1 for e, f in self.pairs), "beta(e_i, f_i) != 1"),
            (witt_index(plane) == 0, "the plane <x, y> has a singular vector"),
            (np.array_equal(sp.gram != 0, layout), "a Gram row is not nonzero at its partner alone"),
        ):
            if not ok:
                raise RuntimeError(f"standard model for d={self.d}: {what}")

    def basis_vector(self, i: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.uint8)
        v[i] = 1
        return v


def standard_model(F: Field, d: int) -> StandardModel:
    return StandardModel(F, d)
