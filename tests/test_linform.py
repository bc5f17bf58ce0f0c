import functools
import itertools
import math
import time

import numpy as np
import pytest

from conftest import qmodel
from hemisystems.gf import Field, field_make
from hemisystems import linform as lf
from hemisystems.quadric import point_count
from hemisystems.linform import (
    BadRank,
    QuadraticSpace,
    all_vectors,
    lifted_product,
    mat_det,
    mat_inv,
    mat_mul,
    rref,
    rref_batch,
    standard_model,
    witt_index,
)


def naive_mat_mul(F, A, B):
    m, n = A.shape
    n2, r = B.shape
    out = np.zeros((m, r), dtype=np.uint8)
    for i in range(m):
        for j in range(r):
            s = 0
            for t in range(n):
                s = F.add(s, F.mul(int(A[i, t]), int(B[t, j])))
            out[i, j] = s
    return out


# ---------------------------------------------------------------------------
# matrix arithmetic


@pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (3, 2), (3, 3), (251, 1)])
def test_mat_mul_against_naive(p, k):
    F = field_make(p, k)
    rng = np.random.default_rng(1)

    def mats(*shape):
        return rng.integers(0, F.q, size=shape).astype(np.uint8)

    for _ in range(25):
        m, n, r = rng.integers(1, 6, size=3)
        A, B = mats(m, n), mats(n, r)
        assert (mat_mul(F, A, B) == naive_mat_mul(F, A, B)).all()
    # broadcast over leading axes, each product checked matrix by matrix
    for _ in range(4):
        N, g, m, n, r = rng.integers(1, 5, size=5)
        A, B = mats(N, m, n), mats(n, r)
        C = mat_mul(F, A, B)
        assert C.shape == (N, m, r)
        assert all((C[i] == naive_mat_mul(F, A[i], B)).all() for i in range(N))
        A, B = mats(m, n), mats(g, n, r)
        C = mat_mul(F, A, B)
        assert C.shape == (g, m, r)
        assert all((C[j] == naive_mat_mul(F, A, B[j])).all() for j in range(g))
        A, B = mats(1, N, m, n), mats(g, 1, n, r)
        C = mat_mul(F, A, B)
        assert C.shape == (g, N, m, r)
        assert all(
            (C[j, i] == naive_mat_mul(F, A[0, i], B[j, 0])).all()
            for j in range(g)
            for i in range(N)
        )


# GF(243) has no built-in modulus; x^5 + 2x + 1 is irreducible over GF(3)
@pytest.mark.parametrize("p,k,modulus", [(5, 3, None), (3, 5, (1, 2, 0, 0, 0, 1))])
def test_extension_product_reaches_the_top_of_the_flat_tables(p, k, modulus):
    # over GF(p^k) each term is gathered from the flattened tables at
    # a·q + b; entries q - 1 at the same inner position on both sides reach
    # the last entry q^2 - 1, which at q = 243 is 65,024, just inside uint16
    F = field_make(p, k, modulus)
    q, n = F.q, 21  # 2d + 1 at the largest rank, the widest product the package makes
    rng = np.random.default_rng(3)
    A = rng.integers(0, q, size=(3, 4, n)).astype(np.uint8)
    B = rng.integers(0, q, size=(3, n, 2)).astype(np.uint8)
    A[..., 0], B[:, 0, :], A[0, 0, -1] = q - 1, q - 1, q - 1
    C = mat_mul(F, A, B[0])  # stack x matrix
    assert all((C[i] == naive_mat_mul(F, A[i], B[0])).all() for i in range(3))
    C = mat_mul(F, A[0], B)  # matrix x stack
    assert all((C[j] == naive_mat_mul(F, A[0], B[j])).all() for j in range(3))
    C = mat_mul(F, A, B)  # stack x stack
    assert C.shape == (3, 4, 2) and C.dtype == np.uint8
    assert all((C[i] == naive_mat_mul(F, A[i], B[i])).all() for i in range(3))


class _Unread(np.ndarray):
    def astype(self, *args, **kwargs):
        raise AssertionError("the product was computed")


def test_mat_mul_refuses_sums_past_the_float32_bound():
    # the widest product the package makes is over the ambient dimension
    # 2d + 1; ranks stop where point ids leave int32, latest at q = 3; its
    # largest inner sum, at p = 251, stays inside the float32 bound
    widest = 2 * max(d for d in range(2, 40) if point_count(3, d) < 2**31) + 1
    assert widest == 21 and widest * 250**2 < 2**24
    # the first inner dimension past the bound raises before either side is
    # cast, let alone multiplied; the operands are broadcast views of one entry
    F = field_make(251)
    n = -(-(2**24) // 250**2)
    assert (n - 1) * 250**2 < 2**24 <= n * 250**2
    A = np.broadcast_to(np.uint8(250), (1, n)).view(_Unread)
    B = np.broadcast_to(np.uint8(250), (n, 1)).view(_Unread)
    with pytest.raises(ValueError, match="float32"):
        mat_mul(F, A, B)


@pytest.mark.parametrize("k", [1, 2])
def test_mat_mul_refuses_mismatched_inner_dimensions(k):
    # a single matrix or a stack on either side, refused before either side
    # is cast or gathered from
    F = field_make(3, k)

    def unread(*shape):
        return np.zeros(shape, dtype=np.uint8).view(_Unread)

    for a, b in (((2, 3), (5, 5)), ((4, 2, 3), (5, 5)), ((2, 3), (4, 5, 5)), ((4, 2, 3), (4, 5, 5))):
        with pytest.raises(ValueError, match="^cannot multiply 3 columns by 5 rows$"):
            mat_mul(F, unread(*a), unread(*b))


PRIMES = [p for p in range(3, 252, 2) if all(p % f for f in range(3, math.isqrt(p) + 1, 2))]


def int64_product(A, B, p):
    """A @ B mod p for an (m, n) and an (n, r) matrix, in int64, over column chunks."""
    acc = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for s in range(0, A.shape[1], 1 << 18):
        acc += A[:, s:s + (1 << 18)].astype(np.int64) @ B[s:s + (1 << 18)].astype(np.int64)
    return acc % p


@pytest.mark.parametrize("p", PRIMES)
def test_lifted_product_is_exact_on_both_sides_of_the_float32_bound(p):
    # float32 carries the product while n (p - 1)^2 < 2^24.  The widest inner
    # dimension below that is checked against an int64 reference: every
    # entry is p - 1 except the last term a·b, with a running over GF(p) and
    # b over (1, p - 1), so the sums are the largest possible and their
    # residues cover GF(p)
    F = field_make(p)
    below = (2**24 - 1) // (p - 1) ** 2
    assert below * (p - 1) ** 2 < 2**24 <= (below + 1) * (p - 1) ** 2
    h = (p - 1) // 2
    n = below
    A = np.full((p, n), p - 1, dtype=np.uint8)
    A[:, -1] = np.arange(p)
    B = np.full((n, 2), p - 1, dtype=np.uint8)
    B[-1] = 1, p - 1
    ref = int64_product(A, B, p)
    # single x single, stack x single, single x stack (B's two columns as a
    # (2, n, 1) stack), stack x stack (A's halves, one per column) and a
    # (2, 1, h, n) x (2, n, 1) broadcast
    cols = np.ascontiguousarray(B.T[:, :, None])
    halves = A[:2 * h].reshape(2, h, n)
    assert np.array_equal(mat_mul(F, A, B), ref)
    assert np.array_equal(mat_mul(F, A[:, None], B), ref[:, None])
    assert np.array_equal(mat_mul(F, A, cols), ref.T[:, :, None])
    assert np.array_equal(mat_mul(F, halves, cols), np.stack([ref[:h, :1], ref[h:2 * h, 1:]]))
    crossed = ref[:2 * h].reshape(2, h, 2).transpose(0, 2, 1)[..., None]
    assert np.array_equal(mat_mul(F, halves[:, None], cols), crossed)
    for C, shape in (
        (mat_mul(F, A[:0], B), (0, 2)),
        (mat_mul(F, A[:0, None], B), (0, 1, 2)),
        (mat_mul(F, A, cols[:0]), (0, p, 1)),
        (mat_mul(F, halves[:, :0], cols), (2, 0, 1)),
    ):
        assert C.shape == shape and C.dtype == np.uint8
    # one more term reaches 2^24: each of those forms, empty or not, raises
    # before either side is cast; the operands are broadcast views of p - 1
    n = below + 1
    A, B = (np.broadcast_to(np.uint8(p - 1), s).view(_Unread) for s in ((p, n), (n, 2)))
    cols = np.broadcast_to(np.uint8(p - 1), (2, n, 1)).view(_Unread)
    halves = np.broadcast_to(np.uint8(p - 1), (2, h, n)).view(_Unread)
    for a, b in (
        (A, B), (A[:, None], B), (A, cols), (halves, cols), (halves[:, None], cols),
        (A[:0], B), (A[:0, None], B), (A, cols[:0]), (halves[:, :0], cols),
    ):
        with pytest.raises(ValueError, match=f"^an inner dimension of {n} overflows float32"):
            mat_mul(F, a, b)
    # broadcast over leading axes at a small inner dimension, and an empty one
    rng = np.random.default_rng(p)
    A = rng.integers(0, p, size=(2, 1, 3, 3)).astype(np.uint8)
    B = rng.integers(0, p, size=(8, 3, 3)).astype(np.uint8)
    C = mat_mul(F, A, B)
    assert C.shape == (2, 8, 3, 3)
    assert all(
        np.array_equal(C[i, j], int64_product(A[i, 0], B[j], p)) for i in range(2) for j in range(8)
    )
    assert np.array_equal(mat_mul(F, A[..., :0], B[:, :0]), np.zeros_like(C))


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 1), (7, 1), (251, 1)])
def test_lifted_product_over_digits_equals_mat_mul(p, k):
    # GF(9), GF(25), GF(27), GF(49) and GF(p): one matrix times a stack, as
    # the incidence index multiplies its combinations by a chunk of bases,
    # with every entry q - 1 once and at random shapes, the empty stack too
    F = field_make(p, k)
    rng = np.random.default_rng(p * k)
    top = np.full((3, 3), F.q - 1, dtype=np.uint8), np.full((5, 3, 7), F.q - 1, dtype=np.uint8)
    shapes = ((1, 1, 1, 1), (4, 2, 5, 7), (13, 3, 7, 40), (6, 4, 9, 0))
    for A, B in [top] + [
        (rng.integers(0, F.q, (m, r), dtype=np.uint8), rng.integers(0, F.q, (N, r, n), dtype=np.uint8))
        for m, r, n, N in shapes
    ]:
        got = lifted_product(F, A, B)
        assert got.shape == B.shape[:1] + (A.shape[0], B.shape[2]) and got.dtype == np.uint8
        assert np.array_equal(got, mat_mul(F, A, B))
    with pytest.raises(ValueError, match="^cannot multiply 3 columns by 2 rows$"):
        lifted_product(F, top[0], top[1][:, :2])
    if p == 251:
        # r k (p - 1)^2 reaches 2^24 at r = 269, refused before any gather
        A = np.broadcast_to(np.uint8(250), (1, 269)).view(_Unread)
        B = np.broadcast_to(np.uint8(250), (1, 269, 1)).view(_Unread)
        with pytest.raises(ValueError, match="^an inner dimension of 269 overflows float32"):
            lifted_product(F, A, B)


def test_extension_product_of_an_empty_inner_dimension_is_zero():
    # no terms: the zero product of the broadcast shape, as over GF(p)
    F = field_make(3, 2)
    for a, b, shape in (((2, 0), (0, 3), (2, 3)), ((4, 2, 0), (1, 0, 3), (4, 2, 3))):
        C = mat_mul(F, np.zeros(a, dtype=np.uint8), np.zeros(b, dtype=np.uint8))
        assert C.shape == shape and C.dtype == np.uint8 and not C.any()


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 2)])
def test_restrict_gram_of_a_stack_is_per_matrix(p, k):
    F = field_make(p, k)
    sp = standard_model(F, 3).space
    rng = np.random.default_rng(5)
    stack = rng.integers(0, F.q, size=(2, 6, 3, sp.dim)).astype(np.uint8)
    G = sp.restrict_gram(stack)
    assert G.shape == (2, 6, 3, 3)
    for j, i in itertools.product(range(2), range(6)):
        B = stack[j, i]
        assert (G[j, i] == naive_mat_mul(F, naive_mat_mul(F, B, sp.gram), B.T)).all()
        assert (G[j, i] == sp.restrict_gram(B)).all()


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 2)])
def test_mat_inv_and_det(p, k):
    F = field_make(p, k)
    rng = np.random.default_rng(2)
    n = 4
    found = 0
    while found < 20:
        A = rng.integers(0, F.q, size=(n, n)).astype(np.uint8)
        if mat_det(F, A) == 0:
            continue
        found += 1
        Ainv = mat_inv(F, A)
        assert (mat_mul(F, A, Ainv) == lf.identity(n)).all()
        assert (mat_mul(F, Ainv, A) == lf.identity(n)).all()
    singular = np.zeros((2, 2), dtype=np.uint8)
    singular[0, 0] = 1
    singular[1, 0] = 1
    assert mat_det(F, singular) == 0
    with pytest.raises(ValueError):
        mat_inv(F, singular)


def test_det_multiplicative():
    F = field_make(5)
    rng = np.random.default_rng(3)
    for _ in range(30):
        A = rng.integers(0, 5, size=(3, 3)).astype(np.uint8)
        B = rng.integers(0, 5, size=(3, 3)).astype(np.uint8)
        assert mat_det(F, mat_mul(F, A, B)) == F.mul(mat_det(F, A), mat_det(F, B))


# ---------------------------------------------------------------------------
# rref


def row_span(F, A):
    combos = all_vectors(F.q, A.shape[0])
    return {bytes(v) for v in mat_mul(F, combos, A)}


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2)])
def test_rref_canonical(p, k):
    F = field_make(p, k)
    rng = np.random.default_rng(4)
    for _ in range(60):
        m, n = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        A = rng.integers(0, F.q, size=(m, n)).astype(np.uint8)
        R, piv = rref(F, A)
        assert row_span(F, A) == row_span(F, R)
        R2, piv2 = rref(F, R)
        assert (R2 == R).all() and piv2 == piv
        # an invertible recombination of the rows gives the same canonical form
        while True:
            T = rng.integers(0, F.q, size=(m, m)).astype(np.uint8)
            if mat_det(F, T) != 0:
                break
        R3, _ = rref(F, mat_mul(F, T, A))
        assert (R3 == R).all()
        for r, c in enumerate(piv):
            col = R[:, c]
            assert col[r] == 1 and (np.delete(col, r) == 0).all()


def test_rref_drops_dependent_rows():
    F = field_make(3)
    A = np.array([[0, 1, 1, 0, 0], [0, 2, 2, 0, 0]], dtype=np.uint8)
    R, piv = rref(F, A)
    assert R.shape == (1, 5) and piv == (1,)
    assert (R[0] == [0, 1, 1, 0, 0]).all()


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1), (5, 2), (3, 3)])
def test_rref_batch_matches_single(p, k):
    # random stacks, and stacks of maximals as certificates list them:
    # already in RREF, scrambled by invertible d x d matrices, rank-deficient
    # and all zero, alone and shuffled into one batch
    F = field_make(p, k)
    rng = np.random.default_rng(5)
    bases = qmodel(p, k, 2).maximal_bases
    bases = bases[rng.choice(len(bases), min(200, len(bases)), replace=False)]
    T = rng.integers(0, F.q, size=(4 * len(bases), 2, 2)).astype(np.uint8)
    T = T[[len(rref(F, t)[1]) == 2 for t in T]][: len(bases)]
    assert len(T) == len(bases)
    scrambled = mat_mul(F, T, bases)
    T[:, 1] = F.mul_table[rng.integers(0, F.q, size=(len(T), 1)), T[:, 0]]  # rank <= 1
    deficient = mat_mul(F, T, bases)
    zero = np.zeros((20, 2, 5), dtype=np.uint8)
    mixed = np.concatenate([bases, scrambled, deficient, zero])
    randoms = rng.integers(0, F.q, size=(300, 3, 7)).astype(np.uint8)
    randoms[::3, 2] = F.add_table[randoms[::3, 0], randoms[::3, 1]]  # rank <= 2
    for mats in (randoms, bases, scrambled, deficient, zero, mixed[rng.permutation(len(mixed))]):
        before = mats.copy()
        out, ranks = rref_batch(F, mats)
        assert np.array_equal(mats, before)
        for i in range(mats.shape[0]):
            R, piv = rref(F, mats[i])
            r = len(piv)
            assert ranks[i] == r
            assert (out[i, :r] == R).all()
            assert not out[i, r:].any()
    assert np.array_equal(rref_batch(F, bases)[0], bases)
    assert (rref_batch(F, deficient)[1] <= 1).all()


# ---------------------------------------------------------------------------
# quadratic spaces and the standard model


def test_space_rejects_bad_gram():
    F = field_make(3)
    with pytest.raises(ValueError):
        QuadraticSpace(F, [[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(ValueError):
        QuadraticSpace(F, [[1, 1], [1, 1]])  # singular


def test_standard_model_gram_3_2():
    F = field_make(3)
    M = standard_model(F, 2)
    assert M.nu == 2
    expected = np.array(
        [
            [1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],  # -nu = -2 = 1 mod 3
        ],
        dtype=np.uint8,
    )
    assert (M.space.gram == expected).all()
    # the basis is (z, e0, f0, x, y)
    assert M.conic == (0, 3, 4) and M.pairs == ((1, 2),)
    with pytest.raises(BadRank):
        standard_model(F, 1)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_standard_model_layout_matches_gram_and_names(d):
    F = field_make(5)
    M = standard_model(F, d)
    names = ["z", "e0", "f0", "x", "y"] + [f"{c}{i}" for i in range(1, d - 1) for c in "ef"]
    G = M.space.gram
    assert [names[c] for c in M.conic] == ["z", "x", "y"]
    assert [(names[e], names[f]) for e, f in M.pairs] == [(f"e{i}", f"f{i}") for i in range(d - 1)]
    assert sorted(M.conic + sum(M.pairs, ())) == list(range(M.dim))
    partner, g, ginv = M.pairing
    assert all(partner[c] == c for c in M.conic)
    assert all(partner[e] == f and partner[f] == e for e, f in M.pairs)
    for c in range(M.dim):
        assert np.flatnonzero(G[c]).tolist() == [partner[c]]
        assert G[c, partner[c]] == g[c] and F.mul(int(g[c]), int(ginv[c])) == 1
    rng = np.random.default_rng(d)
    U, V = rng.integers(0, 5, size=(2, 20, M.dim)).astype(np.uint8)
    for u, v in zip(U, V):
        terms = F.mul_table[F.mul_table[u, g], v[partner]]
        assert M.space.beta(u, v) == functools.reduce(F.add, terms.tolist(), 0)


def test_standard_model_rejects_an_isotropic_plane(monkeypatch):
    # W having Witt index 1 and U having d - 2 follow from the layout only
    # because <x, y> = diag(1, -nu) is anisotropic; with nu a square it is not
    monkeypatch.setattr(Field, "first_nonsquare", property(lambda F: 1))
    with pytest.raises(RuntimeError, match="plane <x, y>"):
        standard_model(field_make(7), 3)


def test_standard_model_builds_at_rank_nine_in_under_a_second():
    # the model scans no vectors, so QuadricModel alone guards the memory of
    # a geometry as large as (3,9) and still refuses it at once
    start = time.perf_counter()
    M = standard_model(field_make(3), 9)
    assert time.perf_counter() - start < 1.0
    assert M.dim == 19 and len(M.pairs) == 8


@pytest.mark.parametrize("p,k,d", [(3, 1, 2), (5, 1, 2), (7, 1, 2), (3, 2, 2), (3, 1, 3), (3, 1, 4)])
def test_standard_model_form_values(p, k, d):
    F = field_make(p, k)
    M = standard_model(F, d)
    sp = M.space
    z = M.basis_vector(0)
    assert sp.kappa(z) == F.inv(F.add(1, 1))
    assert sp.beta(z, z) == 1
    e0, f0 = M.basis_vector(1), M.basis_vector(2)
    assert sp.beta(e0, f0) == 1
    assert sp.kappa(e0) == 0 and sp.kappa(f0) == 0
    for i in range(1, d - 1):
        e, f = M.basis_vector(3 + 2 * i), M.basis_vector(4 + 2 * i)
        assert sp.beta(e, f) == 1
        assert sp.kappa(e) == 0 and sp.kappa(f) == 0
    assert mat_det(F, sp.gram) != 0


def test_polarization_exhaustive_3_2():
    # beta(u, v) = kappa(u + v) - kappa(u) - kappa(v) over every pair
    F = field_make(3)
    sp = standard_model(F, 2).space
    vecs = all_vectors(3, 5)
    kap = sp.kappa_batch(vecs)
    for ui, u in enumerate(vecs):
        lhs = sp.kappa_batch(F.add_table[u[None, :], vecs])
        bu = mat_mul(F, u[None], sp.gram)
        bet = mat_mul(F, vecs, bu.T)[:, 0]
        rhs = F.add_table[F.add_table[kap, int(kap[ui])], bet]
        assert (lhs == rhs).all()


def test_kappa_scales_by_squares():
    F = field_make(5)
    sp = standard_model(F, 2).space
    rng = np.random.default_rng(7)
    for _ in range(40):
        v = rng.integers(0, 5, size=5).astype(np.uint8)
        lam = int(rng.integers(0, 5))
        scaled = F.mul_table[lam, v]
        assert sp.kappa(scaled) == F.mul(F.mul(lam, lam), sp.kappa(v))


# ---------------------------------------------------------------------------
# Witt indices, with an independent exhaustive oracle


def oracle_max_ts_dim(space, basis):
    """Largest dimension of a totally singular subspace, by exhaustive search
    over sets of pairwise orthogonal singular points inside the span."""
    F = space.field
    combos = all_vectors(F.q, basis.shape[0])[1:]
    vecs = mat_mul(F, combos, basis)
    pts = {}
    for v in vecs:
        if space.kappa(v) == 0:
            lead = int(np.argmax(v != 0))
            nv = F.mul_table[F.inv(int(v[lead])), v]
            pts[bytes(nv)] = nv
    pts = list(pts.values())
    orth = {
        (i, j)
        for i, j in itertools.combinations(range(len(pts)), 2)
        if space.beta(pts[i], pts[j]) == 0
    }
    best = 0

    def extend(chosen, start):
        nonlocal best
        if chosen:
            stack = np.stack([pts[i] for i in chosen])
            r = len(rref(F, stack)[1])
            best = max(best, r)
        for nxt in range(start, len(pts)):
            if all(((min(i, nxt), max(i, nxt)) in orth) for i in chosen):
                extend(chosen + [nxt], nxt + 1)

    extend([], 0)
    return best


@pytest.mark.parametrize("p", [3, 5])
def test_witt_index_against_oracle(p):
    F = field_make(p)
    M = standard_model(F, 2)
    sp = M.space
    eye = lf.identity(5)
    assert witt_index(sp) == 2
    assert oracle_max_ts_dim(sp, eye) == 2
    # W = <z, e0, f0> and U = <x, y>, searched inside the ambient space
    assert witt_index(M.w_space) == 1
    assert oracle_max_ts_dim(sp, eye[:3]) == 1
    assert witt_index(M.u_space) == 0
    assert oracle_max_ts_dim(sp, eye[3:]) == 0


@pytest.mark.parametrize("p", [3, 5])
def test_witt_index_of_random_forms_against_oracle(p):
    # the closed form from dimension and discriminant against an exhaustive
    # search, on random nondegenerate symmetric Gram matrices
    F = field_make(p)
    rng = np.random.default_rng(p)
    seen = set()
    for n in range(1, 5):
        for _ in range(12):
            while True:
                A = rng.integers(0, p, size=(n, n)).astype(np.uint8)
                G = np.triu(A) + np.triu(A, 1).T
                if mat_det(F, G):
                    break
            sp = QuadraticSpace(F, G)
            w = witt_index(sp)
            assert w == oracle_max_ts_dim(sp, lf.identity(n)), G.tolist()
            seen.add((n, w))
    # hyperbolic and elliptic forms of dimensions 2 and 4 all occur
    assert {(2, 1), (2, 0), (4, 2), (4, 1)} <= seen


@pytest.mark.parametrize(
    "p,k,d",
    [(3, 1, 2), (5, 1, 2), (7, 1, 2), (9, 0, 2), (25, 0, 2), (3, 1, 3), (5, 1, 3), (3, 1, 4)],
)
def test_witt_index_blocks(p, k, d):
    # the standard model infers these indices from its layout; here they are
    # computed, on every benchmark rung. k = 0 marks p as the square of a prime
    F = field_make(math.isqrt(p), 2) if k == 0 else field_make(p, k)
    M = standard_model(F, d)
    assert witt_index(M.space) == d
    assert witt_index(M.w_space) == 1
    assert witt_index(M.u_space) == d - 2
    hyp = QuadraticSpace(F, np.array([[0, 1], [1, 0]], dtype=np.uint8))
    assert witt_index(hyp) == 1


def test_degenerate_restriction():
    # the form restricted to the singular line <e0> is zero, and a quadratic
    # space refuses it, so witt_index only ever sees nondegenerate forms
    F = field_make(3)
    M = standard_model(F, 2)
    with pytest.raises(ValueError, match="singular"):
        QuadraticSpace(F, M.space.restrict_gram(M.basis_vector(1)))


# ---------------------------------------------------------------------------
# serialization


def reference_format(F, A):
    """The per-element serializer the stack formatter must match byte for byte."""
    return "|".join(";".join(F.format_elt(int(a)) for a in row) for row in A)


def reference_parse(F, s, shape):
    """The per-element parser, with a shape check; the stack parser must
    accept and reject exactly what it does."""
    M = lf.as_mat([[F.parse_elt(t) for t in line.split(";")] for line in s.split("|")])
    if M.shape != shape:
        raise ValueError(f"shape {M.shape}")
    return M


def outcome(parse, *args):
    try:
        return parse(*args).tolist()
    except ValueError:
        return "rejected"


PARITY_TOKENS = {
    1: [
        "1;2;0|0;1;2",  # canonical
        "01;2;0|0;1;2",  # a leading zero
        "7;2;0|0;1;2",  # a coefficient of p or more
        "1;-1;0|0;+1;2",  # signs
        "1; 2;0|0;1;2",  # a space
        "1;2|0;1;2;0",  # ragged rows with the right element count
        "1;2;0|0;1",  # ragged rows
        "1;2;0;1|0;1;2;0",  # wrong column count
        "1;2;0",  # wrong row count
        "1;x;0|0;1;2",  # non-integer token
        "1;;0|0;1;2",  # empty element
        "1,0;2;0|0;1;2",  # wrong coefficient count
    ],
    2: [
        "1,0;2,1;0,0|0,0;1,2;2,2",  # canonical
        "1,3;2,1;0,0|0,0;1,2;2,2",  # a coefficient of p or more
        "1,01;2,1;0,0|0,0;1,2;2,2",  # a leading zero
        "1,0;2,1;0,0|0,0;1,2;2,_2",  # an underscore
        "1;2,1;0,0|0,0;1,2;2,2",  # wrong coefficient count
        "1,0,0;2,1;0,0|0,0;1,2;2,2",  # wrong coefficient count
        "1,0;2,1|0,0;1,2;2,2;0,0",  # ragged rows
        "1,0;a,1;0,0|0,0;1,2;2,2",  # non-integer token
    ],
}


# one-digit coefficients (p < 10) at k = 1, 2, 3, and p = 11, 13
SERIALIZED_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (11, 1), (13, 1)]


def test_matrix_serialization_roundtrip():
    for p, k in SERIALIZED_FIELDS:
        F = field_make(p, k)
        rng = np.random.default_rng(9)
        A = rng.integers(0, F.q, size=(3, 5)).astype(np.uint8)
        s = lf.format_matrix(F, A)
        assert s == reference_format(F, A)
        assert (lf.parse_matrices(F, [s], 3, 5)[0] == A).all()

        stack = rng.integers(0, F.q, size=(6, 3, 5)).astype(np.uint8)
        stack[0] = F.q - 1
        texts = lf.format_matrices(F, stack)
        assert texts == [reference_format(F, M) for M in stack]
        assert np.array_equal(lf.parse_matrices(F, texts, 3, 5), stack)
        assert lf.parse_matrices(F, [], 3, 5).shape == (0, 3, 5)

        tokens = PARITY_TOKENS.get(k, [])
        # a stack holds exactly when every token parses as a 2x3 matrix
        good = outcome(reference_parse, F, tokens[0], (2, 3)) if tokens else None
        for tok in tokens:
            want = outcome(reference_parse, F, tok, (2, 3))
            expect = "rejected" if want == "rejected" else [good] * 3 + [want] + [good] * 3
            got = outcome(lf.parse_matrices, F, [tokens[0]] * 3 + [tok] + [tokens[0]] * 3, 2, 3)
            assert got == expect, tok
