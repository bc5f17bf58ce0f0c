"""Group constructions: SL2, its symmetric square, Omega(W), and <B, tau>."""

import numpy as np
import pytest

from conftest import element_orders, model, one_plus_trace
from hemisystems.gf import field_make
from hemisystems import groups
from hemisystems.groups import (
    GenerationFailure,
    NoIsometry,
    NotUnimodular,
    close,
    discriminant_gram,
    embed_w_block,
    generating_pair,
    group_a,
    omega_w,
    sl2_generators,
    sym_square,
    tau,
    w_singular_vectors,
    w_vector_orbits,
    witt_isometry,
)
from hemisystems.linform import (
    QuadraticSpace,
    all_vectors,
    byte_keys,
    identity,
    mat_det,
    mat_inv,
    mat_mul,
    search_keys,
)
from hemisystems.quadric import QuadricModel

CONFIGS = [(3, 1), (5, 1), (7, 1), (3, 2)]


def fields():
    return [field_make(p, k) for p, k in CONFIGS]


def sl2(F):
    """All of SL2(q), closed from its generators."""
    return close(F, sl2_generators(F), limit=F.q * (F.q**2 - 1)).elements


def test_sl2_orders():
    for F in fields():
        gens = sl2_generators(F)
        group = close(F, gens, limit=F.q * (F.q**2 - 1))
        assert group.order == F.q * (F.q**2 - 1)
        assert np.array_equal(group.generators, gens)
        for g in gens:
            assert mat_det(F, g) == 1


def test_element_orders():
    F = field_make(5)
    up, lo, weyl = sl2_generators(F)[:3]
    assert element_orders(F, np.stack([up, lo, weyl])).tolist() == [F.p, F.p, 4]
    assert mat_mul(F, weyl, weyl).tolist() == [[4, 0], [0, 4]]  # -I


def test_close_limit():
    F = field_make(3)
    with pytest.raises(GenerationFailure):
        close(F, sl2_generators(F), limit=10)
    assert close(F, sl2_generators(F), limit=24).order == 24
    with pytest.raises(GenerationFailure):
        close(F, sl2_generators(F), limit=23)


def test_close_holds_distinct_sorted_elements_and_membership():
    F = field_make(3, 2)
    group = close(F, sl2_generators(F), limit=720)
    flat = group.elements.reshape(group.order, -1)
    assert np.unique(flat, axis=0).shape[0] == group.order
    assert np.array_equal(np.unique(flat, axis=0), flat)
    assert group.contains(identity(2))
    assert group.contains(group.elements).all()
    # diag(-1, 1) has determinant -1
    assert not group.contains(np.array([[F.neg(1), 0], [0, 1]], dtype=np.uint8))
    # a matrix of another size is refused, even one that is an element
    # extended by the identity
    wide = np.tile(identity(4), (3, 1, 1))
    wide[:, :2, :2] = group.elements[-3:]
    with pytest.raises(ValueError):
        group.contains(wide)


def test_sym_square_multiplicative():
    F = field_make(3)
    elems = sl2(F)
    for g in elems:
        for h in elems:
            lhs = sym_square(F, mat_mul(F, g, h))
            rhs = mat_mul(F, sym_square(F, g), sym_square(F, h))
            assert np.array_equal(lhs, rhs)
    for F in (field_make(5), field_make(3, 2)):
        rng = np.random.default_rng(3)
        elems = sl2(F)
        for _ in range(60):
            g, h = (elems[rng.integers(len(elems))] for _ in range(2))
            lhs = sym_square(F, mat_mul(F, g, h))
            assert np.array_equal(lhs, mat_mul(F, sym_square(F, g), sym_square(F, h)))


def test_sym_square_kernel_and_det():
    F = field_make(3)
    neg = F.neg(1)
    ident = identity(3)
    kernel = []
    for g in sl2(F):
        S = sym_square(F, g)
        assert mat_det(F, S) == 1
        if np.array_equal(S, ident):
            kernel.append(g.tolist())
    assert sorted(kernel) == sorted(
        [[[1, 0], [0, 1]], [[neg, 0], [0, neg]]]
    )


def test_sym_square_preserves_discriminant_form():
    for F in (field_make(3), field_make(5)):
        J = discriminant_gram(F)
        for g in sl2(F):
            S = sym_square(F, g)
            assert np.array_equal(mat_mul(F, mat_mul(F, S, J), S.T), J)


def test_sym_square_rejects_other_determinants():
    F = field_make(3)
    with pytest.raises(NotUnimodular):
        sym_square(F, np.array([[2, 0], [0, 1]], dtype=np.uint8))


@pytest.mark.parametrize("p,k", CONFIGS)
def test_witt_isometry_postcondition(p, k):
    F = field_make(p, k)
    m = model(p, k, 2)
    disc = QuadraticSpace(F, discriminant_gram(F))
    T, c = witt_isometry(m.w_space, disc)
    lhs = mat_mul(F, mat_mul(F, T, disc.gram), T.T)
    assert np.array_equal(lhs, F.mul_table[c, m.w_space.gram])
    assert c in (1, F.first_nonsquare)


def test_witt_isometry_scalar_class_frozen():
    # det(J_disc)/det(J_W) = 32 up to squares: a nonsquare mod 3 and mod 5,
    # a square mod 7, and a square in GF(9) since GF(3)* consists of squares
    for (p, k), expect_nu in [((3, 1), True), ((5, 1), True), ((7, 1), False), ((3, 2), False)]:
        F = field_make(p, k)
        m = model(p, k, 2)
        _, c = witt_isometry(m.w_space, QuadraticSpace(F, discriminant_gram(F)))
        assert (c == F.first_nonsquare) == expect_nu
        assert (c == 1) == (not expect_nu)


def test_witt_isometry_same_space():
    F = field_make(5)
    m = model(5, 1, 2)
    T, c = witt_isometry(m.w_space, m.w_space)
    assert c == 1
    lhs = mat_mul(F, mat_mul(F, T, m.w_space.gram), T.T)
    assert np.array_equal(lhs, m.w_space.gram)


def test_witt_isometry_rejects_mismatched_spaces():
    F = field_make(3)
    line = QuadraticSpace(F, np.array([[1]], dtype=np.uint8))
    with pytest.raises(NoIsometry):
        witt_isometry(line, QuadraticSpace(F, discriminant_gram(F)))


def brute_force_orthogonal_w(F, gram):
    """Every 3x3 isometry of the W Gram, by scanning all matrices."""
    from hemisystems.linform import all_vectors

    mats = all_vectors(F.q, 9).reshape(-1, 3, 3)
    keep = (QuadraticSpace(F, gram).restrict_gram(mats) == gram).all(axis=(1, 2))
    return mats[keep]


def commutators(F, X, i, j):
    """g^-1 h^-1 g h for g = X[i] and h = X[j], over two index arrays."""
    inv = np.stack([mat_inv(F, g) for g in X])
    return mat_mul(F, mat_mul(F, mat_mul(F, inv[i], inv[j]), X[i]), X[j])


def all_pairs(n):
    return np.repeat(np.arange(n), n), np.tile(np.arange(n), n)


def test_omega_w_is_derived_subgroup_of_orthogonal_group():
    # independent characterization at q = 3: Omega(W) is the commutator
    # closure of the full isometry group of the W block
    p, k = 3, 1
    F = field_make(p, k)
    m = model(p, k, 2)
    ortho = brute_force_orthogonal_w(F, m.w_space.gram)
    assert len(ortho) == 48
    comms = np.unique(commutators(F, ortho, *all_pairs(len(ortho))), axis=0)
    derived = close(F, comms, limit=48)
    assert np.array_equal(derived.elements, omega_w(m).elements)


@pytest.mark.parametrize("p,k,order", [(3, 1, 12), (5, 1, 60), (7, 1, 168), (3, 2, 360)])
def test_omega_w_orders(p, k, order):
    F = field_make(p, k)
    m = model(p, k, 2)
    b = omega_w(m)
    assert b.order == order
    assert b.elements.shape == (order, 3, 3)
    n = m.dim
    full = embed_w_block(F, b.elements, n)
    for g in full:
        assert mat_det(F, g) == 1
        assert np.array_equal(g[3:, :], identity(n)[3:, :])
        assert not g[:3, 3:].any()
    J = m.w_space.gram
    assert (m.w_space.restrict_gram(b.elements) == J).all()


def test_omega_w_preserves_full_gram():
    m = model(3, 1, 3)
    F = m.field
    full = embed_w_block(F, omega_w(m).elements, m.dim)
    assert (m.space.restrict_gram(full) == m.space.gram).all()


@pytest.mark.parametrize("p,k", CONFIGS)
def test_tau_properties(p, k):
    F = field_make(p, k)
    m = model(p, k, 2)
    t = tau(m)
    assert t.shape == (3, 3)
    assert np.array_equal(mat_mul(F, t, t), identity(3))
    tv = embed_w_block(F, t, m.dim)
    assert mat_det(F, tv) == F.neg(1)
    J = m.space.gram
    assert np.array_equal(mat_mul(F, mat_mul(F, tv, J), tv.T), J)
    b = omega_w(m)
    assert not b.contains(t)


@pytest.mark.parametrize("p,k", CONFIGS)
def test_group_a_structure(p, k):
    F = field_make(p, k)
    m = model(p, k, 2)
    b = omega_w(m)
    t = tau(m)
    a = group_a(m, b, t)
    assert a.order == 2 * b.order
    assert a.contains(b.elements).all()
    assert a.contains(t)
    plus = np.array([mat_det(F, g) == 1 for g in a.elements])
    assert np.array_equal(a.elements[plus], b.elements)
    assert not b.contains(a.elements[~plus]).any()


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 2)])
def test_group_a_is_the_closure_of_b_and_tau(p, k):
    m = model(p, k, 2)
    b, t = omega_w(m), tau(m)
    a = group_a(m, b, t)
    closed = close(m.field, np.concatenate([b.generators, t[None]]), limit=2 * b.order)
    assert a.order == closed.order == 2 * b.order
    assert np.array_equal(a.elements, closed.elements)
    assert np.array_equal(a.generators, np.concatenate([b.generators, t[None]]))


def test_group_a_of_b_and_minus_one_on_w():
    # -1 on W commutes with B and has determinant -1, so it lies outside B
    # and <B, -I_3> is B x <-I_3>, of index two
    m = model(3, 1, 2)
    b = omega_w(m)
    neg = m.field.mul_table[m.field.neg(1), identity(3)]
    assert not b.contains(neg)
    a = group_a(m, b, neg)
    assert a.order == 2 * b.order and a.elements.shape[1:] == (3, 3)
    assert a.contains(neg) and a.contains(b.elements).all()


def test_group_a_refuses_a_tau_that_gives_no_index_two_extension():
    m = model(5, 1, 2)
    F, b = m.field, omega_w(m)
    shear = identity(3)
    shear[0, 1] = 1
    with pytest.raises(GenerationFailure, match="conjugate of B generator .* left B"):
        group_a(m, b, shear)
    # a scalar commutes with B, but its square -1 has determinant -1
    with pytest.raises(GenerationFailure, match="tau\\^2"):
        group_a(m, b, F.mul_table[2, identity(3)])
    # tau inside B: tau B is B again
    with pytest.raises(GenerationFailure, match="tau lies in B"):
        group_a(m, b, b.generators[0])


def test_no_order_six_at_q3():
    # <B, tau> at q = 3 is a 24-element group with element orders 1,2,3,4 only
    m = model(3, 1, 2)
    a = group_a(m, omega_w(m), tau(m))
    assert set(element_orders(m.field, a.elements).tolist()) == {1, 2, 3, 4}


def test_right_action_composition():
    m = model(3, 1, 2)
    F = m.field
    qm = QuadricModel(m)
    elems = omega_w(m).elements
    rng = np.random.default_rng(5)
    for _ in range(10):
        g, h = (elems[rng.integers(len(elems))] for _ in range(2))
        pg, ph = qm.point_permutation(g), qm.point_permutation(h)
        assert np.array_equal(qm.point_permutation(mat_mul(F, g, h)), ph[pg])
        mg, mh = qm.maximal_permutation(g), qm.maximal_permutation(h)
        assert np.array_equal(qm.maximal_permutation(mat_mul(F, g, h)), mh[mg])


# every odd prime power q <= 49, as (p, k)
ODD_Q_TO_49 = [
    (3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1),
    (5, 2), (3, 3), (29, 1), (31, 1), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2),
]


@pytest.mark.parametrize("p,k", ODD_Q_TO_49)
def test_generating_pair_closes_to_b(p, k):
    m = model(p, k, 2)
    F = m.field
    b = omega_w(m)
    assert b.generators.shape[0] == 2 * k + 1
    pair = generating_pair(F, b.generators)
    assert np.array_equal(pair[0], b.generators[0])
    assert np.array_equal(pair[1], mat_mul(F, b.generators[2 * k - 1], b.generators[-1]))
    closed = close(F, pair, limit=F.q * (F.q**2 - 1) // 2)
    assert closed.order == F.q * (F.q**2 - 1) // 2
    assert closed.contains(b.generators).all()
    assert np.array_equal(closed.elements, b.elements)


def test_omega_w_refuses_a_pair_that_does_not_generate_b(monkeypatch):
    # the pair is checked where B is listed, by the counted reference
    m = model(5, 1, 2)
    real = groups.generating_pair
    monkeypatch.setattr(groups, "generating_pair", lambda F, gens: real(F, gens)[:1])
    with pytest.raises(GenerationFailure, match="closed at"):
        omega_w(m).elements
    # a conjugate of B by a map that is no similitude has B's order but
    # misses B's generators
    shear = identity(3)
    shear[0, 2] = 1

    def conjugated(F, gens):
        return mat_mul(F, mat_mul(F, mat_inv(F, shear), real(F, gens)), shear)

    monkeypatch.setattr(groups, "generating_pair", conjugated)
    with pytest.raises(GenerationFailure, match="misses a generator"):
        omega_w(m).elements


def reflection(F, space, v):
    """The reflection of W in the anisotropic vector v: x -> x - 2 beta(x, v)/beta(v, v) v."""
    coef = F.div(F.add(1, 1), space.beta(v, v))
    vj = mat_mul(F, v[None], space.gram)[0]
    outer = F.mul_table[F.mul_table[coef, vj][:, None], v[None, :]]
    return F.add_table[identity(3), F.neg_table[outer]]


# every odd prime power q <= 27, as (p, k)
ODD_Q_TO_27 = [
    (3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3),
]


@pytest.mark.parametrize("p,k", ODD_Q_TO_27)
def test_membership_predicates_match_the_closure(p, k):
    # g = r_a r_c with beta(a, a) a square and beta(c, c) not has det 1 and
    # a nonsquare spinor norm, so gB is a coset of SO(W) outside Omega(W)
    m = model(p, k, 2)
    F, space = m.field, m.w_space
    b, t = omega_w(m), tau(m)
    vecs = all_vectors(F.q, 3)[1:]
    norms = space.restrict_gram(vecs[:, None, :])[:, 0, 0]
    a_vec = vecs[np.flatnonzero((norms != 0) & F.square_mask[norms])[0]]
    c_vec = vecs[np.flatnonzero(~F.square_mask[norms])[0]]
    g = mat_mul(F, reflection(F, space, a_vec), reflection(F, space, c_vec))
    assert np.array_equal(space.restrict_gram(g), space.gram) and mat_det(F, g) == 1
    cosets = [b.elements, mat_mul(F, g, b.elements), mat_mul(F, t, b.elements)]
    cosets.append(mat_mul(F, t, cosets[1]))
    # the predicate's fallback is reached in B and in gB
    assert (one_plus_trace(F, cosets[0]) == 0).any()
    assert (one_plus_trace(F, cosets[1]) == 0).any()
    stack = np.concatenate(cosets)
    n = b.order
    assert np.array_equal(b.contains(stack[: 3 * n]), np.arange(3 * n) < n)
    a = group_a(m, b, t)
    listed = search_keys(byte_keys(a.elements), byte_keys(stack))[1]
    assert listed.sum() == a.order == 2 * n
    assert np.array_equal(a.contains(stack), listed)
    rng = np.random.default_rng(F.q)
    noise = rng.integers(0, F.q, size=(200, 3, 3), dtype=np.uint8)
    for group in (b, a):
        listed = search_keys(byte_keys(group.elements), byte_keys(noise))[1]
        assert np.array_equal(group.contains(noise), listed)
        assert group.contains(stack[:6].reshape(2, 3, 3, 3)).shape == (2, 3)
        with pytest.raises(ValueError):
            group.contains(embed_w_block(F, b.elements[:2], 5))


@pytest.mark.parametrize("p,k", CONFIGS)
def test_w_singular_vector_orbits(p, k):
    F = field_make(p, k)
    m = model(p, k, 2)
    q = F.q
    vecs = w_singular_vectors(m)
    assert vecs.shape[0] == q**2 - 1
    part = w_vector_orbits(m, omega_w(m))
    assert part.n_orbits == 2
    assert part.sizes.tolist() == [(q**2 - 1) // 2] * 2
    # square scalings preserve each orbit; a nonsquare scaling swaps them
    index = {vecs[i].tobytes(): i for i in range(vecs.shape[0])}
    nu = F.first_nonsquare
    for oid, mem in enumerate(part.members):
        for lam in range(2, q):
            scaled = [index[F.mul_table[lam, vecs[i]].tobytes()] for i in mem]
            target = oid if F.is_square(lam) else 1 - oid
            assert (part.orbit_of[scaled] == target).all()


def _orbit_pair_behavior(F, vecs, index, part, mat):
    """'preserve' or 'swap', if the matrix permutes the two vector orbits."""
    perm = np.array([index[row.tobytes()] for row in mat_mul(F, vecs, mat)])
    images = {oid: int(part.orbit_of[perm[part.reps[oid]]]) for oid in range(2)}
    assert (part.orbit_of[perm] == np.array([images[o] for o in part.orbit_of])).all()
    assert images in ({0: 0, 1: 1}, {0: 1, 1: 0})
    return "preserve" if images[0] == 0 else "swap"


def test_full_orthogonal_group_on_w_singular_orbits_q3():
    # mechanism behind the orbit splitting, checked against the whole
    # isometry group of W at q = 3: the action on the pair of B-orbits of
    # singular vectors is constant on B-cosets, and each determinant class
    # splits evenly into preserving and swapping cosets
    F = field_make(3)
    m = model(3, 1, 2)
    b = omega_w(m)
    vecs = w_singular_vectors(m)
    index = {vecs[i].tobytes(): i for i in range(vecs.shape[0])}
    part = w_vector_orbits(m, b)
    ortho = brute_force_orthogonal_w(F, m.w_space.gram)
    assert len(ortho) == 48
    counts = {(1, "preserve"): 0, (1, "swap"): 0, (2, "preserve"): 0, (2, "swap"): 0}
    for g in ortho:
        behavior = _orbit_pair_behavior(F, vecs, index, part, g)
        for blk in b.elements[:4]:
            same = _orbit_pair_behavior(F, vecs, index, part, mat_mul(F, blk, g))
            assert same == behavior
        counts[(mat_det(F, g), behavior)] += 1
    # dets at q = 3: 1 and 2 = -1; twelve elements in each of the four cells
    assert counts == {(1, "preserve"): 12, (1, "swap"): 12, (2, "preserve"): 12, (2, "swap"): 12}


@pytest.mark.parametrize("p,k", CONFIGS)
def test_tau_coset_acts_consistently_on_w_singular_orbits(p, k):
    # every element of B tau induces the same map on the orbit pair, so the
    # action descends to the quotient by B
    F = field_make(p, k)
    m = model(p, k, 2)
    b = omega_w(m)
    t = tau(m)
    vecs = w_singular_vectors(m)
    index = {vecs[i].tobytes(): i for i in range(vecs.shape[0])}
    part = w_vector_orbits(m, b)
    behaviors = {
        _orbit_pair_behavior(F, vecs, index, part, g) for g in mat_mul(F, b.elements, t)
    }
    assert len(behaviors) == 1


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1)])
def test_commutators_of_a_lie_in_b(p, k):
    m = model(p, k, 2)
    b = omega_w(m)
    a = group_a(m, b, tau(m)).elements
    assert b.contains(commutators(m.field, a, *all_pairs(len(a)))).all()


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2)])
def test_commutators_of_a_lie_in_b_sampled(p, k):
    m = model(p, k, 2)
    b = omega_w(m)
    a = group_a(m, b, tau(m)).elements
    rng = np.random.default_rng(9)
    i, j = rng.integers(len(a), size=(2, 400))
    assert b.contains(commutators(m.field, a, i, j)).all()
