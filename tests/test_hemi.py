"""Two-group hypothesis checks, assembly, and degree verification."""

import numpy as np
import pytest

from conftest import model, qmodel
from hemisystems import groups
from hemisystems.gf import field_make
from hemisystems.hemi import (
    MaskLength,
    TooManyOrbits,
    UnknownMaximalId,
    _degrees_by_index,
    ab_check,
    assemble,
    enumerate_all_hemisystems,
    prepare,
    resolve_actions,
    verify_hemisystem,
)
from hemisystems.linform import identity, mat_mul
from hemisystems.quadric import QuadricModel

CONFIGS = [(3, 1, 2), (5, 1, 2), (3, 1, 3)]

_prepared = {}


def prep(p, k, d):
    if (p, k, d) not in _prepared:
        _prepared[(p, k, d)] = prepare(field_make(p, k), d)
    return _prepared[(p, k, d)]


def test_prepare_makes_each_point_permutation_once(monkeypatch):
    # resolve_actions makes one point permutation for each element of B's
    # generating pair and one for tau, and none for the other generators
    made = []
    real = QuadricModel.point_permutation

    def counted(self, mat):
        made.append(mat)
        return real(self, mat)

    monkeypatch.setattr(QuadricModel, "point_permutation", counted)
    pr = prepare(field_make(3), 2)
    assert len(made) == 3
    assert pr.report.ok


@pytest.mark.parametrize("p,k,d", CONFIGS)
def test_ab_hypotheses_hold(p, k, d):
    pr = prep(p, k, d)
    r = pr.report
    assert r.ok, r.witness
    assert r.witness is None
    assert r.b_order == pr.b.order and r.a_order == 2 * pr.b.order
    assert r.n_b_maximal_orbits == 2 * r.m
    assert r.n_a_maximal_orbits == r.m
    # orbit sizes divide the group orders
    assert all(pr.b.order % int(s) == 0 for s in pr.actions.b_maximal_part.sizes)
    assert all(pr.b.order % int(s) == 0 for s in pr.actions.b_point_part.sizes)
    # the pairs tile all maximals
    total = sum(
        int(pr.actions.b_maximal_part.sizes[o]) for pair in r.split.pairs for o in pair
    )
    assert total == pr.qm.num_maximals


def test_ab_check_rejects_identity_as_tau():
    pr = prep(3, 1, 2)
    ident = identity(3)
    r = ab_check(pr.qm, pr.b, ident, resolve_actions(pr.qm, pr.b, ident))
    assert not r.ok
    assert not r.tau_outside_b


def test_ab_check_rejects_b_element_as_tau():
    pr = prep(3, 1, 2)
    g = next(e for e in pr.b.elements if not (e == identity(3)).all())
    r = ab_check(pr.qm, pr.b, g, resolve_actions(pr.qm, pr.b, g))
    assert not r.ok
    assert not r.tau_outside_b
    assert not r.orbit_pairing_complete
    assert "fixed by tau" in r.witness


def test_ab_check_tests_normality_on_generators():
    # negating e0 is an involution of determinant -1 that does not preserve
    # the form on W, so it conjugates some generator out of B; it is no
    # isometry and has no action, so it is checked with prepare's own
    pr = prep(3, 1, 2)
    flip = identity(3)
    flip[1, 1] = pr.field.neg(1)
    J = pr.model.w_space.gram
    assert not np.array_equal(mat_mul(pr.field, mat_mul(pr.field, flip, J), flip.T), J)
    r = ab_check(pr.qm, pr.b, flip, pr.actions)
    assert r.tau_outside_b and r.tau_involution
    assert not r.b_normal_in_a
    assert not r.ok
    assert r.witness.startswith("conjugate of B generator 0 left B")
    assert str(pr.b.generators[0].tolist()) in r.witness


def test_ab_check_agrees_with_group_a_on_the_order_of_a():
    pr = prep(3, 1, 2)
    assert ab_check(pr.qm, pr.b, pr.tau_elt, pr.actions).a_order == pr.a.order
    # -1 on W commutes with B: A = B x <tau> has index two, but tau fixes
    # a B-orbit of maximals, so the orbits do not pair up
    neg = pr.field.mul_table[pr.field.neg(1), identity(3)]
    r = ab_check(pr.qm, pr.b, neg, resolve_actions(pr.qm, pr.b, neg))
    assert r.tau_outside_b and r.tau_involution and r.b_normal_in_a
    assert r.index_two and r.a_order == 2 * pr.b.order
    assert not r.ok and r.witness == "maximal orbit 2 is fixed by tau"


def test_prepare_closes_b_once_and_a_never(monkeypatch):
    # A is built as B and the coset tau B, so only B is closed
    limits = []
    close = groups.close

    def counted(F, gens, limit):
        limits.append(limit)
        return close(F, gens, limit)

    monkeypatch.setattr(groups, "close", counted)
    pr = prepare(field_make(3), 2)
    assert limits == [12]
    assert pr.report.ok and pr.report.a_order == pr.a.order == 24


@pytest.mark.parametrize("p,k,d", CONFIGS)
def test_assemble_masks(p, k, d):
    pr = prep(p, k, d)
    split = pr.report.split
    m = split.m
    base = assemble(split, 0)
    full = assemble(split, (1 << m) - 1)
    assert base.size == full.size == pr.qm.num_maximals // 2
    assert np.array_equal(
        np.sort(np.concatenate([base, full])), np.arange(pr.qm.num_maximals)
    )
    # flipping one bit exchanges exactly one orbit pair
    for i in (0, m - 1):
        flipped = assemble(split, 1 << i)
        sym = np.setxor1d(base, flipped)
        low, high = split.pairs[i]
        both = np.sort(
            np.concatenate([split.partition.members[low], split.partition.members[high]])
        )
        assert np.array_equal(sym, both)


def test_mask_bounds():
    pr = prep(3, 1, 2)
    split = pr.report.split
    with pytest.raises(MaskLength):
        assemble(split, 1 << split.m)
    with pytest.raises(MaskLength):
        assemble(split, -1)


@pytest.mark.parametrize("p,k,d", CONFIGS)
def test_verify_accepts_constructed_sets(p, k, d):
    pr = prep(p, k, d)
    split = pr.report.split
    rng = np.random.default_rng(17)
    masks = {0, (1 << split.m) - 1}
    while len(masks) < 6:
        masks.add(int(rng.integers(1 << min(split.m, 62))))
    for mask in masks:
        ids = assemble(split, mask)
        rep = verify_hemisystem(pr.qm, ids)
        assert rep.ok, (mask, rep.histogram)
        assert rep.histogram == ((pr.qm.target_degree, pr.qm.num_points),)


def test_verify_slow_path_matches_fast_path():
    for p, k, d in ((3, 1, 2), (3, 2, 2), (3, 1, 3)):
        pr = prep(p, k, d)
        ids = assemble(pr.report.split, 5)
        fast = verify_hemisystem(pr.qm, ids)
        slow = verify_hemisystem(pr.qm, ids, slow=True)
        assert fast.ok and slow.ok
        assert fast.histogram == slow.histogram
        assert slow.method == "orthogonal" and fast.method == "index"
        # a set that is not a hemisystem gets the same degrees on both paths
        half = ids[: ids.size // 2]
        assert (
            verify_hemisystem(pr.qm, half, slow=True).histogram
            == verify_hemisystem(pr.qm, half).histogram
        )


def test_index_recount_over_several_chunks_matches_one_bincount():
    # half the maximals at (5,3), 9,828 of 19,656, take two recount chunks;
    # a random half gives every point some degree, not only t + 1 / 2
    qm = qmodel(5, 1, 3)
    ids = np.random.default_rng(53).permutation(qm.num_maximals)[: qm.num_maximals // 2]
    assert ids.size == 9828
    whole = np.bincount(qm.maximal_points[ids].ravel(), minlength=qm.num_points)
    assert len(np.unique(whole)) > 1
    assert np.array_equal(_degrees_by_index(qm, ids), whole)
    values, counts = np.unique(whole, return_counts=True)
    assert verify_hemisystem(qm, ids).histogram == tuple(zip(values.tolist(), counts.tolist()))


def test_slow_path_does_not_read_the_incidence_index():
    qm = QuadricModel(model(3, 1, 2))  # a private model: its index is corrupted below
    ids = assemble(prep(3, 1, 2).report.split, 0)
    qm.maximal_points = np.roll(qm.maximal_points, 1, axis=0)
    assert not verify_hemisystem(qm, ids).ok
    slow = verify_hemisystem(qm, ids, slow=True)
    assert slow.ok and slow.histogram == ((qm.target_degree, qm.num_points),)


def test_verify_rejects_wrong_sets():
    pr = prep(3, 1, 2)
    qm = pr.qm
    ids = assemble(pr.report.split, 0)
    short = verify_hemisystem(qm, ids[:-1])
    assert not short.ok and short.size == short.expected_size - 1
    outside = np.setdiff1d(np.arange(qm.num_maximals), ids)
    tampered = np.sort(np.concatenate([ids[:-1], outside[:1]]))
    rep = verify_hemisystem(qm, tampered)
    assert not rep.ok
    assert rep.bad_points
    assert any(v != qm.target_degree for v, _ in rep.histogram)
    slow = verify_hemisystem(qm, tampered, slow=True)
    assert not slow.ok and slow.histogram == rep.histogram


def test_verify_rejects_alien_ids():
    pr = prep(3, 1, 2)
    with pytest.raises(UnknownMaximalId):
        verify_hemisystem(pr.qm, [0, pr.qm.num_maximals])
    with pytest.raises(UnknownMaximalId):
        verify_hemisystem(pr.qm, [-1, 0])
    with pytest.raises(UnknownMaximalId):
        verify_hemisystem(pr.qm, [3, 3, 4])


def test_members_are_b_invariant():
    pr = prep(3, 1, 2)
    ids = assemble(pr.report.split, 37 % (1 << pr.report.m))
    for g in pr.b.generators:
        perm = pr.qm.maximal_permutation(g)
        assert np.array_equal(np.sort(perm[ids]), ids)


def test_enumerate_all_hemisystems_3_2():
    pr = prep(3, 1, 2)
    split = pr.report.split
    fams = dict(enumerate_all_hemisystems(split))
    assert len(fams) == 1 << split.m
    blobs = {mask: ids.tobytes() for mask, ids in fams.items()}
    assert len(set(blobs.values())) == len(fams)
    full = (1 << split.m) - 1
    for mask, ids in fams.items():
        assert verify_hemisystem(pr.qm, ids).ok
        comp = fams[full ^ mask]
        assert np.array_equal(
            np.sort(np.concatenate([ids, comp])), np.arange(pr.qm.num_maximals)
        )


def test_enumerate_cap():
    pr = prep(3, 1, 2)
    with pytest.raises(TooManyOrbits):
        list(enumerate_all_hemisystems(pr.report.split, cap=4))
