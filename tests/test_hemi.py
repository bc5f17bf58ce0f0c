"""Two-group hypothesis checks, assembly, and degree verification."""

import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from conftest import (
    int64_labelled,
    loop_assemble,
    model,
    qmodel,
    same_partition,
    unique_histogram,
)
from hemisystems import groups, hemi, orbits
from hemisystems.gf import field_make
from hemisystems.hemi import (
    ABReport,
    MaskLength,
    TooManyOrbits,
    UnknownMaximalId,
    ab_check,
    assemble,
    b_point_orbits,
    enumerate_all_hemisystems,
    prepare,
    resolve_actions,
    verify_hemisystem,
)
from hemisystems.linform import identity, mat_mul, standard_model
from hemisystems.orbits import ActionEscape, labelled, partition
from hemisystems.quadric import QuadricModel
from test_acceptance import DESK_CONFIGS

CONFIGS = [(3, 1, 2), (5, 1, 2), (3, 1, 3)]

_prepared = {}


def prep(p, k, d):
    if (p, k, d) not in _prepared:
        _prepared[(p, k, d)] = prepare(field_make(p, k), d)
    return _prepared[(p, k, d)]


def test_prepare_makes_no_point_permutation(monkeypatch):
    # B's point orbits come from their closed-form labels and tau moves only
    # their representatives, so prepare moves one point per orbit of B
    # (point_permutation moves every point through point_images), and the
    # only maximal permutations are those of B's generating pair
    moved, permuted = [], []
    images, permutation = QuadricModel.point_images, QuadricModel.maximal_permutation

    def counted(self, mat, ids):
        moved.append(len(ids))
        return images(self, mat, ids)

    def recorded(self, mat):
        permuted.append(mat)
        return permutation(self, mat)

    monkeypatch.setattr(QuadricModel, "point_images", counted)
    monkeypatch.setattr(QuadricModel, "maximal_permutation", recorded)
    pr = prepare(field_make(3), 2)
    assert moved == [pr.report.n_point_orbits] == [5]
    pair = groups.generating_pair(pr.field, pr.b.generators)
    assert len(permuted) == 2 and np.array_equal(np.stack(permuted), pair)
    assert pr.report.ok


# the rungs of the ladder, and (9,3) and q = 81 beyond it
LABEL_RUNGS = [
    (3, 1, 2), (3, 1, 3), (5, 1, 3), (3, 1, 4), (5, 2, 2),
    (3, 3, 2), (7, 1, 3), (7, 2, 2), (3, 4, 2), (3, 2, 3),
]


@pytest.mark.parametrize("p,k,d", LABEL_RUNGS)
def test_point_labels_give_the_orbits_of_b(p, k, d):
    # the reference is union-find under the point permutations of B's
    # generating pair; a private model, so the large rungs are not cached
    F = field_make(p, k)
    m = standard_model(F, d)
    qm = QuadricModel(m)
    pair = groups.generating_pair(F, groups.omega_w(m).generators)
    want = partition(qm.num_points, [qm.point_permutation(g) for g in pair])
    got = b_point_orbits(qm)
    assert np.array_equal(got.orbit_of, want.orbit_of)
    assert np.array_equal(got.reps, want.reps)
    assert np.array_equal(got.sizes, want.sizes)
    assert len(got.members) == len(want.members)
    assert all(np.array_equal(a, b) for a, b in zip(got.members, want.members))
    # 1 + (non-singular points of U) + 3 (singular points of U), U elliptic
    # of dimension 2d - 2
    q = F.q
    u_points = (q ** (2 * d - 2) - 1) // (q - 1)
    u_singular = (q ** (d - 1) + 1) * (q ** (d - 2) - 1) // (q - 1)
    assert got.n_orbits == 1 + (u_points - u_singular) + 3 * u_singular


@pytest.mark.parametrize("p,k,d", DESK_CONFIGS)
def test_prepare_numbers_its_orbits_as_one_int64_sort_would(monkeypatch, p, k, d):
    # the labels prepare hands labelled are B's point labels, with -1 on the
    # conic, which span fewer than 2^16 values here, so they sort as uint16;
    # the maximal orbits are numbered by their union-find roots, as one
    # int64 sort of their own orbit ids numbers them
    seen = []

    def recorded(labels):
        seen.append(np.array(labels))
        return labelled(labels)

    monkeypatch.setattr(hemi, "labelled", recorded)
    monkeypatch.setattr(orbits, "labelled", recorded)
    pr = prepare(field_make(p, k), d)
    (points,) = seen
    maximals = pr.actions.b_maximal_part.orbit_of
    assert points.min() == -1 and maximals.min() == 0
    assert maximals.max() == pr.report.n_b_maximal_orbits - 1
    assert same_partition(pr.actions.b_point_part, int64_labelled(points))
    assert same_partition(pr.actions.b_maximal_part, int64_labelled(maximals))
    # the least member of each orbit, the roots the union-find ends with
    roots = pr.actions.b_maximal_part.reps[maximals]
    assert same_partition(labelled(roots), int64_labelled(roots))


@pytest.mark.parametrize("p,k,d", CONFIGS)
def test_ab_hypotheses_hold(p, k, d):
    pr = prep(p, k, d)
    r = pr.report
    assert r.ok, r.witness
    assert r.witness is None
    assert r.a_order == 2 * pr.b.order
    assert r.n_b_maximal_orbits == 2 * r.m
    # orbit sizes divide the group orders
    assert all(pr.b.order % int(s) == 0 for s in pr.actions.b_maximal_part.sizes)
    assert all(pr.b.order % int(s) == 0 for s in pr.actions.b_point_part.sizes)
    # the pairs tile all maximals
    total = sum(
        int(pr.actions.b_maximal_part.sizes[o]) for pair in r.split.pairs for o in pair
    )
    assert total == pr.qm.num_maximals


def test_ab_report_holds_the_verdict_once():
    # the witness is the verdict; every other field is a count or the split
    names = [f.name for f in dataclasses.fields(ABReport)]
    assert names == ["a_order", "n_point_orbits", "n_b_maximal_orbits", "witness", "split"]
    r = dataclasses.replace(prep(3, 1, 2).report, witness="w")
    assert not r.ok


def _e0_flip(pr):
    # negating e0 is an involution of determinant -1 that does not preserve
    # the form on W, so it conjugates some generator out of B
    flip = identity(3)
    flip[1, 1] = pr.field.neg(1)
    J = pr.model.w_space.gram
    assert not np.array_equal(mat_mul(pr.field, mat_mul(pr.field, flip, J), flip.T), J)
    return flip


def _rejected(pr, kind):
    """A tau that fails index two, and the report of ab_check on it."""
    if kind == "identity":
        t = identity(3)
    elif kind == "element of B":
        t = next(e for e in pr.b.elements if not (e == identity(3)).all())
    else:
        # the flip is no isometry and has no action, so tau's are passed
        t = _e0_flip(pr)
        return t, ab_check(pr.qm, pr.b, t, pr.actions)
    return t, ab_check(pr.qm, pr.b, t, resolve_actions(pr.qm, pr.b, t))


def _assert_tau_lies_in_b(pr, r):
    assert not r.ok and r.split is None
    assert r.witness == "tau lies in B"
    assert r.a_order == pr.b.order


def test_ab_check_rejects_identity_as_tau():
    pr = prep(3, 1, 2)
    _assert_tau_lies_in_b(pr, _rejected(pr, "identity")[1])


def test_ab_check_rejects_b_element_as_tau():
    pr = prep(3, 1, 2)
    _assert_tau_lies_in_b(pr, _rejected(pr, "element of B")[1])


def test_ab_check_tests_normality_on_generators():
    pr = prep(3, 1, 2)
    _, r = _rejected(pr, "e0 flip")
    assert r.a_order == -1
    assert not r.ok
    assert r.witness.startswith("conjugate of B generator 0 left B: ")
    assert str(pr.b.generators[0].tolist()) in r.witness


@pytest.mark.parametrize("kind", ["identity", "element of B", "e0 flip"])
def test_group_a_refuses_with_the_witness_of_ab_check(kind):
    pr = prep(3, 1, 2)
    t, r = _rejected(pr, kind)
    with pytest.raises(groups.GenerationFailure) as info:
        groups.group_a(pr.model, pr.b, t)
    assert str(info.value) == r.witness


def test_resolve_actions_refuses_a_tau_that_is_no_isometry():
    # tau moves only orbit representatives, so a block that is no isometry
    # of J_W is refused up front, before any image of it escapes the
    # quadric; the flip does not even normalize B
    pr = prep(3, 1, 2)
    with pytest.raises(ActionEscape, match="tau is not an isometry of J_W"):
        resolve_actions(pr.qm, pr.b, _e0_flip(pr))


def test_ab_check_agrees_with_group_a_on_the_order_of_a():
    pr = prep(3, 1, 2)
    assert ab_check(pr.qm, pr.b, pr.tau_elt, pr.actions).a_order == pr.a.order
    # -1 on W commutes with B: A = B x <tau> has index two, but tau fixes
    # a B-orbit of maximals, so the orbits do not pair up
    neg = pr.field.mul_table[pr.field.neg(1), identity(3)]
    r = ab_check(pr.qm, pr.b, neg, resolve_actions(pr.qm, pr.b, neg))
    assert r.a_order == 2 * pr.b.order == groups.group_a(pr.model, pr.b, neg).order
    assert not r.ok and r.witness == "maximal orbit 2 is fixed by tau"
    assert r.split is None


def test_ab_check_accepts_tau_times_an_element_of_b():
    # the lemma needs B of index two in A, not tau^2 = 1: tau g with g in B
    # generates the same A and swaps the same orbits, though it has order 4
    pr = prep(3, 1, 2)
    F, t = pr.field, pr.tau_elt
    tg = next(
        prod
        for prod in mat_mul(F, t, pr.b.elements)
        if not np.array_equal(mat_mul(F, prod, prod), identity(3))
    )
    r = ab_check(pr.qm, pr.b, tg, resolve_actions(pr.qm, pr.b, tg))
    assert r.ok, r.witness
    assert r.a_order == pr.report.a_order == 24
    assert r.split.pairs == pr.report.split.pairs and r.m == 3
    assert np.array_equal(groups.group_a(pr.model, pr.b, tg).elements, pr.a.elements)


def test_prepare_closes_nothing(monkeypatch):
    # B and A are membership predicates in prepare; reading |A| lists A as
    # B and the coset tau B, so the reference closes B once and A never
    limits = []
    close = groups.close

    def counted(F, gens, limit):
        limits.append(limit)
        return close(F, gens, limit)

    monkeypatch.setattr(groups, "close", counted)
    pr = prepare(field_make(3), 2)
    assert limits == []
    assert pr.report.ok and pr.report.a_order == 24
    assert pr.a.order == 24 and pr.b.order == 12
    assert limits == [12]


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


@pytest.mark.parametrize("p,k,d", [(3, 1, 2), (3, 1, 3), (3, 2, 2)])
def test_assemble_reads_the_orbit_labels(p, k, d):
    # the chosen orbit of every pair, its members concatenated and sorted,
    # is the reference for the members read off the orbit labels
    split = prep(p, k, d).report.split
    rng = random.Random(split.m)
    members, pairs = split.partition.members, split.pairs
    for mask in [0, (1 << split.m) - 1] + [rng.getrandbits(split.m) for _ in range(4)]:
        chosen = [members[hi if mask >> i & 1 else lo] for i, (lo, hi) in enumerate(pairs)]
        want = np.sort(np.concatenate(chosen))
        got = assemble(split, mask)
        assert got.dtype == want.dtype and np.array_equal(got, want), mask


@pytest.mark.parametrize("p,k,d", [(3, 1, 2), (3, 2, 2), (3, 1, 3), (5, 1, 3)])
def test_assemble_matches_the_per_pair_loop(p, k, d):
    # m = 3, 6, 60 and 234: the bits read at once by unpackbits pick what a
    # shift per pair picks, across byte boundaries and at the top bit
    split = prep(p, k, d).report.split
    m = split.m
    rng = random.Random(m)
    masks = [0, (1 << m) - 1] + [1 << i for i in (0, 7, 8, m - 1) if i < m]
    masks += [rng.getrandbits(m) for _ in range(8)]
    for mask in masks + [np.int64(masks[-1] % 2**63)]:
        got, want = assemble(split, mask), loop_assemble(split, mask)
        assert got.dtype == want.dtype and np.array_equal(got, want), mask
    for bad in (-1, 1 << m):
        with pytest.raises(MaskLength):
            assemble(split, bad)


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
    # half the maximals, 9,828 of 19,656 at (5,3), take ten recount chunks;
    # a random half gives every point some degree, not only t + 1 / 2.  At
    # q = 41, d = 2, P = 70,644 points, so the index holds int32 ids
    for (p, k, d), half, dtype in (((5, 1, 3), 9828, np.uint16), ((41, 1, 2), 35322, np.int32)):
        qm = qmodel(p, k, d)
        ids = np.random.default_rng(53).permutation(qm.num_maximals)[: qm.num_maximals // 2]
        assert ids.size == half and qm.maximal_points.dtype == dtype
        whole = np.bincount(qm.maximal_points[ids].ravel(), minlength=qm.num_points)
        assert len(np.unique(whole)) > 1
        assert np.array_equal(qm.degrees(ids), whole)
        values, counts = np.unique(whole, return_counts=True)
        histogram = tuple(zip(values.tolist(), counts.tolist()))
        assert verify_hemisystem(qm, ids).histogram == histogram


def test_an_index_recount_holds_one_chunk_of_rows():
    # the recount gathers the rows of 1,024 members at a time; 8,192 at a
    # time, with bincount's intp copy of them, peaked at about 3 MB here
    pr = prep(5, 1, 3)
    ids = assemble(pr.report.split, 1)
    assert verify_hemisystem(pr.qm, ids).ok  # builds the index
    tracemalloc.start()
    try:
        rep = verify_hemisystem(pr.qm, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak < 1 << 20, peak


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


@pytest.mark.parametrize("p,k,d", [(3, 1, 3), (5, 2, 2)])
def test_a_set_off_target_reports_the_histogram_of_np_unique(p, k, d):
    # one member swapped across a pair takes the fallback histogram; a
    # hemisystem's, ((target, P),), is the one np.unique gives too
    pr = prep(p, k, d)
    qm, split = pr.qm, pr.report.split
    ids = assemble(split, 1)
    swapped = np.sort(np.append(np.delete(ids, 0), split.partition.members[split.pairs[0][0]][0]))
    for members in (ids, swapped):
        want = unique_histogram(qm.degrees(members))
        rep = verify_hemisystem(qm, members)
        assert rep.histogram == want and rep.ok == (members is ids)
        if qm.num_maximals < 2000:
            assert verify_hemisystem(qm, members, slow=True).histogram == want
    assert len(unique_histogram(qm.degrees(swapped))) > 1


def test_ids_in_any_order_verify_and_a_repeat_in_any_order_is_refused():
    # increasing ids skip the duplicate count; any other order is counted
    pr = prep(3, 1, 3)
    ids = assemble(pr.report.split, 5)
    shuffled = np.random.default_rng(5).permutation(ids)
    assert verify_hemisystem(pr.qm, shuffled) == verify_hemisystem(pr.qm, ids)
    repeated = np.sort(np.append(ids, ids[7]))
    for members in (repeated, np.random.default_rng(6).permutation(repeated)):
        with pytest.raises(UnknownMaximalId, match="duplicate member id"):
            verify_hemisystem(pr.qm, members)
    # increasing ids are bounded by their ends, and others by their extremes
    for alien in ([3, pr.qm.num_maximals, 4], [3, -1, 4], [3, 3, -1], [-1, 3, 4]):
        with pytest.raises(UnknownMaximalId, match="outside the model"):
            verify_hemisystem(pr.qm, alien)


def test_verify_rejects_alien_ids():
    pr = prep(3, 1, 2)
    with pytest.raises(UnknownMaximalId):
        verify_hemisystem(pr.qm, [0, pr.qm.num_maximals])
    with pytest.raises(UnknownMaximalId):
        verify_hemisystem(pr.qm, [-1, 0])
    with pytest.raises(UnknownMaximalId):
        verify_hemisystem(pr.qm, [3, 3, 4])
    # a cast to int64 would verify the fractions and the strings of a
    # hemisystem's ids, and read its member mask as a duplicate id
    ids = assemble(pr.report.split, 0)
    mask = np.zeros(pr.qm.num_maximals, dtype=bool)
    mask[ids] = True
    for alien in (ids + 0.5, [str(i) for i in ids], mask):
        with pytest.raises(UnknownMaximalId, match="integers"):
            verify_hemisystem(pr.qm, alien)
    empty = verify_hemisystem(pr.qm, [])
    assert not empty.ok and empty.size == 0


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
