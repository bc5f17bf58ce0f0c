"""Point and maximal enumeration, incidence, lookups and actions."""

import itertools
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import model, normal_form_cases, qmodel, rref_maximal_permutation, search_maximals
from hemisystems import quadric
from hemisystems.cli import main
from hemisystems.gf import field_make
from hemisystems.groups import embed_w_block, omega_w, tau
from hemisystems.linform import all_vectors, identity, mat_mul, rref
from hemisystems.orbits import ActionEscape
from hemisystems.quadric import (
    QuadricModel,
    enumerate_maximals,
    enumerate_points,
    maximal_count,
    maximals_per_point,
    point_count,
    points_per_maximal,
    require_memory,
)

SMALL = [(3, 1, 2), (5, 1, 2), (3, 2, 2), (3, 1, 3)]
ALL_DESK = [(3, 1, 2), (5, 1, 2), (7, 1, 2), (3, 2, 2), (3, 1, 3)]


def rows_increase(index):
    """Whether every row of an index strictly increases; the ids are widened
    first, since np.diff of unsigned ids wraps around below zero."""
    return bool((np.diff(index.astype(np.int64), axis=1) > 0).all())


def point_maximals(qm):
    """The transpose of the incidence index: the sorted maximal ids on each point."""
    order = np.argsort(qm.maximal_points.ravel(), kind="stable")
    return (order // qm.s1).reshape(qm.num_points, qm.t1)


def naive_points(m):
    """Independent point oracle: scalar-arithmetic scan of every vector."""
    F, n = m.field, m.dim
    J = m.space.gram
    out = []
    for vec in itertools.product(range(F.q), repeat=n):
        nonzero = [c for c in vec if c]
        if not nonzero or nonzero[0] != 1:
            continue
        acc = 0
        for i in range(n):
            for j in range(n):
                acc = F.add(acc, F.mul(vec[i], F.mul(int(J[i, j]), vec[j])))
        if acc == 0:  # beta(v, v) = 0 iff kappa(v) = 0 in odd characteristic
            out.append(vec)
    return sorted(out)


def oracle_maximals_d2(qm):
    """Independent maximal oracle for d = 2: every orthogonal point pair."""
    F = qm.field
    pts = qm.points
    beta = mat_mul(F, mat_mul(F, pts, qm.model.space.gram), pts.T)
    found = set()
    for i in range(pts.shape[0]):
        for j in np.nonzero(beta[i] == 0)[0]:
            if j <= i:
                continue
            R, piv = rref(F, np.stack([pts[i], pts[j]]))
            assert len(piv) == 2
            found.add(np.ascontiguousarray(R).tobytes())
    return found


@pytest.mark.parametrize("p,k,d", SMALL)
def test_points_match_naive_oracle(p, k, d):
    m = model(p, k, d)
    got = [tuple(int(c) for c in row) for row in enumerate_points(m)]
    assert got == naive_points(m)


@pytest.mark.parametrize(
    "p,k,d,npts,nmax,s1,t1",
    [
        (3, 1, 2, 40, 40, 4, 4),
        (5, 1, 2, 156, 156, 6, 6),
        (7, 1, 2, 400, 400, 8, 8),
        (3, 2, 2, 820, 820, 10, 10),
        (3, 1, 3, 364, 1120, 13, 40),
    ],
)
def test_frozen_counts(p, k, d, npts, nmax, s1, t1):
    q = p**k
    assert point_count(q, d) == npts
    assert maximal_count(q, d) == nmax
    assert points_per_maximal(q, d) == s1
    assert maximals_per_point(q, d) == t1
    qm = qmodel(p, k, d)
    assert qm.num_points == npts and qm.num_maximals == nmax
    assert qm.s1 == s1 and qm.t1 == t1
    assert qm.target_degree == t1 // 2


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1)])
def test_maximals_match_pair_oracle(p, k):
    qm = qmodel(p, k, 2)
    ours = {qm.maximal_bases[i].tobytes() for i in range(qm.num_maximals)}
    assert ours == oracle_maximals_d2(qm)


@pytest.mark.parametrize("p,k,d", ALL_DESK)
def test_maximals_match_search_oracle(p, k, d):
    # the rank recursion gives the bases, and the order, of the search over
    # RREF prefixes
    m = model(p, k, d)
    assert np.array_equal(enumerate_maximals(m), search_maximals(m))


@pytest.mark.parametrize("p,k,d", ALL_DESK)
def test_canonical_order_and_determinism(p, k, d):
    m = model(p, k, d)
    q = m.field.q
    pts = enumerate_points(m)
    again = enumerate_points(m)
    assert np.array_equal(pts, again)
    pows = q ** np.arange(m.dim - 1, -1, -1, dtype=np.int64)
    codes = pts.astype(np.int64) @ pows
    assert (np.diff(codes) > 0).all()
    # a point's code is its lex rank among all q^n coordinate tuples
    assert np.array_equal(all_vectors(q, m.dim)[codes], pts)
    assert np.array_equal(qmodel(p, k, d).point_codes, codes)
    maxs = enumerate_maximals(m)
    assert np.array_equal(maxs, enumerate_maximals(m))
    blobs = [maxs[i].tobytes() for i in range(maxs.shape[0])]
    assert all(a < b for a, b in zip(blobs, blobs[1:]))


def test_frozen_first_points_3_2():
    # derived from the Gram by hand: the x- and y-axis vectors are
    # anisotropic, so the lowest-code singular vectors are f0, then e0,
    # then e0 + f0 + y (norm 2*1*1 - 2*1*1 = 0 mod 3)
    qm = qmodel(3, 1, 2)
    assert qm.points[0].tolist() == [0, 0, 1, 0, 0]
    assert qm.points[1].tolist() == [0, 1, 0, 0, 0]
    assert qm.points[2].tolist() == [0, 1, 1, 0, 1]
    # per-pivot census: 30 points meet z, 9 more meet e0, f0 is alone
    pivots = np.argmax(qm.points != 0, axis=1)
    assert np.bincount(pivots, minlength=5).tolist() == [30, 9, 1, 0, 0]


def test_frozen_first_maximal_3_2():
    # by hand: (1,0,0,1,1) is the least singular vector with leading z, and
    # f0 = (0,0,1,0,0) is the lexicographically least possible second row --
    # it is singular, orthogonal to b1, and b1 is zero in its pivot column
    qm = qmodel(3, 1, 2)
    assert qm.maximal_bases[0].tolist() == [[1, 0, 0, 1, 1], [0, 0, 1, 0, 0]]


def on_maximal(qm, pid, mid):
    """Whether point pid lies on maximal mid: adding it to the basis keeps rank d."""
    stacked = np.vstack([qm.maximal_bases[mid], qm.points[pid]])
    return len(rref(qm.field, stacked)[1]) == qm.d


def test_incidence_full_oracle_3_2():
    qm = qmodel(3, 1, 2)
    inc = np.zeros((qm.num_points, qm.num_maximals), dtype=bool)
    for pid in range(qm.num_points):
        for mid in range(qm.num_maximals):
            inc[pid, mid] = on_maximal(qm, pid, mid)
    assert (inc.sum(axis=0) == qm.s1).all()
    assert (inc.sum(axis=1) == qm.t1).all()
    for mid in range(qm.num_maximals):
        assert np.array_equal(np.nonzero(inc[:, mid])[0], qm.maximal_points[mid])
    pm = point_maximals(qm)
    for pid in range(qm.num_points):
        assert np.array_equal(np.nonzero(inc[pid])[0], pm[pid])


@pytest.mark.parametrize("p,k,d", ALL_DESK)
def test_incidence_is_orthogonality(p, k, d):
    # a singular point lies on a maximal M exactly when it is orthogonal to
    # M, since M-perp / M is anisotropic
    qm = qmodel(p, k, d)
    F = qm.field
    pj = mat_mul(F, qm.points, qm.model.space.gram)
    for mid in range(qm.num_maximals):
        on = ~mat_mul(F, pj, qm.maximal_bases[mid].T).any(axis=1)
        assert np.array_equal(np.flatnonzero(on), qm.maximal_points[mid])


@pytest.mark.parametrize("p,k,d", ALL_DESK)
def test_incidence_structure(p, k, d):
    qm = qmodel(p, k, d)
    assert qm.maximal_points.shape == (qm.num_maximals, qm.s1)
    pm = point_maximals(qm)
    assert pm.shape == (qm.num_points, qm.t1)
    assert rows_increase(qm.maximal_points)
    assert (np.diff(pm, axis=1) > 0).all()
    # a row in reverse order is caught; at uint16 the uncast np.diff wraps
    # each descent round to a large positive step and would pass it
    mutant = qm.maximal_points.copy()
    mutant[0] = mutant[0, ::-1]
    assert not rows_increase(mutant)
    assert mutant.dtype != np.uint16 or (np.diff(mutant, axis=1) > 0).all()
    rng = np.random.default_rng(11)
    for mid in rng.choice(qm.num_maximals, size=10, replace=False):
        row = qm.maximal_points[mid]
        for pid in row[:3]:
            assert on_maximal(qm, pid, mid)
        outside = np.setdiff1d(np.arange(qm.num_points), row)[:3]
        for pid in outside:
            assert not on_maximal(qm, pid, mid)
        assert (pm[row] == mid).any(axis=1).all()


def test_point_and_maximal_lookup_round_trip():
    for p, k in ((3, 1), (3, 2)):
        qm = qmodel(p, k, 2)
        F = qm.field
        for lam in range(1, F.q):
            scaled = F.mul_table[lam, qm.points]
            assert [int(qm.point_ids(v[None])[0]) for v in scaled] == list(range(qm.num_points))
        for mid in range(qm.num_maximals):
            assert int(qm.maximal_ids(qm.maximal_bases[mid][None])[0]) == mid
        with pytest.raises(ActionEscape):
            qm.point_ids(np.zeros((1, 5), dtype=np.uint8))
        with pytest.raises(ActionEscape):
            qm.point_ids(np.array([[1, 0, 0, 0, 0]], dtype=np.uint8))  # z is anisotropic
        with pytest.raises(ActionEscape):
            qm.maximal_ids(np.array([[[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]], np.uint8))
        with pytest.raises(ActionEscape):
            qm.maximal_ids(np.array([[[0, 0, 1, 0, 0]]], np.uint8))  # one row

        # a stack resolves whatever basis each maximal is written in
        ids = np.arange(qm.num_maximals)
        assert np.array_equal(qm.maximal_ids(qm.maximal_bases), ids)
        for lam in range(1, F.q):
            other = F.mul_table[lam, qm.maximal_bases[:, ::-1]]  # rows swapped and scaled
            assert np.array_equal(qm.maximal_ids(other), ids)

    qm = qmodel(3, 1, 2)  # the rejections below are written over GF(3)
    z_e0 = np.eye(5, dtype=np.uint8)[None, :2]
    bad = np.concatenate([qm.maximal_bases[:3], z_e0, qm.maximal_bases[:2, :1].repeat(2, 1)])
    with pytest.raises(ActionEscape) as exc:
        qm.maximal_ids(bad)  # matrices 3 (not singular) and 4, 5 (rank 1) span no maximal
    assert exc.value.index == 3
    with pytest.raises(ActionEscape) as exc:
        qm.maximal_ids(bad[4:])
    assert exc.value.index == 0
    spill = np.concatenate([qm.maximal_bases[:1], np.eye(5, dtype=np.uint8)[None, 1:2]], 1)
    with pytest.raises(ActionEscape):
        qm.maximal_ids(spill)  # rank 3 > d, though its first two RREF rows are a maximal
    e0_f0 = np.eye(5, dtype=np.uint8)[None, 1:3]  # two singular points, not a singular line
    with pytest.raises(ActionEscape) as exc:
        qm.maximal_ids(np.concatenate([qm.maximal_bases[:2], e0_f0, z_e0]))
    assert exc.value.index == 2


@pytest.mark.parametrize("p,k,d", [(3, 1, 2), (3, 2, 2), (3, 1, 3), (5, 1, 3)])
def test_maximal_ids_reduces_only_the_bases_that_are_not_canonical(monkeypatch, p, k, d):
    # canonical bases are resolved by their rows' point ids and a byte
    # compare; row-scaled and row-permuted ones are reduced as before, and a
    # bad matrix among them is reported at its own index in the stack
    qm = qmodel(p, k, d)
    F = qm.field
    rng = np.random.default_rng(7)
    ids = rng.choice(qm.num_maximals, 36, replace=False)
    stack = qm.maximal_bases[ids].copy()
    scaled, permuted = np.arange(5, 36, 7), np.arange(9, 36, 11)
    stack[scaled] = F.mul_table[F.q - 1, stack[scaled]]
    stack[permuted] = stack[permuted, ::-1]
    reduced = []
    real = quadric.rref_batch

    def counted(F, mats):
        reduced.append(len(mats))
        return real(F, mats)

    monkeypatch.setattr(quadric, "rref_batch", counted)
    assert np.array_equal(qm.maximal_ids(stack), ids)
    assert reduced == [len(np.union1d(scaled, permuted))]
    assert np.array_equal(qm.maximal_ids(qm.maximal_bases[ids]), ids)
    assert reduced == [len(np.union1d(scaled, permuted))]  # no reduction at all
    # only canonical bases precede matrix 3, and reduced ones precede 30
    for at in (3, 30):
        bad = stack.copy()
        bad[at, -1] = bad[at, 0]  # a repeated row: rank d - 1
        with pytest.raises(ActionEscape) as exc:
            qm.maximal_ids(bad)
        assert exc.value.index == at


def reference_ids(qm, stack):
    """The id of the maximal each matrix spans, by the scalar ``rref`` and a
    dict of the RREF bases, or None where it spans no maximal."""
    bases = {b.tobytes(): i for i, b in enumerate(qm.maximal_bases)}
    out = []
    for M in stack:
        R, _ = rref(qm.field, M)
        out.append(bases.get(R.tobytes()) if len(R) == qm.d else None)
    return out


def aliased_basis(qm):
    """A maximal and d rows, none of them a unit vector, whose table lookups
    read that maximal's basis points, found by search over every vector."""
    F = qm.field
    vecs = all_vectors(F.q, qm.dim)[1:]
    lead = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    others = vecs[lead != 1]
    pids = qm._lookup_units(others)
    alias = {}
    for v, pid in zip(others, pids.tolist()):
        alias.setdefault(pid, v)
    for j, points in enumerate(qm.basis_points.tolist()):
        if all(pid in alias for pid in points):
            return j, np.stack([alias[pid] for pid in points])
    raise AssertionError("no maximal has an aliased basis")


@pytest.mark.parametrize("p,k,d", [(3, 1, 2), (3, 1, 3), (3, 2, 2)])
def test_maximal_ids_by_codes_agree_with_a_scalar_reduction(p, k, d):
    # a matrix is taken as a maximal's RREF basis by its rows' codes and the
    # maximal code they spell; every other spelling is reduced, and both
    # must agree with the scalar rref of each matrix looked up among the bases
    qm = qmodel(p, k, d)
    F = qm.field
    rng = np.random.default_rng(11)
    j, aliased = aliased_basis(qm)
    assert (qm._lookup_units(aliased) == qm.basis_points[j]).all()
    assert (aliased != qm.maximal_bases[j]).any(axis=1).all()
    units = all_vectors(F.q, qm.dim)[1:]
    units = units[units[np.arange(len(units)), np.argmax(units != 0, axis=1)] == 1]
    outside = units[qm._lookup_units(units) < 0]
    cases = [aliased]
    for i in rng.choice(qm.num_maximals, min(qm.num_maximals, 40), replace=False):
        B = qm.maximal_bases[i]
        r = int(rng.integers(d))
        swapped = B[np.roll(np.arange(d), 1)]
        scaled = B.copy()
        scaled[r] = F.mul_table[int(rng.integers(2, F.q)), B[r]]
        others = np.setdiff1d(qm.maximal_points[i], qm.basis_points[i])
        replaced = B.copy()
        replaced[r] = qm.points[rng.choice(others)]
        zero_row = B.copy()
        zero_row[r] = 0
        not_singular = B.copy()
        not_singular[r] = outside[rng.integers(len(outside))]
        cases += [B, swapped, scaled, replaced, zero_row, not_singular]
    stack = np.stack(cases)
    want = reference_ids(qm, stack)
    assert want[0] != j  # the aliased rows do not span the maximal they spell
    for M, w in zip(stack, want):
        if w is None:
            with pytest.raises(ActionEscape) as exc:
                qm.maximal_ids(M[None])
            assert exc.value.index == 0
        else:
            assert qm.maximal_ids(M[None]).tolist() == [w]
    good = [i for i, w in enumerate(want) if w is not None]
    assert qm.maximal_ids(stack[good]).tolist() == [want[i] for i in good]
    with pytest.raises(ActionEscape) as exc:
        qm.maximal_ids(stack)
    assert exc.value.index == want.index(None)


@pytest.mark.parametrize("p,k,d", ALL_DESK)
def test_point_table_matches_a_binary_search_oracle(p, k, d):
    # every nonzero vector, scaled to its unit multiple, is found by the
    # table exactly when a binary search among the point codes finds it
    qm = qmodel(p, k, d)
    F, n = qm.field, qm.dim
    vecs = all_vectors(F.q, n)[1:]
    lead = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    units = F.mul_table[F.inv_table[lead][:, None], vecs]
    codes = units.astype(np.int64) @ (F.q ** np.arange(n - 1, -1, -1, dtype=np.int64))
    pos = np.minimum(np.searchsorted(qm.point_codes, codes), qm.num_points - 1)
    found = qm.point_codes[pos] == codes
    assert found.sum() == (F.q - 1) * qm.num_points
    assert np.array_equal(qm.point_ids(vecs[found]), pos[found])
    assert np.array_equal(qm.point_ids(qm.points), np.arange(qm.num_points))

    rng = np.random.default_rng(7)
    outside = rng.choice(np.flatnonzero(~found), 25, replace=False)
    for v in (np.zeros(n, dtype=np.uint8), *units[outside], *vecs[outside]):
        with pytest.raises(ActionEscape):
            qm.point_ids(np.concatenate([qm.points, v[None]]))
    # a maximal basis with one row swapped for a non-singular vector, or an
    # all-zero matrix, spans no maximal, and the error names the matrix
    stack = qm.maximal_bases[:6]
    for i, v in enumerate(units[outside[:6]]):
        bad = stack.copy()
        bad[i, i % d] = v
        with pytest.raises(ActionEscape) as exc:
            qm.maximal_ids(bad)
        assert exc.value.index == i
        bad = stack.copy()
        bad[i] = 0
        with pytest.raises(ActionEscape) as exc:
            qm.maximal_ids(bad)
        assert exc.value.index == i


@pytest.mark.parametrize("p,k,d", SMALL)
def test_maximal_codes_are_the_basis_point_ids_as_digits(p, k, d):
    qm = qmodel(p, k, d)
    P = qm.num_points
    assert qm.maximal_codes.dtype == np.int64
    assert (np.diff(qm.maximal_codes) > 0).all()
    ids = [qm.point_ids(basis).tolist() for basis in qm.maximal_bases]
    assert qm.maximal_codes.tolist() == [
        sum(pid * P ** (d - 1 - i) for i, pid in enumerate(row)) for row in ids
    ]


@pytest.mark.parametrize("p,k,d", [(3, 1, 2), (5, 1, 2), (3, 1, 3)])
def test_a_basis_row_that_does_not_lead_with_one_is_refused(monkeypatch, p, k, d):
    # the basis rows are looked up as they stand, which is right for unit
    # vectors only: a row scaled by 2 can read another point's id
    qm = qmodel(p, k, d)
    F = qm.field
    scaled = F.mul_table[2, qm.maximal_bases]
    looked_up = qm._lookup_units(scaled)
    i, r = np.argwhere((looked_up >= 0) & (looked_up != qm.basis_points))[0]
    bases = qm.maximal_bases.copy()
    bases[i, r] = scaled[i, r]
    monkeypatch.setattr(quadric, "enumerate_maximals", lambda model: bases)
    with pytest.raises(RuntimeError, match="does not lead with 1"):
        QuadricModel(model(p, k, d))


def test_maximal_ids_rank_check_survives_optimize():
    code = (
        "import numpy as np\n"
        "from hemisystems.gf import field_make\n"
        "from hemisystems.linform import standard_model\n"
        "from hemisystems.orbits import ActionEscape\n"
        "from hemisystems.quadric import QuadricModel\n"
        "qm = QuadricModel(standard_model(field_make(3), 2))\n"
        "stack = qm.maximal_bases[:3].copy()\n"
        "stack[1, 1] = stack[1, 0]\n"
        "try:\n"
        "    qm.maximal_ids(stack)\n"
        "except ActionEscape as exc:\n"
        "    print('raised', exc.index)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["raised", "1"]


@pytest.mark.parametrize("p,k,d", SMALL)
def test_permutations_respect_incidence(p, k, d):
    qm = qmodel(p, k, d)
    ident = qm.point_permutation(identity(3))
    assert np.array_equal(ident, np.arange(qm.num_points))
    assert np.array_equal(qm.maximal_permutation(identity(3)), np.arange(qm.num_maximals))
    # swapping e0 and f0 is an isometry of W
    swap = identity(3)
    swap[[1, 2]] = swap[[2, 1]]
    pperm = qm.point_permutation(swap)
    mperm = qm.maximal_permutation(swap)
    assert np.array_equal(pperm[pperm], np.arange(qm.num_points))
    assert np.array_equal(mperm[mperm], np.arange(qm.num_maximals))
    for mid in range(qm.num_maximals):
        image = np.sort(pperm[qm.maximal_points[mid]])
        assert np.array_equal(image, qm.maximal_points[mperm[mid]])


def action_matrices(qm):
    """B's generators and tau, as 3x3 blocks on W."""
    return [*omega_w(qm.model).generators, tau(qm.model)]


@pytest.mark.parametrize("p,k,d", [(3, 1, 2), (5, 1, 2), (3, 2, 2), (5, 2, 2), (3, 1, 3)])
def test_maximal_permutation_matches_rref_oracle(p, k, d):
    # and the point permutation, which changes only the W columns, matches
    # the product of every point with the full matrix h (+) I_U
    qm = qmodel(p, k, d)
    for h in action_matrices(qm):
        perm = qm.maximal_permutation(h)
        assert perm.dtype == np.int64
        assert np.array_equal(perm, rref_maximal_permutation(qm, h))
        full = qm.point_ids(mat_mul(qm.field, qm.points, embed_w_block(qm.field, h, qm.dim)))
        assert np.array_equal(qm.point_permutation(h), full)


@pytest.mark.parametrize(
    "p,k,d,sample",
    [(3, 1, 2, None), (3, 2, 2, None), (3, 1, 3, None), (5, 1, 3, 12), (5, 2, 2, 12)],
)
def test_closed_form_action_matches_rref_oracle_on_b_and_tau_b(p, k, d, sample):
    # every element of B and of the coset tau B, or a sample of each, given
    # as its W block, against the reduction of every image basis
    qm = qmodel(p, k, d)
    F = qm.field
    b = omega_w(qm.model).elements
    if sample is not None:
        b = b[np.random.default_rng(19).choice(len(b), sample, replace=False)]
    blocks = np.concatenate([b, mat_mul(F, tau(qm.model), b)])
    # how many maximals project onto a 2-space and a 3-space of W
    w = np.bincount((qm.maximal_bases[:, :, :3] != 0).any(axis=2).sum(axis=1), minlength=4)
    split = {(3, 3): [400, 720], (5, 3): [4056, 15600]}.get((p, d), [qm.num_maximals, 0])
    assert w.tolist() == [0, 0, *split]
    images = mat_mul(F, qm.maximal_bases[:, None], embed_w_block(F, blocks, qm.dim))
    oracle = qm.maximal_ids(images.transpose(1, 0, 2, 3).reshape(-1, qm.d, qm.dim))
    oracle = oracle.reshape(len(blocks), qm.num_maximals)
    for h, ref in zip(blocks, oracle):
        assert np.array_equal(qm.maximal_permutation(h), ref)


@pytest.mark.parametrize("p,k,d", [(3, 1, 2), (3, 2, 2), (3, 1, 3)])
def test_a_corrupted_index_never_yields_a_wrong_permutation(p, k, d):
    # the action reads the basis points and the point table, not the index:
    # a rolled index leaves every permutation right, and a point table that
    # has lost a basis row's point makes the action escape
    qm = QuadricModel(model(p, k, d))  # a private model: it is corrupted below
    qm.maximal_points = np.roll(qm.maximal_points, 1, axis=0)
    for h in [identity(3), *action_matrices(qm)]:
        perm = qm.maximal_permutation(h)
        assert np.array_equal(perm, rref_maximal_permutation(qm, h))
    pid = qm.basis_points[-1, -1]
    qm.point_table[qm.point_table == pid] = -1
    with pytest.raises(ActionEscape) as exc:
        qm.maximal_permutation(identity(3))
    assert exc.value.index == np.flatnonzero((qm.basis_points == pid).any(axis=1))[0]


@pytest.mark.parametrize("p,k,d", [(3, 1, 2), (3, 1, 3)])
def test_maximal_permutation_escapes_at_the_first_rejected_image(p, k, d):
    # the shear z -> z + f0 is invertible but no isometry; the action
    # escapes at the first maximal whose image maximal_ids rejects on its
    # own, which is not maximal 0
    qm = qmodel(p, k, d)
    shear = identity(3)
    shear[0, 2] = 1
    images = mat_mul(qm.field, qm.maximal_bases, embed_w_block(qm.field, shear, qm.dim))

    def rejected(i):
        try:
            qm.maximal_ids(images[i:i + 1])
        except ActionEscape:
            return True
        return False

    first = next(i for i in range(qm.num_maximals) if rejected(i))
    assert first > 0
    with pytest.raises(ActionEscape) as exc:
        qm.maximal_permutation(shear)
    assert exc.value.index == first


def test_shear_and_singular_matrix_escape():
    qm = qmodel(3, 1, 2)
    shear = identity(3)
    shear[0, 1] = 1  # z -> z + e0 is not an isometry
    singular = identity(3)
    singular[1] = 0  # the singular point e0 goes to zero
    for h in (shear, singular):
        with pytest.raises(ActionEscape):
            qm.maximal_permutation(h)
        with pytest.raises(ActionEscape):
            qm.point_permutation(h)
        with pytest.raises(ActionEscape):
            rref_maximal_permutation(qm, h)


def test_a_full_matrix_is_refused_by_the_actions_and_membership():
    # every element enters as its 3x3 block on W; a (2d + 1)^2 matrix, even
    # h (+) I_U for an element h of B, is refused before any comparison
    qm = qmodel(3, 1, 2)
    b = omega_w(qm.model)
    full = embed_w_block(qm.field, b.generators, qm.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in (identity(qm.dim), full[0], full):
            with pytest.raises(ValueError, match="3x3"):
                b.contains(g)
        for g in (identity(qm.dim), full[0]):
            with pytest.raises(ValueError, match="3x3"):
                qm.maximal_permutation(g)
            with pytest.raises(ValueError, match="3x3"):
                qm.point_permutation(g)


def reference_index(qm):
    """The int32 index as ``mat_mul`` builds it: every combination of a
    basis whose first nonzero coefficient is 1, looked up and sorted."""
    F = qm.field
    combos = np.array([c for c in all_vectors(F.q, qm.d)[1:] if c[np.flatnonzero(c)[0]] == 1])
    out = np.empty((qm.num_maximals, qm.s1), dtype=np.int32)
    for start in range(0, qm.num_maximals, 4096):
        span = mat_mul(F, combos, qm.maximal_bases[start:start + 4096])
        out[start:start + 4096] = qm.point_ids(span.reshape(-1, qm.dim)).reshape(-1, qm.s1)
    out.sort(axis=1)
    return out


@pytest.mark.parametrize("p,k,d", [*SMALL, (41, 1, 2)])
def test_index_ids_take_the_narrowest_exact_type(p, k, d):
    # uint16 holds every id while P <= 65,536; q = 41, d = 2 has 70,644 points
    qm = qmodel(p, k, d)
    assert (qm.num_points <= 2**16) == ((p, k, d) in SMALL)
    assert qm.maximal_points.dtype == (np.uint16 if qm.num_points <= 2**16 else np.int32)
    assert np.array_equal(qm.maximal_points, reference_index(qm))
    assert qm.basis_points.dtype == np.int32
    assert qm.basis_points.shape == (qm.num_maximals, qm.d)
    rows = qm.maximal_bases.reshape(-1, qm.dim)
    assert np.array_equal(qm.basis_points.ravel(), [int(qm.point_ids(v[None])[0]) for v in rows])


def test_require_memory_counts_four_bytes_per_index_id(monkeypatch):
    # the index holds uint16 ids up to 65,536 points, but the guard keeps
    # counting 4 bytes each: at 2 bytes (3,5) would fit in 8.41 GB, and its
    # enumeration alone exceeds 8 GB
    monkeypatch.setattr(quadric, "_physical_memory", lambda: 8_408_645_632)
    q, d = 3, 5
    N, s1 = maximal_count(q, d), points_per_maximal(q, d)
    at_two_bytes = N * d * (2 * d + 1) + 2 * N * s1 + 4 * N * d
    assert point_count(q, d) <= 2**16 and at_two_bytes < 7.2e9
    with pytest.raises(ValueError, match="more than the 8408645632 bytes of physical memory"):
        require_memory(q, d)
    for q, d in ((3, 2), (3, 3), (5, 3), (3, 4), (25, 2), (27, 2), (7, 3), (49, 2), (9, 3)):
        require_memory(q, d)


def test_point_ids_beyond_int32_are_rejected():
    assert point_count(3, 11) >= 2**31 > point_count(3, 10)
    with pytest.raises(ValueError, match="int32"):
        require_memory(3, 11)


@pytest.mark.parametrize("d", [3000, 5000])
def test_absurd_ranks_are_refused_without_forming_the_point_count(d):
    # q^(2d) has thousands of digits here; the message names the limit, not the count
    with pytest.raises(ValueError, match="int32") as exc:
        require_memory(3, d)
    assert len(str(exc.value)) < 300


def test_maximal_codes_beyond_int64_are_refused_up_front(monkeypatch):
    # (3,5) and (5,4) are the ranks needing under 16 GiB whose P^d reaches
    # 2^63; with memory to spare they are refused by their codes, from
    # closed forms alone
    monkeypatch.setattr(quadric, "_physical_memory", lambda: 2**34)
    assert point_count(5, 4) ** 4 >= 2**63 > point_count(3, 4) ** 4
    assert point_count(3, 5) ** 5 >= 2**63
    tracemalloc.start()
    try:
        for q, d in ((5, 4), (3, 5)):
            with pytest.raises(ValueError, match="overflow int64"):
                require_memory(q, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    require_memory(3, 4)
    require_memory(7, 3)


def test_require_memory_counts_the_point_table(monkeypatch, capsys):
    # at q = 125, d = 2 the bases and index take about 1 GB and the point
    # table as much again; memory between the two sums refuses the geometry
    require_memory(3, 4)
    require_memory(7, 3)
    q, d = 125, 2
    N = maximal_count(q, d)
    without = N * d * (2 * d + 1) + 4 * N * (points_per_maximal(q, d) + d)
    table = 4 * ((q ** (2 * d + 1) - 1) // (q - 1) + 1)
    assert 0.9e9 < table < 1.0e9
    monkeypatch.setattr(quadric, "_physical_memory", lambda: without + table)
    require_memory(q, d)
    monkeypatch.setattr(quadric, "_physical_memory", lambda: without + table // 2)
    with pytest.raises(ValueError, match="point table"):
        require_memory(q, d)
    assert main(["stats", "--p", "5", "--k", "3", "--d", "2"]) == 2
    assert f"{without} bytes and the point table {table}, " in capsys.readouterr().err


def test_point_codes_fit_in_int64_at_every_accepted_rank(monkeypatch):
    # require_memory bounds the point ids, not the codes: with no memory
    # bound, every rank it accepts must still keep q^(2d + 1), above every
    # code, below 2^63; P < 2^31 even keeps it under 2^31 q^2 <= 2^47
    monkeypatch.setattr(quadric, "_physical_memory", lambda: None)
    primes = [p for p in range(3, 256) if all(p % f for f in range(2, p))]
    qs = sorted({p**k for p in primes for k in range(1, 6) if p**k <= 255})
    assert qs[:6] == [3, 5, 7, 9, 11, 13] and qs[-2:] == [243, 251]
    for q in qs:
        d = 2
        while True:
            try:
                require_memory(q, d)
            except ValueError:
                break
            assert q ** (2 * d + 1) < 2**47 < 2**63
            d += 1
        assert d > 2, f"q = {q} accepts no rank"


@pytest.mark.parametrize("p,k,d", SMALL)
def test_every_maximal_meets_z(p, k, d):
    qm = qmodel(p, k, d)
    assert (qm.maximal_bases[:, 0, 0] == 1).all()
    assert not qm.maximal_bases[:, 1:, 0].any()


@pytest.mark.parametrize("p,k,d", SMALL)
def test_basis_normal_form_round_trip(p, k, d):
    seen = set(normal_form_cases(qmodel(p, k, d)).tolist())
    assert seen == ({2, 3} if d == 2 else {1, 2, 3})
