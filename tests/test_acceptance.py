"""Acceptance gate: ten end-to-end criteria, one test (one pass/fail line) each.

Each criterion is exact -- no tolerances.  Timed criteria assert their own
wall-clock budgets.  Criterion 1 deliberately rebuilds everything from
scratch inside the timer; later criteria reuse those builds.
"""

import time

import numpy as np
import pytest

from conftest import element_orders, normal_form_cases
from hemisystems.cli import (
    certificate_text,
    check_certificate_header,
    main,
    parse_certificate,
    resolve_members,
)
from hemisystems.gf import field_make
from hemisystems.hemi import (
    assemble,
    enumerate_all_hemisystems,
    prepare,
    verify_hemisystem,
)
from hemisystems.linform import all_vectors, format_matrix, mat_mul, rref, standard_model
from hemisystems.orbits import orbit_image, partition
from hemisystems.quadric import (
    maximal_count,
    maximals_per_point,
    point_count,
    points_per_maximal,
)

DESK_CONFIGS = ((3, 1, 2), (5, 1, 2), (7, 1, 2), (3, 2, 2), (3, 1, 3))

_cache: dict = {}


def _prep(p, k, d):
    key = (p, k, d)
    if key not in _cache:
        _cache[key] = prepare(field_make(p, k), d)
    return _cache[key]


def independent_quadric_census(F, d):
    """Count projective points and maximals without the orderly enumerator.

    Scans all vectors for singular ones, then grows totally singular
    subspaces point by point, deduplicating by RREF.  Returns
    (point_total, maximal_total, maximal_rref_keys).
    """
    mdl = standard_model(F, d)
    sp = mdl.space
    vecs = all_vectors(F.q, mdl.dim)[1:]
    sing = vecs[sp.kappa_batch(vecs) == 0]
    lead = (sing != 0).argmax(axis=1)
    reps = sing[sing[np.arange(sing.shape[0]), lead] == 1]
    n = reps.shape[0]
    orth = mat_mul(F, mat_mul(F, reps, sp.gram), reps.T) == 0
    level = {}
    for i in range(n):
        R, _ = rref(F, reps[i : i + 1])
        cand = np.flatnonzero(orth[i])
        level[R.tobytes()] = (R, cand[cand != i])
    for _ in range(d - 1):
        nxt = {}
        for R, cand in level.values():
            for j in cand:
                R2, _ = rref(F, np.vstack([R, reps[j]]))
                if R2.shape[0] != R.shape[0] + 1:
                    continue
                key = R2.tobytes()
                if key not in nxt:
                    c = cand[orth[j][cand]]
                    nxt[key] = (R2, c[c != j])
        level = nxt
    return n, len(level), set(level.keys())


# ---------------------------------------------------------------------------


def test_01_end_to_end_all_zero_mask_instances():
    """Fresh build, orbit-split check, all-zero mask, exact degree -- 5 configs."""
    for p, k, d in DESK_CONFIGS:
        budget = 60.0 if d > 2 else 5.0
        start = time.perf_counter()
        pr = prepare(field_make(p, k), d)
        assert pr.report.ok, (p, k, d, pr.report.witness)
        ids = assemble(pr.report.split, 0)
        verdict = verify_hemisystem(pr.qm, ids)
        elapsed = time.perf_counter() - start
        q = p**k
        expected_t1 = 1
        for i in range(1, d):
            expected_t1 *= q**i + 1
        assert pr.qm.t1 == expected_t1
        assert verdict.ok
        assert verdict.histogram == ((expected_t1 // 2, pr.qm.num_points),)
        assert ids.size == pr.qm.num_maximals // 2
        assert elapsed <= budget, f"({p},{k},{d}) took {elapsed:.1f}s > {budget}s"
        _cache[(p, k, d)] = pr


def test_02_exhaustive_family_at_q3_d2():
    """All 2^m masks at (3,2): verified, pairwise distinct, complement-closed."""
    start = time.perf_counter()
    pr = _prep(3, 1, 2)
    split = pr.report.split
    family = {}
    for mask, ids in enumerate_all_hemisystems(split):
        assert verify_hemisystem(pr.qm, ids).ok, f"mask {mask:x} failed"
        family[mask] = ids
    assert len(family) == 2**split.m
    keys = {ids.tobytes() for ids in family.values()}
    assert len(keys) == len(family), "family members are not pairwise distinct"
    everything = np.arange(pr.qm.num_maximals, dtype=family[0].dtype)
    for ids in family.values():
        complement = np.setdiff1d(everything, ids)
        assert complement.tobytes() in keys, "family is not complement-closed"
    assert time.perf_counter() - start <= 60.0


def test_03_group_orders_and_a4_structure():
    """|B| = q(q^2-1)/2 and |A| = q(q^2-1); at q=3, B has A4's order spectrum."""
    for p, k in ((3, 1), (5, 1), (7, 1), (3, 2)):
        pr = _prep(p, k, 2)
        q = p**k
        assert pr.b.order == q * (q**2 - 1) // 2
        assert pr.a.order == q * (q**2 - 1)
        assert pr.report.b_order == pr.b.order
        assert pr.report.a_order == pr.a.order
    pr = _prep(3, 1, 2)
    orders = sorted(element_orders(pr.field, pr.b.elements).tolist())
    assert orders == [1] + [2] * 3 + [3] * 8
    assert 6 not in orders


def test_04_w_singular_orbit_split_and_norm_class_transitivity():
    """Two B-orbits of size (q^2-1)/2 on singular W-vectors; one orbit per norm."""
    for p, k in ((3, 1), (5, 1), (7, 1), (3, 2)):
        pr = _prep(p, k, 2)
        F = pr.field
        wsp = pr.model.w_space
        vecs = all_vectors(F.q, 3)[1:]
        index = {vecs[i].tobytes(): i for i in range(vecs.shape[0])}
        perms = []
        for g in pr.b.generators:
            img = mat_mul(F, vecs, g)
            perms.append(np.array([index[row.tobytes()] for row in img]))
        part = partition(vecs.shape[0], perms)
        norms = wsp.kappa_batch(vecs)
        half = (F.q**2 - 1) // 2
        singular_orbits = {int(o) for o in part.orbit_of[norms == 0]}
        assert len(singular_orbits) == 2
        assert sorted(int(part.sizes[o]) for o in singular_orbits) == [half, half]
        for c in range(1, F.q):
            cls = np.flatnonzero(norms == c)
            orbit_ids = {int(o) for o in part.orbit_of[cls]}
            assert len(orbit_ids) == 1, f"q={F.q}: norm class {c} splits"
            assert int(part.sizes[orbit_ids.pop()]) == cls.size


def _a_partitions(pr):
    """Orbits of A on points and on maximals, by union-find over A's generators."""
    qm = pr.qm
    point_perms = [qm.point_permutation(g) for g in pr.a.generators]
    maximal_perms = [qm.maximal_permutation(g) for g in pr.a.generators]
    return partition(qm.num_points, point_perms), partition(qm.num_maximals, maximal_perms)


def test_05_point_partitions_coincide():
    """B and A induce the same partition of the quadric's points everywhere."""
    for p, k, d in DESK_CONFIGS:
        pr = _prep(p, k, d)
        bpart = pr.actions.b_point_part
        apart, _ = _a_partitions(pr)
        assert pr.report.point_orbits_match
        assert np.array_equal(bpart.orbit_of, apart.orbit_of)
        assert bpart.n_orbits == apart.n_orbits


def test_06_tau_pairs_all_maximal_orbits():
    """No tau-stable B-orbit on maximals; partner sizes equal; n_b = 2m."""
    for p, k, d in DESK_CONFIGS:
        pr = _prep(p, k, d)
        part = pr.actions.b_maximal_part
        image = orbit_image(part, pr.actions.tau_maximal_perm)
        for o in range(part.n_orbits):
            assert image[o] not in (-1, o), f"({p},{k},{d}): orbit {o} is tau-stable"
            assert part.sizes[image[o]] == part.sizes[o]
        m = len(pr.report.split.pairs)
        assert part.n_orbits == 2 * m
        assert _a_partitions(pr)[1].n_orbits == m


def test_07_projection_and_normal_form_roundtrip():
    """Every maximal meets z nontrivially and its RREF basis is in normal form."""
    for p, k, d in ((3, 1, 2), (5, 1, 2), (3, 1, 3)):
        normal_form_cases(_prep(p, k, d).qm)


def test_08_regularity_and_independent_totals():
    """s+1 points per maximal, t+1 maximals per point; totals re-derived blind."""
    for p, k, d in DESK_CONFIGS:
        pr = _prep(p, k, d)
        qm = pr.qm
        q = p**k
        assert qm.maximal_points.shape == (qm.num_maximals, points_per_maximal(q, d))
        degrees = np.bincount(qm.maximal_points.ravel(), minlength=qm.num_points)
        assert (degrees == maximals_per_point(q, d)).all()
        n_points, n_maximals, keys = independent_quadric_census(pr.field, d)
        assert n_points == qm.num_points == point_count(q, d)
        assert n_maximals == qm.num_maximals == maximal_count(q, d)
        if (p, k, d) == (3, 1, 2):
            ours = {qm.maximal_bases[i].tobytes() for i in range(qm.num_maximals)}
            assert ours == keys


def test_09_verifier_rejects_orbit_perturbations(tmp_path):
    """20 seeded single-orbit edits of valid certificates at (3,2) all rejected."""
    pr = _prep(3, 1, 2)
    split = pr.report.split
    F = pr.field

    def member_line(i):
        return "maximal " + format_matrix(F, pr.qm.maximal_bases[int(i)])

    rng = np.random.default_rng(9)
    for trial in range(20):
        mask = int(rng.integers(0, 2**split.m))
        ids = assemble(split, mask)
        lines = certificate_text(pr, mask, ids).splitlines()
        j = int(rng.integers(0, split.m))
        low, high = split.pairs[j]
        chosen = high if (mask >> j) & 1 else low
        partner = low if (mask >> j) & 1 else high
        chosen_lines = {member_line(i) for i in split.partition.members[chosen]}
        kind = ("drop", "add", "replace")[int(rng.integers(0, 3))]
        if kind in ("drop", "replace"):
            lines = [ln for ln in lines if ln not in chosen_lines]
        if kind == "add":
            extra = [member_line(i) for i in split.partition.members[partner]]
        elif kind == "replace":
            other = int(rng.integers(0, split.m))
            while other == j:
                other = int(rng.integers(0, split.m))
            olow, ohigh = split.pairs[other]
            source = ohigh if (mask >> other) & 1 else olow
            extra = [member_line(i) for i in split.partition.members[source]]
        else:
            extra = []
        cut = next(i for i, ln in enumerate(lines) if ln.startswith("mask "))
        lines[cut:cut] = extra
        path = tmp_path / f"perturbed_{trial}.txt"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["verify", str(path)])
        assert rc == 1, f"trial {trial} ({kind} on pair {j}, mask {mask:x}) accepted"


def test_10_rank_four_smoke():
    """(3,4): 91840 maximals, orbit-split check, one construct+verify round trip."""
    start = time.perf_counter()
    pr = prepare(field_make(3, 1), 4)
    assert pr.qm.num_maximals == 91840
    assert pr.qm.num_points == 3280
    assert pr.report.ok, pr.report.witness
    assert pr.report.m == 4200
    ids = assemble(pr.report.split, 0)
    verdict = verify_hemisystem(pr.qm, ids)
    assert verdict.ok
    assert verdict.histogram == ((560, 3280),)
    assert ids.size == 45920

    text = certificate_text(pr, 0, ids)
    cert = parse_certificate(text)
    check_certificate_header(cert, pr.qm)
    back, reason = resolve_members(cert, pr.qm)
    assert reason is None
    assert np.array_equal(np.sort(back), ids)
    assert verify_hemisystem(pr.qm, back).ok
    elapsed = time.perf_counter() - start
    assert elapsed <= 900.0, f"rank-4 smoke took {elapsed:.0f}s"
