"""Shared, session-cached geometry builders, matrix-stack helpers, oracles, and the
earlier forms of the hot-path kernels as references, for the tests."""

import functools
import os
from pathlib import Path

import numpy as np

from hemisystems.gf import field_make
from hemisystems.hemi import MaskLength, OrbitSplit
from hemisystems.linform import StandardModel, mat_mul, rref, standard_model, vector_codes
from hemisystems.orbits import OrbitPartition, check_permutation
from hemisystems.quadric import QuadricModel, enumerate_points


SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict:
    """The environment with ``src`` first on PYTHONPATH, for subprocesses of the package."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), path] if path else [str(SRC)]))


@functools.lru_cache(maxsize=None)
def model(p: int, k: int, d: int) -> StandardModel:
    return standard_model(field_make(p, k), d)


@functools.lru_cache(maxsize=None)
def qmodel(p: int, k: int, d: int) -> QuadricModel:
    return QuadricModel(model(p, k, d))


def point_codes(qm: QuadricModel) -> np.ndarray:
    """The code of every point, which the model does not keep."""
    return vector_codes(qm.field.q, qm.points)


def basis_points(qm: QuadricModel) -> np.ndarray:
    """The (N, d) point ids of the basis rows, which the model does not
    keep, each row read by ``point_ids``."""
    return qm.point_ids(qm.maximal_bases.reshape(-1, qm.dim)).reshape(qm.num_maximals, qm.d)


def listed(part: OrbitPartition, members) -> OrbitPartition:
    """A reference partition with its own listing of the members in place of
    the one ``OrbitPartition.members`` lists on first read, so that
    ``same_partition`` compares two listings made apart."""
    vars(part)["members"] = tuple(members)
    return part


def element_orders(F, X):
    """Multiplicative order of every matrix of an invertible stack."""
    ident = np.eye(X.shape[-1], dtype=np.uint8)
    orders = np.zeros(X.shape[0], dtype=np.int64)
    acc, n = X, 1
    while not orders.all():
        orders[(orders == 0) & (acc == ident).all(axis=(1, 2))] = n
        acc, n = mat_mul(F, acc, X), n + 1
        if n > F.q ** X.shape[-1]:
            raise RuntimeError("element order runaway")
    return orders


def one_plus_trace(F, h):
    """1 + tr h for every matrix of a (..., 3, 3) stack."""
    diag = np.diagonal(h, axis1=-2, axis2=-1)
    return F.add_table[1, F.add_table[F.add_table[diag[..., 0], diag[..., 1]], diag[..., 2]]]


def normal_form_cases(qm: QuadricModel) -> np.ndarray:
    """Assert the normal form of every maximal's basis; return each one's case.

    Over (z, e0, f0) and U, an RREF basis b1, ..., bd of a maximal reads
    b1 = z + u1, b2 = e0 + u2, b3 = f0 + u3 (case 1);
    b1 = z + lam f0 + u1, b2 = e0 + mu f0 + u2 (case 2); or
    b1 = z + lam e0 + u1, b2 = f0 + u2 (case 3); the other rows lie in U.
    Each basis is checked to be totally singular and its own RREF, by the
    scalar ``rref``, so its pivot columns are zero in the other rows.
    """
    F, B = qm.field, qm.maximal_bases
    where = f"q={F.q}, d={qm.d}"
    assert not qm.model.space.restrict_gram(B).any(), f"{where}: not totally singular"
    for i in range(len(B)):
        assert np.array_equal(rref(F, B[i])[0], B[i]), f"{where}: maximal {i} is not RREF"
    # the z column is (1, 0, ..., 0)
    assert (B[:, 0, 0] == 1).all() and not B[:, 1:, 0].any(), where
    lead = np.argmax(B[:, 1:3] != 0, axis=2)
    assert np.isin(lead[:, 0], (1, 2)).all(), f"{where}: b2 leads outside e0, f0"
    # at d = 2 there is no b3 and lead has one column, so case 1 never holds
    case1 = (lead[:, 0] == 1) & (lead[:, -1] == 2)
    assert not B[case1, 3:, :3].any(), f"{where}: a row past b3 leaves U"
    assert not B[~case1, 2:, :3].any(), f"{where}: a row past b2 leaves U"
    return np.where(case1, 1, np.where(lead[:, 0] == 1, 2, 3))


def search_maximals(model: StandardModel, points: np.ndarray | None = None) -> np.ndarray:
    """Oracle for ``quadric.enumerate_maximals``: depth-first search over RREF prefixes.

    A totally singular S in RREF extends only by singular points whose
    leading coordinate lies beyond the last pivot of S, so every subspace is
    produced once, from its RREF-prefix parent; every candidate is tested
    against every partial basis.
    """
    F, n, d = model.field, model.dim, model.d
    J = model.space.gram
    pts = enumerate_points(model) if points is None else points
    piv = np.argmax(pts != 0, axis=1)
    cand, cand_piv, cand_bj = [], [], []
    for lead in range(n):
        sel = piv > lead
        cand.append(pts[sel])
        cand_piv.append(piv[sel])
        cand_bj.append(mat_mul(F, pts[sel], J) if sel.any() else np.zeros((0, n), np.uint8))
    bases = pts[:, None, :]
    last = piv
    for depth in range(1, d):
        chunks, chunk_piv = [], []
        for i in range(bases.shape[0]):
            lead = int(last[i])
            pool = cand[lead]
            if not pool.shape[0]:
                continue
            S = bases[i]
            # the child [S; v] must be the RREF of the subspace it spans, so v
            # is orthogonal to S and S is already zero in v's pivot column
            prods = mat_mul(F, cand_bj[lead], S.T)
            ok = ~(prods != 0).any(axis=1)
            ok &= ~(S[:, cand_piv[lead]] != 0).any(axis=0)
            if not ok.any():
                continue
            V = pool[ok]
            top = np.broadcast_to(S, (V.shape[0],) + S.shape)
            chunks.append(np.concatenate([top, V[:, None, :]], axis=1))
            chunk_piv.append(cand_piv[lead][ok])
        bases = np.concatenate(chunks, axis=0)
        last = np.concatenate(chunk_piv)
    flat = bases.reshape(bases.shape[0], -1)
    order = np.lexsort(flat.T[::-1])
    return np.ascontiguousarray(bases[order])


def rref_maximal_permutation(qm: QuadricModel, h: np.ndarray) -> np.ndarray:
    """Oracle for ``QuadricModel.maximal_permutation``: reduce every image basis.

    Embeds the 3x3 block h on W as h (+) I_U, multiplies all N bases by it
    and resolves each product by its RREF, without reading the incidence
    index.
    """
    g = np.eye(qm.dim, dtype=np.uint8)
    g[:3, :3] = h
    return qm.maximal_ids(mat_mul(qm.field, qm.maximal_bases, g))


def bfs_partition(n: int, perms) -> OrbitPartition:
    """Oracle for ``orbits.partition``: breadth-first search from each unseen id."""
    perms = [check_permutation(n, p) for p in perms]
    orbit_of = np.full(n, -1, dtype=np.int64)
    members = []
    for seed in range(n):
        if orbit_of[seed] >= 0:
            continue
        oid = len(members)
        orbit_of[seed] = oid
        frontier = np.array([seed], dtype=np.int64)
        acc = [frontier]
        while frontier.size:
            if perms:
                imgs = np.unique(np.concatenate([p[frontier] for p in perms]))
                frontier = imgs[orbit_of[imgs] < 0]
            else:
                frontier = np.empty(0, dtype=np.int64)
            orbit_of[frontier] = oid
            if frontier.size:
                acc.append(frontier)
        members.append(np.sort(np.concatenate(acc)))
    reps = np.array([m[0] for m in members], dtype=np.int64)
    sizes = np.array([m.size for m in members], dtype=np.int64)
    return listed(OrbitPartition(orbit_of, reps, sizes), members)


def orbit_image(part: OrbitPartition, perm: np.ndarray) -> np.ndarray:
    """Reference for tau's image of each orbit: read off its whole permutation.

    Entry o is the orbit holding the images of all of orbit o's members, or
    -1 when they land in more than one orbit.  When the permutation
    normalizes the acting group no entry is -1.
    """
    target = part.orbit_of[check_permutation(part.n, perm)]
    image = target[part.reps]
    split = np.zeros(part.n_orbits, dtype=bool)
    split[part.orbit_of[target != image[part.orbit_of]]] = True
    return np.where(split, -1, image)


# ---------------------------------------------------------------------------
# the earlier forms of the hot-path kernels, kept as references


def along_axis_rref_pivots(stack: np.ndarray) -> np.ndarray:
    """Reference for ``quadric._rref_pivots``: gather every row's entries at
    all r pivot columns by ``take_along_axis`` and compare them with I_r."""
    piv = np.argmax(stack != 0, axis=2)
    at_piv = np.take_along_axis(stack, piv[:, None, :], axis=2)
    if not ((np.diff(piv, axis=1) > 0).all() and (at_piv == np.eye(stack.shape[1])).all()):
        raise RuntimeError("an enumerated basis is not an RREF basis of full rank")
    return piv


def int64_labelled(labels: np.ndarray) -> OrbitPartition:
    """Reference for ``orbits.labelled``: one stable sort of the labels as
    int64, whatever their span."""
    order = np.argsort(np.asarray(labels, dtype=np.int64), kind="stable")
    ranked = np.asarray(labels)[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], len(order))
    by_least = np.argsort(order[starts])
    number = np.empty_like(by_least)
    number[by_least] = np.arange(by_least.size)
    orbit_of = np.empty_like(order)
    orbit_of[order] = number[np.cumsum(new) - 1]
    members = [order[starts[c]:ends[c]] for c in by_least.tolist()]
    return listed(OrbitPartition(orbit_of, order[starts[by_least]], (ends - starts)[by_least]), members)


def same_partition(a: OrbitPartition, b: OrbitPartition) -> bool:
    """Whether two partitions agree in every field, dtypes of the id arrays included."""
    arrays = ("orbit_of", "reps", "sizes")
    return (
        a.n == b.n
        and all(np.array_equal(getattr(a, f), getattr(b, f)) for f in arrays)
        and all(getattr(a, f).dtype == getattr(b, f).dtype for f in arrays)
        and len(a.members) == len(b.members)
        and all(np.array_equal(x, y) for x, y in zip(a.members, b.members))
    )


def bincount_degrees(index: np.ndarray, ids: np.ndarray, num_points: int) -> np.ndarray:
    """Reference for ``quadric._degrees``: one P-long ``bincount`` per
    1,024-member chunk of index rows, added up."""
    degrees = np.zeros(num_points, dtype=np.int64)
    for start in range(0, len(ids), 1024):
        rows = index[ids[start:start + 1024]]
        degrees += np.bincount(rows.ravel(), minlength=num_points)
    return degrees


def gram_scaled_beta(F, pairing, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Reference for ``quadric._beta``: every coordinate of U scaled by its
    Gram entry, times V at the partner coordinates, summed over the
    coordinates (the first axis)."""
    partner, g, _ = pairing
    terms = F.mul_arrays(F.mul_arrays(U, g.reshape((-1,) + (1,) * (U.ndim - 1))), V[partner])
    acc = terms[0]
    for c in range(1, len(terms)):
        acc = F.add_arrays(acc, terms[c])
    return acc


def loop_assemble(split: OrbitSplit, mask: int) -> np.ndarray:
    """Reference for ``hemi.assemble``: one Python step per orbit pair, bit
    i of the mask read by a shift."""
    if not 0 <= mask < (1 << split.m):
        raise MaskLength(f"mask needs {split.m} bits")
    chosen = np.zeros(split.partition.n_orbits, dtype=bool)
    for i, (low, high) in enumerate(split.pairs):
        chosen[high if (mask >> i) & 1 else low] = True
    return np.flatnonzero(np.take(chosen, split.partition.orbit_of))


def unique_histogram(degrees: np.ndarray) -> tuple:
    """Reference for ``VerificationReport.histogram``: ``np.unique`` of every
    point degree, whatever the verdict."""
    values, counts = np.unique(degrees, return_counts=True)
    return tuple(zip(values.tolist(), counts.tolist()))
