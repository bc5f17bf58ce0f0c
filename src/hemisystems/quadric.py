"""Points and maximal totally singular subspaces of the quadric kappa = 0.

Points are the projective singular points, each kept as its unit vector
(first nonzero coordinate scaled to 1) and ordered lexicographically, which
is the order of the vector read as base-q digits.  Maximals (totally
singular d-subspaces) are kept as RREF bases and ordered row-major
lexicographically.  Both orders are the order of the byte keys of the
rows (``linform.byte_keys``), so every lookup is one binary search: a vector
is scaled to its unit multiple and searched among the points, and a
spanning set of a maximal is reduced to its RREF basis and searched among
the maximals.

Enumeration is depth-first extension with the reduced basis as the
deduplicator: a totally singular S in RREF extends only by singular points
whose leading coordinate lies beyond the last pivot of S.  Every extension
then stacks into an RREF matrix whose leading rows are exactly S, so each
subspace is produced exactly once, from its unique RREF-prefix parent.

The incidence index between points and maximals is built eagerly, from the
s + 1 = (q^d - 1)/(q - 1) combinations of each basis whose first nonzero
coefficient is 1, and checked for regularity: each point lies on
t + 1 = prod_{i<d} (q^i + 1) maximals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import Field
from .linform import (
    StandardModel,
    Subspace,
    all_vectors,
    byte_keys,
    mat_mul,
    mat_mul_stack,
    reduce_vector,
    rref_batch,
    search_keys,
)
from .orbits import ActionEscape


class NotMaximal(ValueError):
    """The subspace is not a totally singular d-subspace."""


def point_count(q: int, d: int) -> int:
    return (q ** (2 * d) - 1) // (q - 1)


def maximal_count(q: int, d: int) -> int:
    out = 1
    for i in range(1, d + 1):
        out *= q**i + 1
    return out


def points_per_maximal(q: int, d: int) -> int:
    return (q**d - 1) // (q - 1)


def maximals_per_point(q: int, d: int) -> int:
    out = 1
    for i in range(1, d):
        out *= q**i + 1
    return out


def enumerate_points(model: StandardModel) -> np.ndarray:
    """All singular projective points as unit vectors, in canonical order."""
    F, n = model.field, model.dim
    q = F.q
    blocks = []
    for j in range(n - 1, -1, -1):
        tails = all_vectors(q, n - 1 - j)
        vecs = np.zeros((tails.shape[0], n), dtype=np.uint8)
        vecs[:, j] = 1
        vecs[:, j + 1:] = tails
        keep = model.space.kappa_batch(vecs) == 0
        blocks.append(vecs[keep])
    return np.concatenate(blocks, axis=0)


def enumerate_maximals(model: StandardModel, points: np.ndarray | None = None) -> np.ndarray:
    """All totally singular d-subspaces as an (N, d, n) stack of RREF bases."""
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


def _units(F: Field, vecs: np.ndarray) -> np.ndarray:
    """Each row scaled so that its first nonzero entry is 1; zero rows stay zero."""
    lead = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    return F.mul_table[F.inv_table[lead][:, None], vecs]


def _strictly_sorted(keys: np.ndarray) -> bool:
    return np.array_equal(np.unique(keys), keys)


class QuadricModel:
    """The full point-maximal geometry of a standard model, with incidence."""

    def __init__(self, model: StandardModel):
        self.model = model
        F = model.field
        self.field = F
        self.d = model.d
        self.dim = model.dim
        q = F.q
        self.s1 = points_per_maximal(q, model.d)
        self.t1 = maximals_per_point(q, model.d)
        if self.t1 % 2:
            raise RuntimeError(f"t + 1 = {self.t1} is odd")
        self.target_degree = self.t1 // 2

        self.points = enumerate_points(model)
        self.num_points = self.points.shape[0]
        if self.num_points != point_count(q, model.d):
            raise RuntimeError(
                f"enumerated {self.num_points} points, expected {point_count(q, model.d)}"
            )
        if not _strictly_sorted(byte_keys(self.points)):
            raise RuntimeError("enumerated points are not strictly sorted")

        self.maximal_bases = enumerate_maximals(model, self.points)
        self.num_maximals = self.maximal_bases.shape[0]
        if self.num_maximals != maximal_count(q, model.d):
            raise RuntimeError(
                f"enumerated {self.num_maximals} maximals, expected {maximal_count(q, model.d)}"
            )
        self._check_totally_singular()
        if not _strictly_sorted(byte_keys(self.maximal_bases)):
            raise RuntimeError("enumerated maximals are not strictly sorted")

        self.maximal_points = self._build_incidence()
        degrees = np.bincount(self.maximal_points.ravel(), minlength=self.num_points)
        if (degrees != self.t1).any():
            raise RuntimeError(f"some point does not lie on t + 1 = {self.t1} maximals")
        order = np.argsort(self.maximal_points.ravel(), kind="stable")
        self.point_maximals = np.repeat(
            np.arange(self.num_maximals, dtype=np.int64), self.s1
        )[order].reshape(self.num_points, self.t1)

    def _check_totally_singular(self):
        # restricted Gram (basis J basis^T) must vanish entrywise, chunked
        F, B = self.field, self.maximal_bases
        for start in range(0, self.num_maximals, 8192):
            chunk = B[start:start + 8192]
            g = mat_mul_stack(F, chunk, self.model.space.gram)
            if F.k == 1:
                pr = (g.astype(np.int64) @ chunk.astype(np.int64).transpose(0, 2, 1)) % F.p
            else:
                MUL, ADD = F.mul_table, F.add_table
                pr = MUL[g[:, :, 0][:, :, None], chunk[:, :, 0][:, None, :]]
                for t in range(1, self.dim):
                    pr = ADD[pr, MUL[g[:, :, t][:, :, None], chunk[:, :, t][:, None, :]]]
            if pr.any():
                raise RuntimeError("an enumerated maximal is not totally singular")

    def _build_incidence(self) -> np.ndarray:
        # the combinations whose first nonzero coefficient is 1 span each
        # point of a maximal once, and on an RREF basis they are already
        # unit vectors: the first nonzero entry sits in a pivot column
        F, d, n = self.field, self.d, self.dim
        combos = all_vectors(F.q, d)[1:]
        combos = combos[(_units(F, combos) == combos).all(axis=1)]
        keys = byte_keys(self.points)
        out = np.empty((self.num_maximals, self.s1), dtype=np.int64)
        for start in range(0, self.num_maximals, 4096):
            chunk = self.maximal_bases[start:start + 4096]
            rows = chunk.transpose(1, 0, 2).reshape(d, -1)
            span = mat_mul(F, combos, rows).reshape(self.s1, len(chunk), n).transpose(1, 0, 2)
            pids, found = search_keys(keys, byte_keys(span.reshape(-1, n)))
            if not found.all():
                raise RuntimeError("maximal contains a vector outside the point set")
            pids = pids.reshape(len(chunk), self.s1)
            pids.sort(axis=1)
            out[start:start + 4096] = pids
        return out

    # -- lookups

    def point_vector(self, i: int) -> np.ndarray:
        return self.points[i]

    def point_ids(self, vecs: np.ndarray) -> np.ndarray:
        """Ids of the points spanned by the rows of an (N, n) stack.

        Raises ActionEscape when a row is zero or not singular.
        """
        units = _units(self.field, np.asarray(vecs, dtype=np.uint8))
        pids, found = search_keys(byte_keys(self.points), byte_keys(units))
        if not found.all():
            raise ActionEscape("vector is not a singular point of the quadric")
        return pids

    def point_id(self, v) -> int:
        return int(self.point_ids(np.asarray(v, dtype=np.uint8).reshape(1, -1))[0])

    def maximal_subspace(self, i: int) -> Subspace:
        return Subspace(self.field, self.maximal_bases[i], reduced=True)

    def maximal_id(self, S: Subspace) -> int:
        return int(self.maximal_ids(S.basis[None])[0])

    def maximal_ids(self, stack: np.ndarray) -> np.ndarray:
        """Ids of the maximals spanned by the matrices of an (N, r, n) stack.

        Any spanning set of a maximal resolves, whatever its row order or
        scaling.  Raises ActionEscape, with ``index`` the first offending
        matrix, when a matrix does not span a maximal of the quadric.
        """
        d = self.d
        red, ranks = rref_batch(self.field, stack)
        if red.shape[1] < d:
            raise ActionEscape(f"matrix 0 has fewer than {d} rows", index=0)
        ids, found = search_keys(byte_keys(self.maximal_bases), byte_keys(red[:, :d]))
        bad = (ranks != d) | ~found
        if bad.any():
            i = int(np.argmax(bad))
            raise ActionEscape(
                f"matrix {i} (rank {ranks[i]}) does not span a maximal of the quadric",
                index=i,
            )
        return ids

    # -- permutations induced by isometries

    def point_permutation(self, mat: np.ndarray) -> np.ndarray:
        return self.point_ids(mat_mul(self.field, self.points, mat))

    def maximal_permutation(self, mat: np.ndarray) -> np.ndarray:
        return self.maximal_ids(mat_mul_stack(self.field, self.maximal_bases, mat))


def incidence(F: Field, point_vec, basis) -> bool:
    """Whether the point lies in the row space of the RREF basis."""
    return not reduce_vector(F, np.asarray(basis, dtype=np.uint8), np.asarray(point_vec, dtype=np.uint8)).any()


def z_projection_nontrivial(M: Subspace | np.ndarray) -> bool:
    """Whether some vector of the subspace has a nonzero z coordinate."""
    basis = M.basis if isinstance(M, Subspace) else np.asarray(M)
    return bool((basis[:, 0] != 0).any())


@dataclass(frozen=True)
class MaximalBasisForm:
    """Normal form of a maximal basis relative to (z, e0, f0) and U.

    case 1: b1 = z + u1, b2 = e0 + u2, b3 = f0 + u3, rest pure U
    case 2: b1 = z + lam f0 + u1, b2 = e0 + mu f0 + u2, rest pure U
    case 3: b1 = z + lam e0 + u1, b2 = f0 + u2, rest pure U
    """

    case: int
    lam: int | None
    mu: int | None
    u_parts: tuple

    def reassemble(self, model: StandardModel) -> Subspace:
        F, n = model.field, model.dim
        z, e0, f0 = (model.basis_vector(i) for i in range(3))
        u = [np.asarray(x, dtype=np.uint8) for x in self.u_parts]
        ADD, MUL = F.add_table, F.mul_table
        if self.case == 1:
            lead = [ADD[z, u[0]], ADD[e0, u[1]], ADD[f0, u[2]]]
            rest = u[3:]
        elif self.case == 2:
            b1 = ADD[ADD[z, MUL[self.lam, f0]], u[0]]
            b2 = ADD[ADD[e0, MUL[self.mu, f0]], u[1]]
            lead, rest = [b1, b2], u[2:]
        else:
            b1 = ADD[ADD[z, MUL[self.lam, e0]], u[0]]
            b2 = ADD[f0, u[1]]
            lead, rest = [b1, b2], u[2:]
        return Subspace(F, np.stack(lead + list(rest)))


def basis_normal_form(model: StandardModel, M: Subspace) -> MaximalBasisForm:
    """Case analysis of a maximal's basis over the (z, e0, f0) coordinates."""
    F = model.field
    d = model.d
    if M.dim != d or not model.space.totally_singular(M.basis):
        raise NotMaximal("expected a totally singular subspace of dimension d")
    rows = M.basis.copy()
    if rows[0, 0] != 1 or rows[1:, 0].any():
        raise RuntimeError("maximal must project onto z")
    ADD, MUL, NEG, INV = F.add_table, F.mul_table, F.neg_table, F.inv_table
    b1 = rows[0].copy()
    res = rows[1:].copy()
    r = 0
    for col in (1, 2):
        hits = np.nonzero(res[r:, col])[0]
        if hits.size == 0:
            continue
        lead = r + int(hits[0])
        if lead != r:
            res[[r, lead]] = res[[lead, r]]
        res[r] = MUL[INV[res[r, col]], res[r]]
        others = np.nonzero(res[:, col])[0]
        others = others[others != r]
        if others.size:
            res[others] = ADD[res[others], MUL[NEG[res[others, col]][:, None], res[r][None, :]]]
        r += 1
    rank = r
    if rank < 1:
        raise RuntimeError("residual rows must project onto <e0, f0>")

    def strip(v, cols):
        out = v.copy()
        out[list(cols)] = 0
        return out

    if rank == 2:
        b2, b3 = res[0], res[1]
        rest = res[2:]
        b1 = ADD[b1, MUL[NEG[b1[1]], b2]]
        b1 = ADD[b1, MUL[NEG[b1[2]], b3]]
        if rest[:, :3].any():
            raise RuntimeError("rows beyond the third must lie in U")
        u_parts = (strip(b1, (0,)), strip(b2, (1,)), strip(b3, (2,)), *rest)
        return MaximalBasisForm(1, None, None, u_parts)
    b2 = res[0]
    rest = res[1:]
    if rest[:, :3].any():
        raise RuntimeError("rows beyond the second must lie in U")
    if b2[1] != 0:
        mu = int(b2[2])
        b1 = ADD[b1, MUL[NEG[b1[1]], b2]]
        lam = int(b1[2])
        u_parts = (strip(b1, (0, 2)), strip(b2, (1, 2)), *rest)
        return MaximalBasisForm(2, lam, mu, u_parts)
    b1 = ADD[b1, MUL[NEG[b1[2]], b2]]
    lam = int(b1[1])
    u_parts = (strip(b1, (0, 1)), strip(b2, (2,)), *rest)
    return MaximalBasisForm(3, lam, None, u_parts)
