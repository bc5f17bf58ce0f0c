"""Points and maximal totally singular subspaces of the quadric kappa = 0.

Points are the projective singular points, each kept as its unit vector
(first nonzero coordinate scaled to 1) and ordered lexicographically, which
is the order of their point codes: the vector read as base-q digits
(``linform.vector_codes``), strictly increasing with the point id.
Maximals (totally singular d-subspaces) are kept as RREF bases and ordered
row-major lexicographically.  The rows of an RREF basis are unit vectors,
so that order is the order of the tuples of their point ids, read as
base-P digits for P points: the maximal codes, strictly increasing with
the maximal id.  A point is looked up by table: a vector is scaled to its
unit multiple, whose code c, with q^j <= c < q^(j + 1), gives its rank
c - q^j + (q^j - 1)/(q - 1) among the (q^n - 1)/(q - 1) unit vectors, and
``point_table`` maps that rank to the point id, or to -1 when the vector is
not singular; the zero vector ranks at a -1 after the last.  The
enumerated basis rows are unit vectors already, so they are looked up
unscaled, once each is checked to lead with 1.  A spanning set of a
maximal is reduced to its RREF basis, whose rows are looked up as points
and whose code is binary-searched among the maximal codes.  The codes fit
in int64: ``require_memory`` keeps the point count below 2^31, which for
q <= 255 leaves q^(2d + 1) < 2^47, and refuses ranks where P^d reaches
2^63.

Enumeration follows the rank recursion.  The standard space is the conic
<z, x, y> with the hyperbolic pairs (e0, f0), (e1, f1), ... added in order
(``StandardModel.conic`` and ``StandardModel.pairs``),
and the points and maximals of V + <e, f> are built in closed form from
those of V (``enumerate_points``, ``enumerate_maximals``), which gives the
counts (q^(2r) - 1)/(q - 1) and N(r) = (1 + q^r) N(r - 1) without search.
One RREF and one sort at the end put them in canonical order.

The incidence index between points and maximals, ``maximal_points``, is
built on its first read, from the s + 1 = (q^d - 1)/(q - 1) combinations of
each basis whose first nonzero coefficient is 1, and checked for
regularity: each point lies on t + 1 = prod_{i<d} (q^i + 1) maximals.  Only
the index recount of a hemisystem and the self-checks read it.  It is built
a fixed chunk of maximals at a time, each chunk's points by one
``lifted_product`` for every k, straight into an index of the narrowest
exact type: uint16 point ids when P <= 65,536 and int32 otherwise.  The
point ids of the basis rows are int32.

The groups act as h (+) I_U, with h a 3x3 block on W = <z, e0, f0>, and
the actions take h alone: a matrix of any other shape is refused.  On
points only the W columns change.  The first w = dim pi_W(M) rows of a
maximal's RREF basis have their pivots in W, where w is 2 or 3, and the
rest are zero there, so h leaves them fixed; the image of the top rows is
reduced in closed form, by h^-1 when w = 3 and by the inverse of a 2x2
block when w = 2, which gives the exact RREF of the image without a
general reduction.  Its rows are looked up as points.  An invertible h
maps the N maximals to N distinct subspaces, so the images are all
maximals exactly when their codes, sorted, are the maximal codes, and then
that one sort is the permutation.  Only otherwise are the image codes
searched, to raise ActionEscape at the first maximal whose image is not a
maximal of the quadric; a singular h escapes at once.  ``maximal_ids``,
which resolves the members of a certificate, searches the codes of every
matrix whose rows are its points' unit vectors, by code, and reduces only
the matrices that are not already a maximal's RREF basis.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from .gf import Field
from .linform import (
    StandardModel,
    all_vectors,
    lifted_product,
    mat_inv,
    mat_mul,
    rref_batch,
    search_keys,
    vector_codes,
)
from .orbits import ActionEscape

# maximals per step of the incidence index build, which bounds its transient
_INDEX_CHUNK = 256


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


def _kappa(F: Field, pairing, V: np.ndarray) -> np.ndarray:
    """kappa of every row of a (..., n) stack through ``StandardModel.pairing``,
    one table lookup per coordinate."""
    partner, g, _ = pairing
    ADD, MUL = F.add_table, F.mul_table
    terms = MUL[MUL[V, g], V[..., partner]]
    acc = terms[..., 0]
    for c in range(1, V.shape[-1]):
        acc = ADD[acc, terms[..., c]]
    return MUL[F.inv(F.add(1, 1)), acc]


def _dual(F: Field, pairing, Y: np.ndarray) -> np.ndarray:
    """The vectors w with beta(w, v) = y . v for each row y of a (..., n) stack."""
    partner, _, ginv = pairing
    return F.mul_table[Y[..., partner], ginv]


def _lex_sorted(stack: np.ndarray) -> np.ndarray:
    flat = stack.reshape(len(stack), -1)
    return np.ascontiguousarray(stack[np.lexsort(flat.T[::-1])])


def _conic_points(F: Field, pairing, cols: list[int], n: int) -> np.ndarray:
    """The q + 1 singular points (1, x, y) of the conic on the columns (z, x, y)."""
    pts = np.zeros((F.q * F.q, n), dtype=np.uint8)
    pts[:, cols[0]] = 1
    pts[:, cols[1:]] = all_vectors(F.q, 2)
    return pts[_kappa(F, pairing, pts) == 0]


def enumerate_points(model: StandardModel) -> np.ndarray:
    """All singular projective points as unit vectors, in canonical order.

    The conic <z, x, y> has the q + 1 points (1, x, y) with kappa = 0.  A
    point of V + <e, f> is f + x - kappa(x) e for any x in V, x + b e for a
    point x of V and any b, or e itself.
    """
    F, n, pairing = model.field, model.dim, model.pairing
    q = F.q
    cols = list(model.conic)
    pts = _conic_points(F, pairing, cols, n)
    for e, f in model.pairs:
        tops = np.zeros((q ** len(cols), n), dtype=np.uint8)
        tops[:, cols] = all_vectors(q, len(cols))
        tops[:, f] = 1
        tops[:, e] = F.neg_table[_kappa(F, pairing, tops)]
        lifts = np.repeat(pts, q, axis=0)
        lifts[:, e] = np.tile(np.arange(q, dtype=np.uint8), len(pts))
        pts = np.concatenate([tops, lifts, np.eye(1, n, e, dtype=np.uint8)])
        cols += [e, f]
    return _lex_sorted(_units(F, pts))


def enumerate_maximals(model: StandardModel) -> np.ndarray:
    """All totally singular d-subspaces as an (N, d, n) stack of RREF bases.

    The maximals of rank 1 are the points of the conic <z, x, y>.  A
    maximal of V + <e, f> is either <e> + K for a maximal K of V, or
    {k + lam(k) e : k in K} + <f + w - kappa(w) e> for a maximal K of V, a
    functional lam on K and w in V with beta(w, k) = -lam(k) on K; w is
    fixed modulo K up to t u, where u is any vector of K-perp outside K.
    That is N(r) = (1 + q^r) N(r - 1) maximals at rank r.  Every basis
    carries columns where its rows are the identity, from which the duals
    of K and u follow in closed form; one RREF and one sort at the end give
    the canonical order.
    """
    F, n, d, pairing = model.field, model.dim, model.d, model.pairing
    q = F.q
    ADD, NEG = F.add_table, F.neg_table
    cols = list(model.conic)
    bases = _conic_points(F, pairing, cols, n)[:, None, :]
    piv = np.full((len(bases), 1), cols[0])
    for e, f in model.pairs:
        N, r, L = bases.shape[0], bases.shape[1] + 1, len(cols)
        parent = np.arange(N)[:, None]
        # K is the identity on its pivot columns p_i, so dual(unit(p_i)) is
        # dual to K, and y_j = unit(j) - sum_i K[i, j] unit(p_i) over the
        # columns j of V are orthogonal to K: their duals span K-perp in V
        W = np.zeros((N, r - 1, n), dtype=np.uint8)
        W[parent, np.arange(r - 1), piv] = 1
        Y = np.zeros((N, L, n), dtype=np.uint8)
        Y[parent[:, :, None], np.arange(L)[:, None], piv[:, None, :]] = NEG[
            bases[:, :, cols].transpose(0, 2, 1)
        ]
        Y[:, np.arange(L), cols] = ADD[Y[:, np.arange(L), cols], 1]
        perp = _dual(F, pairing, Y)
        outside = _kappa(F, pairing, perp) != 0
        if not outside.any(axis=1).all():
            raise RuntimeError("a maximal has no anisotropic vector in its perp")
        u = perp[np.arange(N), np.argmax(outside, axis=1)]
        D = np.concatenate([_dual(F, pairing, W), u[:, None]], axis=1)
        # reduce modulo K, so that every child has the identity on K's pivots
        at_piv = np.take_along_axis(D, piv[:, None, :], axis=2)
        D = ADD[D, mat_mul(F, NEG[at_piv], bases)]
        # child (lam, t): rows k_i + lam_i e and f + w - kappa(w) e,
        # where w = -sum_i lam_i w_i + t u
        coef = all_vectors(q, r)
        lam = coef[:, :-1]
        w = mat_mul(F, np.concatenate([NEG[lam], coef[:, -1:]], axis=1), D)
        w[..., e] = NEG[_kappa(F, pairing, w)]
        w[..., f] = 1
        top = np.repeat(bases[:, None], len(coef), axis=1)
        top[..., e] = lam
        lifted = np.concatenate([top, w[:, :, None]], axis=2).reshape(-1, r, n)
        e_row = np.broadcast_to(np.eye(1, n, e, dtype=np.uint8), (N, 1, n))
        bases = np.concatenate([np.concatenate([bases, e_row], axis=1), lifted])
        piv = np.concatenate([
            np.concatenate([piv, np.full((N, 1), e)], axis=1),
            np.repeat(np.concatenate([piv, np.full((N, 1), f)], axis=1), len(coef), axis=0),
        ])
        cols += [e, f]
    red, ranks = rref_batch(F, bases)
    if (ranks != d).any():
        raise RuntimeError("an enumerated maximal does not have rank d")
    return _lex_sorted(red)


def _units(F: Field, vecs: np.ndarray) -> np.ndarray:
    """Each row scaled so that its first nonzero entry is 1; zero rows stay zero."""
    lead = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    return F.mul_table[F.inv_table[lead][:, None], vecs]


def _top_rows_rref(F: Field, T: np.ndarray) -> np.ndarray:
    """The RREF of N pairs of rows of rank 2 with a pivot in column 0, held as
    a (2, n, N) array, so that every operation runs along the N pairs.

    Each pair is multiplied by the inverse E of its 2x2 block on the columns
    (0, 1), or on (0, 2) where that block is singular.  Where both are
    singular, E is zero and so are the rows.
    """
    NEG, plus, times = F.neg_table, F.add_arrays, F.mul_arrays
    a, c = T[0, 0], T[1, 0]
    det1, det2 = (plus(times(a, T[1, j]), NEG[times(T[0, j], c)]) for j in (1, 2))
    first = det1 != 0
    b = np.where(first, T[0, 1], T[0, 2])
    e = np.where(first, T[1, 1], T[1, 2])
    inv = F.inv_table[np.where(first, det1, det2)]
    E = [[times(inv, e), times(inv, NEG[b])], [times(inv, NEG[c]), times(inv, a)]]
    return np.stack([plus(times(r0, T[0]), times(r1, T[1])) for r0, r1 in E])


def _w_block(h) -> np.ndarray:
    """h as a uint8 3x3 block on W; raises ValueError for any other shape."""
    h = np.asarray(h, dtype=np.uint8)
    if h.shape != (3, 3):
        raise ValueError(f"an isometry acts as a 3x3 block on W, not shape {h.shape}")
    return h


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def require_memory(q: int, d: int) -> None:
    """Raise ValueError when the ids or codes overflow or the geometry cannot fit in memory.

    Point ids are int32 and maximal codes, d point ids read as base-P
    digits, int64.  The bases take N·d·n bytes, and the incidence index and
    the point ids of the basis rows 4 bytes per id.  The index holds uint16
    ids while P <= 65,536, but at 2 bytes (3,5) would count 7.10 GB and be
    admitted on a machine of 8.41 GB, where its enumeration alone was killed
    at 8 GB; the 4 bytes stand in for the transients this count leaves out.
    The point table takes 4 bytes for each of the (q^n - 1)/(q - 1) unit
    vectors of length n = 2d + 1 and one more for its -1 sentinel: 1.6 MB
    at q = 25, 23.5 MB at q = 49, 174 MB at q = 81 and about 1 GB at
    q = 125.  Closed forms only, so
    ``hemi.prepare`` and the ``verify`` command run it before they build the
    standard model, and QuadricModel before it enumerates anything.
    """
    # q >= 3 puts point_count(q, 11) above 2^31, so capping d at 11 refuses
    # every larger rank without forming q^(2d)
    P = point_count(q, min(d, 11))
    if P >= 2**31:
        raise ValueError(f"q = {q}, d = {d} has 2^31 or more points; their ids overflow int32")
    N = maximal_count(q, d)
    need = N * d * (2 * d + 1) + 4 * N * (points_per_maximal(q, d) + d)
    table = 4 * ((q ** (2 * d + 1) - 1) // (q - 1) + 1)
    have = _physical_memory()
    if have is not None and need + table > have:
        raise ValueError(
            f"q = {q}, d = {d} has {N} maximals; their bases and incidence index "
            f"need {need} bytes and the point table {table}, {need + table} in all, "
            f"more than the {have} bytes of physical memory"
        )
    if P**d >= 2**63:
        raise ValueError(
            f"q = {q}, d = {d} has {P} points; the maximal codes, {d} point ids "
            f"read as base-{P} digits, overflow int64"
        )


class QuadricModel:
    """The full point-maximal geometry of a standard model, with incidence."""

    def __init__(self, model: StandardModel):
        self.model = model
        F = model.field
        self.field = F
        self.d = model.d
        self.dim = model.dim
        q = F.q
        require_memory(q, model.d)
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
        self.point_codes = vector_codes(q, self.points)
        if not (np.diff(self.point_codes) > 0).all():
            raise RuntimeError("enumerated points are not strictly sorted")
        # the unit vectors with leading coordinate n - 1 - j have the codes
        # q^j .. 2 q^j - 1 and rank after the (q^j - 1)/(q - 1) with later
        # leading coordinates; the zero code ranks at a -1 after the last
        powers = self._rank_bounds = q ** np.arange(self.dim, dtype=np.int64)
        units = (q**self.dim - 1) // (q - 1)
        self._rank_offsets = np.concatenate([[units], (powers - 1) // (q - 1) - powers])
        self.point_table = np.full(units + 1, -1, dtype=np.int32)
        self.point_table[self._unit_ranks(self.point_codes)] = np.arange(
            self.num_points, dtype=np.int32
        )

        self.maximal_bases = enumerate_maximals(model)
        self.num_maximals = self.maximal_bases.shape[0]
        if self.num_maximals != maximal_count(q, model.d):
            raise RuntimeError(
                f"enumerated {self.num_maximals} maximals, expected {maximal_count(q, model.d)}"
            )
        # the restricted Gram matrix B J B^T must vanish, chunked to bound memory
        for start in range(0, self.num_maximals, 8192):
            if model.space.restrict_gram(self.maximal_bases[start:start + 8192]).any():
                raise RuntimeError("an enumerated maximal is not totally singular")
        rows = self.maximal_bases.reshape(-1, self.dim)
        if (rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)] != 1).any():
            raise RuntimeError("an enumerated basis row does not lead with 1")
        self.basis_points = self._lookup_units(rows).reshape(self.num_maximals, self.d)
        if (self.basis_points < 0).any():
            raise RuntimeError("an enumerated basis row is not a singular point")
        self.maximal_codes = vector_codes(self.num_points, self.basis_points)
        if not (np.diff(self.maximal_codes) > 0).all():
            raise RuntimeError("enumerated maximals are not strictly sorted")

    @functools.cached_property
    def maximal_points(self) -> np.ndarray:
        """The incidence index: the sorted point ids of the s + 1 points of
        every maximal, built on first read ``_INDEX_CHUNK`` maximals at a time.

        The ids are uint16 when P <= 65,536 and int32 otherwise, decided once
        from P; each chunk's ids are written straight into the index.
        """
        # the combinations whose first nonzero coefficient is 1 span each
        # point of a maximal once, and on an RREF basis they are already
        # unit vectors: the first nonzero entry sits in a pivot column
        F, d = self.field, self.d
        combos = all_vectors(F.q, d)[1:]
        combos = combos[(_units(F, combos) == combos).all(axis=1)]
        dtype = np.uint16 if self.num_points <= 2**16 else np.int32
        out = np.empty((self.num_maximals, self.s1), dtype=dtype)
        degrees = np.zeros(self.num_points, dtype=np.int64)
        for start in range(0, self.num_maximals, _INDEX_CHUNK):
            chunk = self.maximal_bases[start:start + _INDEX_CHUNK]
            pids = self._lookup_units(lifted_product(F, combos, chunk))
            if (pids < 0).any():
                raise RuntimeError("maximal contains a vector outside the point set")
            rows = out[start:start + _INDEX_CHUNK]
            rows[...] = pids
            rows.sort(axis=1)
            degrees += np.bincount(rows.ravel(), minlength=self.num_points)
        # regularity also follows from what the build checks: N(q, d)
        # distinct, totally singular d-spaces are all the maximals
        if (degrees != self.t1).any():
            raise RuntimeError(f"some point does not lie on t + 1 = {self.t1} maximals")
        return out

    # -- lookups

    def _unit_ranks(self, codes: np.ndarray) -> np.ndarray:
        """The rank of each unit-vector code in ``point_table``; the zero code
        ranks at the table's last entry, -1."""
        # j + 1 for q^j <= code < q^(j + 1), and 0 for the zero code
        band = np.searchsorted(self._rank_bounds, codes, side="right")
        return codes + np.take(self._rank_offsets, band)

    def _code_ids(self, codes: np.ndarray) -> np.ndarray:
        """Int32 point id of each unit-vector code, or -1 where the vector is
        zero or not singular.

        The code of any other vector reads some entry of the table, or,
        ranked past its end and clipped, the closing -1.
        """
        return np.take(self.point_table, self._unit_ranks(codes), mode="clip")

    def _lookup_units(self, units: np.ndarray) -> np.ndarray:
        """``_code_ids`` of the rows of a (..., n) stack."""
        return self._code_ids(vector_codes(self.field.q, units))

    def point_ids(self, vecs: np.ndarray) -> np.ndarray:
        """Int32 ids of the points spanned by the rows of an (N, n) stack.

        Raises ActionEscape when a row is zero or not singular.
        """
        pids = self._lookup_units(_units(self.field, np.asarray(vecs, dtype=np.uint8)))
        if (pids < 0).any():
            raise ActionEscape("vector is not a singular point of the quadric")
        return pids

    def _search_bases(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the maximals whose RREF bases are the matrices of an
        (N, d, n) stack, and whether each matrix is that basis.

        Codes are injective on vectors, so a row is its point's unit vector
        exactly when it has that point's code; a -1 reads the last point's
        code, which only that point's own vector has.  So a matrix is a
        maximal's RREF basis exactly when every row passes and the points'
        maximal code is found.
        """
        # (d, N), so that the checks run along the matrices
        codes = vector_codes(self.field.q, rows.transpose(1, 0, 2))
        pids = self._code_ids(codes)
        ids, found = search_keys(self.maximal_codes, vector_codes(self.num_points, pids.T))
        return ids, found & (np.take(self.point_codes, pids) == codes).all(axis=0)

    def maximal_ids(self, stack: np.ndarray) -> np.ndarray:
        """Ids of the maximals spanned by the matrices of an (N, r, n) stack.

        Any spanning set of a maximal resolves, whatever its row order or
        scaling.  A matrix that is already a maximal's RREF basis, in that
        its rows are its points' unit vectors, by code, and those points
        spell a maximal code, is resolved by that lookup alone; only the
        rest are reduced.  Raises ActionEscape, with ``index`` the first
        offending matrix, when a matrix does not span a maximal of the
        quadric.
        """
        d = self.d
        stack = np.asarray(stack, dtype=np.uint8)
        if stack.shape[1] < d:
            raise ActionEscape(f"matrix 0 has fewer than {d} rows", index=0)
        ids = np.zeros(len(stack), dtype=np.int64)
        canonical = np.zeros(len(stack), dtype=bool)
        if stack.shape[1] == d:
            ids, canonical = self._search_bases(stack)
        rest = np.flatnonzero(~canonical)
        if rest.size:
            red, ranks = rref_batch(self.field, stack[rest])
            # the leading d RREF rows are unit vectors, or zero when the rank is short
            ids[rest], found = self._search_bases(red[:, :d])
            bad = (ranks != d) | ~found
            if bad.any():
                j = int(np.argmax(bad))
                i = int(rest[j])
                raise ActionEscape(
                    f"matrix {i} (rank {ranks[j]}) does not span a maximal of the quadric",
                    index=i,
                )
        return ids

    # -- permutations induced by isometries

    def point_permutation(self, h: np.ndarray) -> np.ndarray:
        """Ids of the images of every point under h (+) I_U, for a 3x3 block h
        on W; only the W columns of the points change.

        Raises ValueError when h is not 3x3, and ActionEscape when an image
        is not a point of the quadric.
        """
        h = _w_block(h)
        images = self.points.copy()
        images[:, :3] = mat_mul(self.field, self.points[:, :3], h)
        return self.point_ids(images)

    @functools.cached_property
    def _w_split(self) -> tuple[np.ndarray, int]:
        """The maximal ids ordered by w = dim pi_W(M), as int32, and the
        number with w = 2.

        The first w rows of an RREF basis have their pivots in W and the
        rest are zero there.  M meets U in a totally singular space, of
        dimension at most d - 2, so w is 2 or 3; at d = 2 it is always 2.
        """
        w = (self.maximal_bases[:, :, :3] != 0).any(axis=2).sum(axis=1)
        if not np.isin(w, (2, 3)).all():
            raise RuntimeError("a maximal does not project onto a 2- or 3-space of W")
        return np.argsort(w, kind="stable").astype(np.int32), int((w == 2).sum())

    def maximal_permutation(self, h: np.ndarray) -> np.ndarray:
        """Ids of the images of every maximal under h (+) I_U, for a 3x3
        block h on W.

        The image of each RREF basis is written in closed form, which is its
        exact RREF: the rows that are zero on W are fixed, and only the top
        w rows change.

        - w = 3: the top rows [I_3 | U_M] go to [h | U_M], whose RREF is
          [I_3 | h^-1 U_M].
        - w = 2: the top rows [R_W | R_U] go to [Y | R_U] with Y = R_W h,
          and E [Y | R_U] is their RREF, where E inverts the 2x2 block of Y
          on its pivot columns, (0, 1) or else (0, 2).  With no pivot in
          column 0 the image is no maximal: z-perp is elliptic, so every
          maximal has a vector outside it and a pivot there.

        E mixes only the top rows, which are zero on the pivot columns of
        the rows below.  The ids are read off one argsort of the image
        codes, checked against the maximal codes.  Raises ValueError when h
        is not 3x3, and ActionEscape when h is singular or, with ``index``
        the first offending maximal, when an image is not a maximal of the
        quadric.
        """
        F = self.field
        h = _w_block(h)
        try:
            hinv = mat_inv(F, h)
        except ValueError:
            raise ActionEscape("the block on W is singular") from None
        # the bases in w order as a (d, n, N) array, so that the arithmetic
        # below runs along the maximals
        order, n2 = self._w_split
        red = np.ascontiguousarray(np.take(self.maximal_bases, order, axis=0).transpose(1, 2, 0))
        U = red[:3, 3:, n2:]
        U[...] = mat_mul(F, hinv, U.reshape(3, -1)).reshape(U.shape)
        # the rows of each top pair are the columns of Y^T = h^T R_W^T
        top = red[:2, :, :n2]
        top[:, :3] = mat_mul(F, h.T, top[:, :3])
        top[...] = _top_rows_rref(F, top)
        # h is invertible, so the images are distinct, and they are all
        # maximals exactly when their sorted codes are the maximal codes
        pids = self._lookup_units(red.transpose(0, 2, 1)).T
        codes = vector_codes(self.num_points, pids)
        by_code = np.argsort(codes)
        if not ((pids >= 0).all() and np.array_equal(codes[by_code], self.maximal_codes)):
            _, found = search_keys(self.maximal_codes, codes)
            bad = np.zeros(self.num_maximals, dtype=bool)
            bad[order] = ~found | (pids < 0).any(axis=1)
            i = int(np.argmax(bad))
            raise ActionEscape(f"the image of maximal {i} is not a maximal of the quadric", index=i)
        out = np.empty(self.num_maximals, dtype=np.intp)
        out[order[by_code]] = np.arange(self.num_maximals)
        return out
