"""Points and maximal totally singular subspaces of the quadric kappa = 0.

Points are the projective singular points, each kept as its unit vector
(first nonzero coordinate scaled to 1) and ordered lexicographically, which
is the order of their point codes: the vector read as base-q digits
(``linform.vector_codes``), strictly increasing with the point id.
Maximals (totally singular d-subspaces) are kept as RREF bases and ordered
row-major lexicographically.  The rows of an RREF basis are unit vectors,
so that order is the order of the tuples of their point ids, read as
base-P digits for P points: the maximal codes, strictly increasing with
the maximal id.  A point is looked up by table, by an exact key: the code
c of a unit vector, with q^j <= c < 2 q^j, gives its rank c - q^j +
(q^j - 1)/(q - 1) among the (q^n - 1)/(q - 1) unit vectors, and
``point_table`` maps that rank to the point id, or to -1 when the vector
is not singular; any other code reads the table's closing -1, so a row
reads an id exactly when it is that point's unit vector, and ``point_ids``
scales each vector to one first.  A spanning set of a maximal is reduced
to its RREF basis, whose rows are looked up as points and whose code is
binary-searched among the maximal codes.  The codes fit in int64:
``require_memory`` keeps the point count below 2^31, which for q <= 255
leaves q^(2d + 1) < 2^47, and refuses ranks where P^d reaches 2^63.

Enumeration follows the rank recursion.  The standard space is the conic
<z, x, y> with the hyperbolic pairs (e0, f0), (e1, f1), ... added in order
(``StandardModel.conic`` and ``StandardModel.pairs``),
and the points and maximals of V + <e, f> are built in closed form from
those of V (``enumerate_points``, ``enumerate_maximals``), which gives the
counts (q^(2r) - 1)/(q - 1) and N(r) = (1 + q^r) N(r - 1) without search.
Each level of maximals is built in RREF from the RREF of its parents: the
one new row is zero on the parent's pivots, so scaling it at its leading
column, clearing that column from the rows above and inserting it in pivot
order is the child's RREF, and no reduction of the whole stack follows.
The levels are written a bounded chunk at a time, every basis is checked to
be RREF of full rank, and one sort of each puts them in canonical order.
``QuadricModel`` checks that every basis is totally singular without a
Gram product: its rows are singular points, as their lookup in the point
table shows, and beta of every pair of rows i < j is 0, all pairs at once
through ``StandardModel.pairing``.

The incidence index between points and maximals, ``maximal_points``, is
built on its first read, from the s + 1 = (q^d - 1)/(q - 1) combinations of
each basis whose first nonzero coefficient is 1, a fixed chunk of maximals
at a time, each chunk's points by one ``lifted_product`` for every k,
straight into an index of the narrowest exact type: uint16 point ids when
P <= 65,536 and int32 otherwise.  ``QuadricModel.degrees``, the one count
of point degrees, is its one reader; the build checks regularity by the
same count over all N maximals, as each point lies on t + 1 =
prod_{i<d} (q^i + 1) maximals, and the index recount of a hemisystem and
the self-checks call it.

The groups act as h (+) I_U, with h a 3x3 block on W = <z, e0, f0>, and
the actions take h alone: a matrix of any other shape is refused.  On
points only the W columns change.  The first w = dim pi_W(M) rows of a
maximal's RREF basis have their pivots in W, where w is 2 or 3, and the
rest are zero there, so h leaves them fixed; the image of the top rows is
reduced in closed form, by h^-1 when w = 3 and by the inverse of a 2x2
block when w = 2, which gives the exact RREF of the image without a
general reduction.  Its rows are looked up as points.  The images of any
list of points or maximals are taken this way (``point_images``,
``maximal_images``, whose image codes are searched), so an isometry can
move orbit representatives alone.  For the whole permutation, an
invertible h maps the N maximals to N distinct subspaces, so the images
are all maximals exactly when their codes, sorted, are the maximal codes,
and then that one sort is the permutation.  Only otherwise are the image
codes searched, to raise ActionEscape at the first maximal whose image is
not a maximal of the quadric; a singular h escapes at once.  ``maximal_ids``,
which resolves the members of a certificate, looks up the rows of every
matrix and searches the code they spell, and reduces only the matrices
that are not already a maximal's RREF basis.
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
# children per step of each level of the maximal enumeration, likewise; a
# step takes at least one parent, with its q^r children at rank r
_MAXIMAL_CHUNK = 8192
# matrices per step of the lookup in maximal_ids, likewise
_LOOKUP_CHUNK = 4096


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


def _beta(F: Field, pairing, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """beta(u, v) of matching vectors of two broadcastable (n, ...) arrays,
    coordinates first, through ``StandardModel.pairing``: one flat-table
    product u[c] v[partner[c]] per coordinate, so one for each self-paired
    coordinate and two for each hyperbolic pair, scaled by the Gram entry
    only where that entry is not 1."""
    partner, g, _ = pairing
    acc = None
    for c in range(len(partner)):
        term = F.mul_arrays(U[c], V[partner[c]])
        if g[c] != 1:
            term = F.mul_table[g[c]][term]
        acc = term if acc is None else F.add_arrays(acc, term)
    return acc


def _kappa(F: Field, pairing, V: np.ndarray) -> np.ndarray:
    """kappa of every row of a (..., n) stack: half of beta(v, v), which is
    the sum of (g/2) v[c]^2 over the self-paired coordinates c, each one
    gather from a table of q entries, and of g v[e] v[f] over the hyperbolic
    pairs (e, f), one product each, scaled only where g is not 1."""
    partner, g, _ = pairing
    V = np.moveaxis(V, -1, 0)
    half_g = F.mul_table[F.inv(F.add(1, 1)), g]
    squares = np.diagonal(F.mul_table)
    acc = None
    for c in range(len(partner)):
        if partner[c] == c:
            # the table x -> (g/2) x^2, read at the coordinate
            term = F.mul_table[half_g[c]][squares][V[c]]
        elif partner[c] > c:
            term = F.mul_arrays(V[c], V[partner[c]])
            if g[c] != 1:
                term = F.mul_table[g[c]][term]
        else:
            continue
        acc = term if acc is None else F.add_arrays(acc, term)
    return acc


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


def _rref_pivots(stack: np.ndarray) -> np.ndarray:
    """The pivot columns of an (N, r, n) stack of RREF bases of rank r.

    Raises RuntimeError unless, in every matrix, the first nonzero columns
    of the rows strictly increase and hold the identity I_r, which is
    exactly an RREF basis of rank r.  Once the pivots strictly increase,
    a row is zero at every pivot column left of its own, so only the r
    pivots and the r(r - 1)/2 entries above them are read, by flat index,
    one row's pivot column at a time.
    """
    N, r, n = stack.shape
    piv = np.argmax(stack != 0, axis=2)
    flat = stack.reshape(-1)
    # the flat index of column 0 of each matrix's first row
    first = np.arange(0, N * r * n, r * n)
    ok = (np.diff(piv, axis=1) > 0).all()
    for j in range(r):
        col = first + piv[:, j]
        ok = ok and (np.take(flat, col + j * n) == 1).all()
        for i in range(j):
            ok = ok and not np.take(flat, col + i * n).any()
    if not ok:
        raise RuntimeError("an enumerated basis is not an RREF basis of full rank")
    return piv


def enumerate_maximals(model: StandardModel) -> np.ndarray:
    """All totally singular d-subspaces as an (N, d, n) stack of RREF bases.

    The maximals of rank 1 are the points of the conic <z, x, y>.  A
    maximal of V + <e, f> is either <e> + K for a maximal K of V, or
    {k + lam(k) e : k in K} + <f + w - kappa(w) e> for a maximal K of V, a
    functional lam on K and w in V with beta(w, k) = -lam(k) on K; w is
    fixed modulo K up to t u, where u is any vector of K-perp outside K.
    That is N(r) = (1 + q^r) N(r - 1) maximals at rank r.

    Every level is built in RREF.  K is the identity on its pivot columns,
    from which the duals of K and u follow in closed form.  <e> + K is K's
    rows and e, already RREF, as e lies past K's pivots: every column of V
    but z's follows e0, and z is the one pivot at rank 1.  The new row of
    the child (lam, t) is zero on K's pivots; scaled at its leading column
    j and cleared from the rows above by one rank-one update, it is
    inserted in pivot order.  No row gains an entry left of its pivot, as
    a row of K is nonzero at j only past its pivot.  Each level is written
    into its preallocated stack ``_MAXIMAL_CHUNK`` children at a time, and
    ``_rref_pivots`` checks every basis once; one sort gives the canonical
    order.
    """
    F, n = model.field, model.dim
    cols = list(model.conic)
    bases = _conic_points(F, model.pairing, cols, n)[:, None, :]
    for e, f in model.pairs:
        N, r, Q = bases.shape[0], bases.shape[1] + 1, F.q ** (bases.shape[1] + 1)
        out = np.empty((N * (1 + Q), r, n), dtype=np.uint8)
        # the children <e> + K first, then the Q = q^r children of each K in turn
        out[:N, :-1] = bases
        out[:N, -1] = np.eye(1, n, e, dtype=np.uint8)
        lifted = out[N:].reshape(N, Q, r, n)
        step = max(1, _MAXIMAL_CHUNK // Q)
        for start in range(0, N, step):
            _write_children(model, cols, e, f, bases[start:start + step], lifted[start:start + step])
        bases = out
        cols += [e, f]
    for start in range(0, len(bases), _MAXIMAL_CHUNK):
        _rref_pivots(bases[start:start + _MAXIMAL_CHUNK])
    return _lex_sorted(bases)


def _write_children(model: StandardModel, cols: list[int], e: int, f: int, K, out) -> None:
    """Write the RREF bases of the children (lam, t) of a chunk of maximals
    K of V = <cols>, in RREF, into a (len(K), q^r, r, n) array, in the order
    of ``all_vectors(q, r)`` for (lam, t), r - 1 being the rank of K."""
    F, pairing = model.field, model.pairing
    ADD, NEG = F.add_table, F.neg_table
    c, r, n = K.shape[0], K.shape[1] + 1, K.shape[2]
    L = len(cols)
    coef = all_vectors(F.q, r)
    piv = _rref_pivots(K)
    parent = np.arange(c)[:, None]
    # K is the identity on its pivot columns p_i, so dual(unit(p_i)) is
    # dual to K, and y_j = unit(j) - sum_i K[i, j] unit(p_i) over the
    # columns j of V are orthogonal to K: their duals span K-perp in V
    W = np.zeros((c, r - 1, n), dtype=np.uint8)
    W[parent, np.arange(r - 1), piv] = 1
    Y = np.zeros((c, L, n), dtype=np.uint8)
    Y[parent[:, :, None], np.arange(L)[:, None], piv[:, None, :]] = NEG[
        K[:, :, cols].transpose(0, 2, 1)
    ]
    Y[:, np.arange(L), cols] = ADD[Y[:, np.arange(L), cols], 1]
    perp = _dual(F, pairing, Y)
    outside = _kappa(F, pairing, perp) != 0
    if not outside.any(axis=1).all():
        raise RuntimeError("a maximal has no anisotropic vector in its perp")
    u = perp[np.arange(c), np.argmax(outside, axis=1)]
    D = np.concatenate([_dual(F, pairing, W), u[:, None]], axis=1)
    # reduce modulo K, so that every new row is zero on K's pivots
    at_piv = np.take_along_axis(D, piv[:, None, :], axis=2)
    D = ADD[D, mat_mul(F, NEG[at_piv], K)]
    # child (lam, t): rows k_i + lam_i e and g = f + w - kappa(w) e,
    # where w = -sum_i lam_i w_i + t u
    lam = coef[:, :-1]
    g = mat_mul(F, np.concatenate([NEG[lam], coef[:, -1:]], axis=1), D)
    g[..., e] = NEG[_kappa(F, pairing, g)]
    g[..., f] = 1
    # scale g at its leading column j, f at the latest, and clear column j
    # from the rows above: k -= k[j] g
    j = np.argmax(g != 0, axis=2)[..., None]
    g = F.mul_arrays(F.inv_table[np.take_along_axis(g, j, axis=2)], g)
    top = np.repeat(K[:, None], len(coef), axis=1)
    top[..., e] = lam
    a = np.take_along_axis(top, j[..., None], axis=3)
    top = F.add_arrays(top, F.mul_arrays(NEG[a], g[:, :, None]))
    # g goes in at the number of K's pivots before j
    at = (piv[:, None] < j).sum(axis=2)[..., None]
    for s in range(r):
        keep = top[:, :, s] if s < r - 1 else g
        shifted = top[:, :, s - 1] if s else g
        out[:, :, s] = np.where(at > s, keep, np.where(at == s, g, shifted))


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


def _v_rows(stack, n: int) -> np.ndarray:
    """stack as uint8 rows of length n; raises ValueError for any other width."""
    stack = np.asarray(stack, dtype=np.uint8)
    if stack.shape[-1:] != (n,):
        raise ValueError(f"a vector of V has {n} coordinates, not shape {stack.shape}")
    return stack


def _degrees(index: np.ndarray, ids: np.ndarray, num_points: int) -> np.ndarray:
    """How many of the maximals ``ids`` hold each point, from their index rows,
    gathered 1,024 at a time to bound them, each chunk counted in place into
    the one int64 array by ``np.add.at``; with a narrower accumulator the
    scatter leaves its fast path and runs some 30 times slower."""
    degrees = np.zeros(num_points, dtype=np.int64)
    for start in range(0, len(ids), 1024):
        rows = np.take(index, ids[start:start + 1024], axis=0)
        np.add.at(degrees, rows.ravel(), 1)
    return degrees


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
        point_codes = vector_codes(q, self.points)
        if not (np.diff(point_codes) > 0).all():
            raise RuntimeError("enumerated points are not strictly sorted")
        # the codes q^j .. 2 q^j - 1 are the unit vectors led at coordinate
        # n - 1 - j, ranked after the (q^j - 1)/(q - 1) led later; the zero code
        # and the other codes up to q^(j + 1) - 1 rank at the closing -1 or past it
        powers = q ** np.arange(self.dim, dtype=np.int64)
        self._rank_bounds = np.stack([powers, 2 * powers], axis=1).ravel()
        units = (q**self.dim - 1) // (q - 1)
        self._rank_offsets = np.full(2 * self.dim + 1, units, dtype=np.int64)
        self._rank_offsets[1::2] = (powers - 1) // (q - 1) - powers
        self.point_table = np.full(units + 1, -1, dtype=np.int32)
        self.point_table[self._unit_ranks(point_codes)] = np.arange(self.num_points)

        self.maximal_bases = enumerate_maximals(model)
        self.num_maximals = self.maximal_bases.shape[0]
        if self.num_maximals != maximal_count(q, model.d):
            raise RuntimeError(
                f"enumerated {self.num_maximals} maximals, expected {maximal_count(q, model.d)}"
            )
        basis_points = self._lookup_units(self.maximal_bases)
        if (basis_points < 0).any():
            raise RuntimeError("an enumerated basis row is not a singular point's unit vector")
        # the rows are singular points, so a basis is totally singular exactly
        # when they are pairwise orthogonal: beta of every pair i < j at once,
        # on a coordinate-first (n, d, chunk) copy of a bounded chunk of bases
        first, second = np.triu_indices(self.d, 1)
        for start in range(0, self.num_maximals, _MAXIMAL_CHUNK):
            chunk = self.maximal_bases[start:start + _MAXIMAL_CHUNK].transpose(2, 1, 0).copy()
            if _beta(F, model.pairing, chunk[:, first], chunk[:, second]).any():
                raise RuntimeError("an enumerated maximal is not totally singular")
        self.maximal_codes = vector_codes(self.num_points, basis_points)
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
        for start in range(0, self.num_maximals, _INDEX_CHUNK):
            chunk = self.maximal_bases[start:start + _INDEX_CHUNK]
            pids = self._lookup_units(lifted_product(F, combos, chunk))
            if (pids < 0).any():
                raise RuntimeError("maximal contains a vector outside the point set")
            out[start:start + _INDEX_CHUNK] = np.sort(pids, axis=1)
        # regularity also follows from what the build checks: N(q, d)
        # distinct, totally singular d-spaces are all the maximals
        if (_degrees(out, np.arange(self.num_maximals), self.num_points) != self.t1).any():
            raise RuntimeError(f"some point does not lie on t + 1 = {self.t1} maximals")
        return out

    def degrees(self, ids: np.ndarray) -> np.ndarray:
        """The one count of point degrees: how many maximals ``ids`` hold each point."""
        return _degrees(self.maximal_points, ids, self.num_points)

    # -- lookups

    def _unit_ranks(self, codes: np.ndarray) -> np.ndarray:
        """The rank of each unit-vector code in ``point_table``; the code of
        any other vector ranks at the table's closing -1 or past it."""
        # 2j + 1 for q^j <= code < 2 q^j, 2j + 2 up to q^(j + 1), 0 for zero
        band = np.searchsorted(self._rank_bounds, codes, side="right")
        return codes + np.take(self._rank_offsets, band)

    def _lookup_units(self, vecs: np.ndarray) -> np.ndarray:
        """Int32 point id of each row of a (..., n) stack that is the unit
        vector of a singular point, and -1 for every other row: a rank past
        the table's end is clipped to its closing -1."""
        codes = vector_codes(self.field.q, vecs)
        return np.take(self.point_table, self._unit_ranks(codes), mode="clip")

    def point_ids(self, vecs: np.ndarray) -> np.ndarray:
        """Int32 ids of the points spanned by the rows of an (N, n) stack.

        Raises ValueError when a row has not n = 2d + 1 entries, and
        ActionEscape when a row is zero or not singular.
        """
        pids = self._lookup_units(_units(self.field, _v_rows(vecs, self.dim)))
        if (pids < 0).any():
            raise ActionEscape("vector is not a singular point of the quadric")
        return pids

    def _search_bases(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the maximals whose RREF bases are the matrices of an
        (N, d, n) stack, and whether each matrix is that basis.

        The point key is exact, so a matrix is a maximal's RREF basis
        exactly when every row reads a point id, which makes it that
        point's unit vector, and the ids spell a maximal code.
        """
        # (d, N), so that the check runs along the matrices
        pids = self._lookup_units(rows.transpose(1, 0, 2))
        ids, found = search_keys(self.maximal_codes, vector_codes(self.num_points, pids.T))
        return ids, found & (pids >= 0).all(axis=0)

    def maximal_ids(self, stack: np.ndarray) -> np.ndarray:
        """Ids of the maximals spanned by the matrices of an (N, r, n) stack.

        Any spanning set of a maximal resolves, whatever its row order or
        scaling.  A matrix that is already a maximal's RREF basis, in that
        every row reads a point id and those ids spell a maximal code, is
        resolved by that lookup alone, made ``_LOOKUP_CHUNK`` matrices at a
        time; only the rest are reduced.
        Raises ValueError when a row has not n = 2d + 1 entries, and
        ActionEscape, with ``index`` the first offending matrix, when a
        matrix does not span a maximal of the quadric.
        """
        d = self.d
        stack = _v_rows(stack, self.dim)
        if stack.shape[1] < d:
            raise ActionEscape(f"matrix 0 has fewer than {d} rows", index=0)
        ids = np.zeros(len(stack), dtype=np.int64)
        canonical = np.zeros(len(stack), dtype=bool)
        if stack.shape[1] == d:
            for start in range(0, len(stack), _LOOKUP_CHUNK):
                part = slice(start, start + _LOOKUP_CHUNK)
                ids[part], canonical[part] = self._search_bases(stack[part])
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

    # -- images under isometries

    def point_images(self, h: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Ids of the images of the points ``ids`` under h (+) I_U, for a 3x3
        block h on W; only the W columns of the points change.

        Raises ValueError when h is not 3x3, and ActionEscape when an image
        is not a point of the quadric.
        """
        h = _w_block(h)
        images = self.points[ids]
        images[:, :3] = mat_mul(self.field, images[:, :3], h)
        return self.point_ids(images)

    def point_permutation(self, h: np.ndarray) -> np.ndarray:
        """``point_images`` of every point."""
        return self.point_images(h, np.arange(self.num_points))

    @staticmethod
    def _w_order(bases: np.ndarray) -> tuple[np.ndarray, int]:
        """The positions of a stack of maximal bases ordered by
        w = dim pi_W(M), and the number with w = 2.

        The first w rows of an RREF basis have their pivots in W and the
        rest are zero there.  M meets U in a totally singular space, of
        dimension at most d - 2, so w is 2 or 3; at d = 2 it is always 2.
        """
        w = np.count_nonzero(bases[:, :, 0] | bases[:, :, 1] | bases[:, :, 2], axis=1)
        if not ((w == 2) | (w == 3)).all():
            raise RuntimeError("a maximal does not project onto a 2- or 3-space of W")
        return np.argsort(w, kind="stable"), int((w == 2).sum())

    @functools.cached_property
    def _w_split(self) -> tuple[np.ndarray, int]:
        """``_w_order`` of every maximal, the ids as int32."""
        order, n2 = self._w_order(self.maximal_bases)
        return order.astype(np.int32), n2

    def _image_points(self, h: np.ndarray, ids: np.ndarray, n2: int) -> np.ndarray:
        """Point ids of the rows of the RREF bases of the images under
        h (+) I_U of the maximals ``ids``, as an (len(ids), d) array with -1
        where a row is not a point; the first n2 maximals have w = 2 and
        the rest w = 3.

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
        the rows below.  Raises ValueError when h is not 3x3, and
        ActionEscape when h is singular.
        """
        F = self.field
        h = _w_block(h)
        try:
            hinv = mat_inv(F, h)
        except ValueError:
            raise ActionEscape("the block on W is singular") from None
        # the bases as a (d, n, len(ids)) array, so that the arithmetic
        # below runs along the maximals
        red = np.ascontiguousarray(np.take(self.maximal_bases, ids, axis=0).transpose(1, 2, 0))
        U = red[:3, 3:, n2:]
        U[...] = mat_mul(F, hinv, U.reshape(3, -1)).reshape(U.shape)
        # the rows of each top pair are the columns of Y^T = h^T R_W^T
        top = red[:2, :, :n2]
        top[:, :3] = mat_mul(F, h.T, top[:, :3])
        top[...] = _top_rows_rref(F, top)
        return self._lookup_units(red.transpose(0, 2, 1)).T

    def maximal_images(self, h: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Ids of the images of the maximals ``ids`` under h (+) I_U, for a
        3x3 block h on W, by ``_image_points`` and a search of their codes.

        Raises ValueError when h is not 3x3, and ActionEscape when h is
        singular or, with ``index`` its position in ``ids``, at the first
        maximal whose image is not a maximal of the quadric.
        """
        ids = np.asarray(ids, dtype=np.intp)
        order, n2 = self._w_order(np.take(self.maximal_bases, ids, axis=0))
        pids = np.empty((len(ids), self.d), dtype=np.int32)
        pids[order] = self._image_points(h, ids[order], n2)
        out, found = search_keys(self.maximal_codes, vector_codes(self.num_points, pids))
        bad = ~found | (pids < 0).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ActionEscape(
                f"the image of maximal {ids[i]} is not a maximal of the quadric", index=i
            )
        return out

    def maximal_permutation(self, h: np.ndarray) -> np.ndarray:
        """Ids of the images of every maximal under h (+) I_U, for a 3x3
        block h on W, by ``_image_points``.

        h is invertible, so the images are distinct, and they are all
        maximals exactly when their codes, sorted, are the maximal codes;
        then the ids are read off that one argsort, and only otherwise are
        the codes searched.  Raises as ``maximal_images`` does.
        """
        order, n2 = self._w_split
        pids = self._image_points(h, order, n2)
        codes = vector_codes(self.num_points, pids)
        by_code = np.argsort(codes)
        if not ((pids >= 0).all() and np.array_equal(codes[by_code], self.maximal_codes)):
            # some image is not a maximal, and the search names the first
            self.maximal_images(h, np.arange(self.num_maximals))
            raise RuntimeError("an invertible block carried two maximals onto one")
        out = np.empty(self.num_maximals, dtype=np.intp)
        out[order[by_code]] = np.arange(self.num_maximals)
        return out
