"""Matrix groups acting on the standard model.

The three-dimensional orthogonal block is produced from SL2(q): the
symmetric square of the natural action preserves the discriminant form of
binary quadratics, and a change of basis carries it onto the W block of the
standard Gram matrix.  The image is Omega(W), of order q(q^2 - 1)/2, and the
reflection in z extends it to an index-two overgroup.

Both groups fix U = W-perp pointwise, so they are held as uint8 stacks of
3x3 blocks on W, and the block is the only form in which an element
enters the pipeline: the membership test, tau, the actions on points and
maximals all take 3x3 blocks.  The pipeline lists no element of either
group.  B is its generators and a closed-form membership predicate: an
isometry of J_W with determinant 1 and square spinor norm, the norm read
off a trace.  Its actions are resolved from a pair of words in its
generators, since PSL2(q) is 2-generated.  A is B's generators with tau,
and h lies in A when h or tau^-1 h lies in B, once ``extension_order``
finds B of index two in A.  Both lists are computed only when read, as
the counted reference of ``stats``, ``selftest`` and the tests: B is closed
from the pair a whole frontier of products at a time, and A is the union
of B and the coset tau B.  A block is embedded into the model's dimension
2d + 1 only to write the generator lines of a certificate.

All matrices act on row vectors from the right, so g @ h means "g first".
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import Field
from .linform import (
    QuadraticSpace,
    StandardModel,
    all_vectors,
    byte_keys,
    identity,
    mat_det,
    mat_inv,
    mat_mul,
    search_keys,
    vector_codes,
)
from .orbits import ActionEscape, OrbitPartition, partition


class GenerationFailure(RuntimeError):
    """A generated group did not close to its expected order."""


class NotUnimodular(ValueError):
    """The symmetric square is only taken of determinant-one matrices."""


class NoIsometry(ValueError):
    """The two quadratic spaces are not similar."""


@dataclass(frozen=True, eq=False)
class MatrixGroup:
    """A finite matrix group: a uint8 stack of its generators, a batched
    membership predicate, and the list of its elements as a counted reference.

    ``member`` maps an (N, n, n) stack to N booleans and is the one
    membership test.  ``listing`` lists the elements, sorted by the bytes of
    each matrix; it runs on the first read of ``elements`` or ``order``.
    """

    generators: np.ndarray  # (g, n, n)
    member: Callable[[np.ndarray], np.ndarray]
    listing: Callable[[], np.ndarray]

    @cached_property
    def elements(self) -> np.ndarray:
        elements = self.listing()
        elements.setflags(write=False)
        return elements

    @property
    def order(self) -> int:
        return self.elements.shape[0]

    def contains(self, mats) -> np.ndarray:
        """Membership of each matrix of a stack of n x n matrices.

        Raises ValueError when the matrices are not n x n.
        """
        M = np.asarray(mats, dtype=np.uint8)
        n = self.generators.shape[-1]
        if M.shape[-2:] != (n, n):
            raise ValueError(f"the elements are {n}x{n} matrices, not of shape {M.shape}")
        return self.member(M.reshape(-1, n, n)).reshape(M.shape[:-2])


def close(field: Field, gens, limit: int) -> MatrixGroup:
    """The group generated by a stack of matrices; the identity is included.

    Each round multiplies the newest elements by every generator on the
    right and keeps the products not met before.  Raises GenerationFailure
    once a round has found more than ``limit`` elements.  Membership is a
    binary search of the sorted element keys.
    """
    gens = np.array(gens, dtype=np.uint8)
    n = gens.shape[-1]
    frontier = identity(n)[None]
    known = byte_keys(frontier).copy()
    while frontier.shape[0]:
        products = mat_mul(field, frontier, gens[:, None]).reshape(-1, n, n)
        keys, first = np.unique(byte_keys(products), return_index=True)
        fresh = ~search_keys(known, keys)[1]
        frontier = products[first[fresh]]
        known = np.sort(np.concatenate([known, keys[fresh]]))
        if known.size > limit:
            raise GenerationFailure(f"closure exceeded {limit} elements")
    elements = known.view(np.uint8).reshape(-1, n, n)
    gens.setflags(write=False)
    return MatrixGroup(
        gens, lambda mats: search_keys(known, byte_keys(mats))[1], lambda: elements
    )


def sl2_generators(field: Field) -> np.ndarray:
    """Transvections over a characteristic basis, plus the Weyl rotation."""
    F = field
    one, neg1 = 1, F.neg(1)
    gens = []
    for i in range(F.k):
        alpha = F.p**i  # the i-th power basis element
        gens.append([[one, alpha], [0, one]])
        gens.append([[one, 0], [alpha, one]])
    gens.append([[0, one], [neg1, 0]])
    return np.array(gens, dtype=np.uint8)


def sym_square(field: Field, g: np.ndarray) -> np.ndarray:
    """Matrix of g on coefficient rows (a, b, c) of binary quadratics.

    The row of f(x, y) = ax^2 + bxy + cy^2 maps to the coefficient row of
    the substituted form f((x, y) g^{-1}).  Substituting the inverse makes
    the assignment multiplicative for the right action, and substitution by
    a determinant-one matrix preserves the discriminant b^2 - 4ac.
    """
    F = field
    M = np.asarray(g, dtype=np.uint8)
    if mat_det(F, M) != 1:
        raise NotUnimodular("symmetric square requires determinant one")
    # entries of the inverse, explicit for a determinant-one 2x2 matrix
    a, b = int(M[1, 1]), F.neg(int(M[0, 1]))
    c, d = F.neg(int(M[1, 0])), int(M[0, 0])
    mul, add = F.mul, F.add
    two = add(1, 1)
    return np.array(
        [
            [mul(a, a), mul(two, mul(a, c)), mul(c, c)],
            [mul(a, b), add(mul(a, d), mul(b, c)), mul(c, d)],
            [mul(b, b), mul(two, mul(b, d)), mul(d, d)],
        ],
        dtype=np.uint8,
    )


def discriminant_gram(field: Field) -> np.ndarray:
    """Gram matrix of the discriminant form b^2 - 4ac on coefficient rows."""
    F = field
    four = F.add(F.add(1, 1), F.add(1, 1))
    m4 = F.neg(four)
    return np.array([[0, 0, m4], [0, F.add(1, 1), 0], [m4, 0, 0]], dtype=np.uint8)


def _diagonalize(space: QuadraticSpace) -> tuple[np.ndarray, np.ndarray]:
    """Rows C with C J C^T diagonal, every entry 1 except a possible final nu."""
    F, n = space.field, space.dim
    nu = F.first_nonsquare
    rows = identity(n)
    norms = np.zeros(n, dtype=np.uint8)
    for i in range(n):
        G = space.restrict_gram(rows[i:])
        diag = np.nonzero(np.diagonal(G))[0]
        if diag.size:
            t = int(diag[0])
        else:
            rr, cc = np.nonzero(G)
            if rr.size == 0:
                raise NoIsometry("degenerate block during diagonalization")
            # two distinct singular rows pairing nontrivially: their sum is
            # anisotropic of norm 2 G[t, u], nonzero in odd characteristic
            t, u = int(rr[0]), int(cc[0])
            rows[i + t] = F.add_table[rows[i + t], rows[i + u]]
        if t:
            rows[[i, i + t]] = rows[[i + t, i]]
        v = rows[i].copy()
        s = space.beta(v, v)
        if F.is_square(s):
            v = F.mul_table[F.inv(F.sqrt(s)), v]
            norms[i] = 1
        else:
            v = F.mul_table[F.inv(F.sqrt(F.div(s, nu))), v]
            norms[i] = nu
        rows[i] = v
        d = int(norms[i])
        for j in range(i + 1, n):
            coef = F.div(space.beta(rows[j], v), d)
            rows[j] = F.add_table[rows[j], F.mul_table[F.neg(coef), v]]

    # fuse pairs of nu-norm rows into pairs of norm-one rows
    x = y = None
    for cand in range(F.q):
        rem = F.sub(F.inv(nu), F.mul(cand, cand))
        if F.is_square(rem):
            x, y = cand, F.sqrt(rem)
            break
    if x is None:
        raise RuntimeError(f"1/nu is not a sum of two squares in GF({F.q})")
    while True:
        bad = np.nonzero(norms == nu)[0]
        if bad.size < 2:
            break
        i, j = int(bad[0]), int(bad[1])
        ri, rj = rows[i].copy(), rows[j].copy()
        rows[i] = F.add_table[F.mul_table[x, ri], F.mul_table[y, rj]]
        rows[j] = F.add_table[F.mul_table[y, ri], F.mul_table[F.neg(x), rj]]
        norms[i] = norms[j] = 1
    bad = np.nonzero(norms == nu)[0]
    if bad.size == 1 and bad[0] != n - 1:
        i = int(bad[0])
        rows[[i, n - 1]] = rows[[n - 1, i]]
        norms[[i, n - 1]] = norms[[n - 1, i]]
    if not np.array_equal(space.restrict_gram(rows), np.diag(norms)):
        raise RuntimeError("diagonalization does not reach a diagonal Gram matrix")
    return rows, norms


def witt_isometry(to_space: QuadraticSpace, from_space: QuadraticSpace):
    """T and scalar c with T J_from T^T = c J_to, c in {1, nu}.

    Conjugation by T then carries isometries of the source form onto
    isometries of the target form.
    """
    F = to_space.field
    if from_space.field != F or to_space.dim != from_space.dim:
        raise NoIsometry("spaces are not comparable")
    cf, nf = _diagonalize(from_space)
    ct, nt = _diagonalize(to_space)
    if np.array_equal(nf, nt):
        T = mat_mul(F, mat_inv(F, ct), cf)
        c = 1
    else:
        nu = F.first_nonsquare
        scaled = QuadraticSpace(F, F.mul_table[nu, to_space.gram])
        ct2, nt2 = _diagonalize(scaled)
        if not np.array_equal(nf, nt2):
            raise NoIsometry("forms are not similar")
        T = mat_mul(F, mat_inv(F, ct2), cf)
        c = nu
    if not np.array_equal(from_space.restrict_gram(T), F.mul_table[c, to_space.gram]):
        raise RuntimeError("T does not carry the source form onto c times the target")
    return T, c


def embed_w_block(field: Field, block: np.ndarray, dim: int) -> np.ndarray:
    """Extend a 3x3 block on W, or a stack of them, by the identity on U."""
    block = np.asarray(block, dtype=np.uint8)
    M = np.empty(block.shape[:-2] + (dim, dim), dtype=np.uint8)
    M[...] = identity(dim)
    M[..., :3, :3] = block
    return M


def generating_pair(field: Field, gens: np.ndarray) -> np.ndarray:
    """Two words in the generators of SL2 or of their images, as a (2, n, n) stack.

    With the generators listed as ``sl2_generators`` lists them, these are
    a, the upper transvection by 1, and b, the lower transvection by
    x^(k - 1) followed by the Weyl rotation.  PSL2(q) is 2-generated
    (Steinberg, "Generators for simple groups", Canad. J. Math. 1962): the
    orbits of B are resolved from this pair, and B's counted reference is
    closed from it.
    """
    return np.stack([gens[0], mat_mul(field, gens[-2], gens[-1])])


# the six terms h[0, s0] h[1, s1] h[2, s2] of a 3x3 determinant, as positions
# in the flattened matrix: the even permutations s, then the odd ones
_DET_TERMS = np.array([[0, 1, 2, 0, 1, 2], [4, 5, 3, 5, 3, 4], [8, 6, 7, 7, 8, 6]])


def _invariant_reader(field: Field, gens: np.ndarray) -> np.ndarray:
    """The (15, 2g + 3) matrix that reads tr(h s) for s = I, each generator
    of B and the pair's second word, then det h, off the nine entries of h
    followed by the six terms of its determinant."""
    F = field
    words = np.concatenate([identity(3)[None], gens, generating_pair(F, gens)[1:]])
    reader = np.zeros((15, len(words) + 1), dtype=np.uint8)
    reader[:9, :-1] = np.swapaxes(words, 1, 2).reshape(-1, 9).T  # tr(h s) = vec(h).vec(s^T)
    reader[9:, -1] = [1, 1, 1, F.neg(1), F.neg(1), F.neg(1)]
    return reader


def _in_omega(space: QuadraticSpace, reader: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Membership of each 3x3 block of an (N, 3, 3) stack in Omega(W).

    Omega(W) is the common kernel of det and the spinor norm theta on O(W)
    (Zassenhaus, "On the spinor norm", Arch. Math. 13, 1962; Taylor, The
    Geometry of the Classical Groups, 1992, ch. 11).  SO(W) is PGL2(q)
    through the adjoint action, with tr Ad(g) = tr(g)^2 / det g - 1, and
    Omega(W) is the image of PSL2(q); so 1 + tr h is theta(h) modulo
    squares whenever it is not 0.  Where it is 0, h s with s in B has the
    same class, and the first word s of ``_invariant_reader`` with
    1 + tr(h s) nonzero is read: a trace-free g in PGL2 has an off-diagonal
    entry, which a transvection by 1 reads, or is diag(1, -1) up to
    scalars, which the pair's second word reads.  One product reads every
    trace and the determinant.
    """
    F = space.field
    flat = h.reshape(-1, 9)
    x = flat[:, _DET_TERMS]
    terms = F.mul_arrays(F.mul_arrays(x[:, 0], x[:, 1]), x[:, 2])
    read = mat_mul(F, np.concatenate([flat, terms], axis=1), reader)
    iso = (space.restrict_gram(h) == space.gram).all(axis=(1, 2))
    special = iso & (read[:, -1] == 1)
    moved = F.add_table[1, read[:, :-1]]
    theta = moved[np.arange(len(h)), np.argmax(moved != 0, axis=1)]
    if (special & (theta == 0)).any():
        raise RuntimeError("no listed word of B moves an element of SO(W) off trace -1")
    return special & F.square_mask[theta]


def _b_order(field: Field) -> int:
    return field.q * (field.q**2 - 1) // 2


def omega_w(model: StandardModel) -> MatrixGroup:
    """Omega(W) as 3x3 blocks on W: the symmetric-square image of SL2.

    The generators of SL2 are carried through the symmetric square onto the
    W block and kept as the group's generators.  Membership is the closed
    form of ``_in_omega``: an isometry of J_W with det 1 and square spinor
    norm.  The elements are listed only when read, as the counted
    reference: closed from the ``generating_pair``, q(q^2 - 1)/2 of them as
    the kernel {I, -I} halves SL2.  That read raises GenerationFailure when
    the pair closes short of that order or misses a listed generator.
    """
    F = model.field
    disc = QuadraticSpace(F, discriminant_gram(F))
    T, _ = witt_isometry(model.w_space, disc)
    Tinv = mat_inv(F, T)
    squares = np.stack([sym_square(F, g) for g in sl2_generators(F)])
    gens = mat_mul(F, mat_mul(F, T, squares), Tinv)
    gens.setflags(write=False)

    def listing() -> np.ndarray:
        expected = _b_order(F)
        group = close(F, generating_pair(F, gens), limit=expected)
        if group.order != expected:
            raise GenerationFailure(f"Omega(W) closed at {group.order}, expected {expected}")
        if not group.contains(gens).all():
            raise GenerationFailure("the generating pair misses a generator of Omega(W)")
        return group.elements

    reader = _invariant_reader(F, gens)
    return MatrixGroup(gens, lambda h: _in_omega(model.w_space, reader, h), listing)


def tau(model: StandardModel) -> np.ndarray:
    """The reflection of W negating z, as its 3x3 block on W."""
    M = identity(3)
    M[0, 0] = model.field.neg(1)
    return M


def extension_order(field: Field, b: MatrixGroup, t: np.ndarray) -> tuple[int, str | None]:
    """|<B, tau>| and the witness of the first failed check; B is Omega(W)
    and tau a 3x3 block on W.

    The checks, in order: tau is outside B, normalizes B (on B's generators,
    as tau B tau^-1 inside B is an equality for finite B), and squares into
    B.  Then B and tau B are closed under products, so they are <B, tau>,
    with B of index two and no witness.  The order is 2|B| then, |B| when
    tau lies in B, and -1 otherwise, with |B| = q(q^2 - 1)/2.
    """
    conj = mat_mul(field, mat_mul(field, t, b.generators), mat_inv(field, t))
    found = b.contains(np.concatenate([t[None], conj, mat_mul(field, t, t)[None]]))
    if found[0]:
        return _b_order(field), "tau lies in B"
    left = np.flatnonzero(~found[1:-1])
    if left.size:
        i = int(left[0])
        return -1, f"conjugate of B generator {i} left B: {b.generators[i].tolist()}"
    if not found[-1]:
        return -1, "tau^2 is not in B"
    return 2 * _b_order(field), None


def group_a(model: StandardModel, b: MatrixGroup, t: np.ndarray) -> MatrixGroup:
    """<B, tau> as B and the coset tau B, which meets B nowhere as tau is outside B.

    h lies in A when h or tau^-1 h lies in B.  The elements are listed
    only when read, as the sorted union of B's list and tau times it.
    Raises GenerationFailure with the witness of ``extension_order``.
    """
    F = model.field
    _, witness = extension_order(F, b, t)
    if witness is not None:
        raise GenerationFailure(witness)
    gens = np.concatenate([b.generators, t[None]])
    gens.setflags(write=False)

    def member(h: np.ndarray) -> np.ndarray:
        inside = b.contains(np.concatenate([h, mat_mul(F, mat_inv(F, t), h)]))
        return inside[: len(h)] | inside[len(h):]

    def listing() -> np.ndarray:
        keys = np.sort(byte_keys(np.concatenate([b.elements, mat_mul(F, t, b.elements)])))
        return keys.view(np.uint8).reshape(-1, 3, 3)

    return MatrixGroup(gens, member, listing)


def w_singular_vectors(model: StandardModel) -> np.ndarray:
    """Nonzero singular vectors of W in ascending code order."""
    F = model.field
    space = model.w_space
    vecs = all_vectors(F.q, 3)[1:]
    return vecs[space.kappa_batch(vecs) == 0]


def w_vector_orbits(model: StandardModel, group: MatrixGroup) -> OrbitPartition:
    """Orbits of a group of W blocks on nonzero singular vectors of W."""
    F = model.field
    vecs = w_singular_vectors(model)
    codes = vector_codes(F.q, vecs)  # ascending, as the vectors are
    images = mat_mul(F, vecs, group.generators)
    pos, found = search_keys(codes, vector_codes(F.q, images))
    if not found.all():
        raise ActionEscape("image left the singular vectors of W")
    return partition(vecs.shape[0], list(pos))
