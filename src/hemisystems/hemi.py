"""Hemisystem assembly from a two-group orbit comparison.

B = Omega(W) is normal of index two in A = <B, tau>.  When A and B have the
same orbits on points while every A-orbit of maximals splits into a
tau-swapped pair of B-orbits, picking one side of every pair yields a set of
half the maximals covering each point exactly (t + 1)/2 times -- for every
one of the 2^m choices, where m is the number of pairs.  As A is B and the
coset tau B, its orbits are B's orbits joined by tau (the AB-Lemma of
Bamberg, Giudici and Royle, Bull. LMS 2010), so the hypotheses are decided
from B's orbits and tau's image of each; A's orbits are never built.
Index two is decided by ``groups.extension_order``, as ``group_a`` decides
it, from B's membership predicate, so no element of B or A is listed; the
report holds the witness of the first hypothesis that fails.

B's orbits on points are read off a closed-form label (``b_point_orbits``).
Write a point as (w | u), with w on W = <z, e0, f0> and u on U = W-perp.
B acts as h (+) I_U, so it fixes u, and two points with u != 0, each scaled
so that u leads with 1, share a B-orbit exactly when they have the same u
and w's lie in one B-orbit of vectors of W, all of norm kappa(w) =
-kappa(u).  Omega_3(q) is PSL2(q) acting on the symmetric square of its
natural module, carried onto W with its form scaled by a constant; there
the singular vectors are the l v^2, with l defined up to squares, and
beta(l v^2, l' v'^2) is a fixed constant times l l' det(v, v')^2.

- u = 0: the point lies on the conic of W, the <v^2>, on which PSL2(q) is
  transitive as on the projective line: one orbit.
- kappa(u) != 0: O(W) is transitive on the vectors of each nonzero norm
  (Witt).  The stabilizer of w holds the reflections in the anisotropic
  vectors of the nondegenerate plane w-perp, which represents both square
  classes; so its products of at most two reflections reach every class of
  (det, spinor norm), and it meets every coset of Omega in O(W).  Hence
  Omega is transitive on each norm too: one orbit for each u, class 0.
- kappa(u) = 0, w = 0: one point for each u, class 1.
- kappa(u) = 0, w != 0: w is l v^2.  SL2(q) is transitive on the nonzero
  v, and the stabilizer of the singular line <v^2> scales v^2 by the
  squares a^2 only, so the class of l modulo squares splits the nonzero
  singular vectors into two orbits.  For a singular r outside <w>, the
  class of beta(w, r) is that of l times a constant, so it labels the two
  orbits: with r = f0, beta(w, f0) is w's e0 coordinate, and where that is
  0, w lies in <f0> and r = e0 gives its f0 coordinate.  The two
  references agree once the latter is multiplied by -2, as (t, 1, -t^2/2)
  shows: class 2 + [s is a square], where s is e0, or -2 f0 when e0 = 0.

So the label is u's code with the class, and one label for the conic; the
count is 1 + (non-singular points of U) + 3 (singular points of U).  B's
orbits on maximals come from union-find over the maximal permutations of
its ``generating_pair``.  tau enters only through the representatives:
an isometry of W normalizes Omega(W), so it carries each B-orbit onto the
B-orbit of the image of its representative.

Verification is independent of the construction: it recounts the degree of
every point against the chosen maximals, by ``QuadricModel.degrees`` on the
incidence index or, on the slow path, by an orthogonality test of every
point against every chosen basis, a chunked product that reads no index.  The
construction never reads the index either: each element of B, and tau,
enters as its 3x3 block on W and acts through it alone: on points through
their W columns, and on maximals by rewriting RREF bases in closed form.  So
``prepare`` does not build the index, and the index recount builds it on
its first read.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .gf import Field
from .groups import MatrixGroup, extension_order, generating_pair, group_a, omega_w, tau
from .linform import StandardModel, mat_mul, standard_model, vector_codes
from .orbits import ActionEscape, OrbitPartition, labelled, partition
from .quadric import QuadricModel, _kappa, require_memory


class MaskLength(ValueError):
    """The selection mask does not fit the number of orbit pairs."""


class TooManyOrbits(RuntimeError):
    """Full enumeration was requested beyond the configured cap."""


class UnknownMaximalId(ValueError):
    """A certificate referenced a maximal id outside the model."""


@dataclass(frozen=True)
class OrbitSplit:
    """B-orbits on maximals, grouped into tau-swapped pairs."""

    partition: OrbitPartition
    pairs: tuple

    @property
    def m(self) -> int:
        return len(self.pairs)

    @functools.cached_property
    def sides(self) -> np.ndarray:
        """The pairs as an (m, 2) intp array: row i holds pair i's lower
        orbit, then its higher one."""
        return np.array(self.pairs, dtype=np.intp).reshape(-1, 2)


@dataclass(frozen=True)
class ActionBundle:
    """The orbits of B on points and on maximals, and the orbit tau carries
    each one onto."""

    tau_point_image: np.ndarray
    tau_maximal_image: np.ndarray
    b_point_part: OrbitPartition
    b_maximal_part: OrbitPartition


def b_point_orbits(qm: QuadricModel) -> OrbitPartition:
    """The orbits of B = Omega(W) on points, from the closed-form label of
    the module docstring: u's code times 4 plus the class, and -1 on the
    conic."""
    F, model = qm.field, qm.model
    e0, f0 = model.pairs[0]
    u = qm.points[:, 3:]
    # the first nonzero entry of u, or 0 on the conic
    lead = u[:, -1]
    for c in range(u.shape[1] - 2, -1, -1):
        lead = np.where(u[:, c] != 0, u[:, c], lead)
    scaled = F.mul_arrays(F.inv_table[lead][:, None], qm.points)
    w = scaled[:, :3]
    # W = <z, e0, f0> pairs within itself, so its pairing is the first three entries
    anisotropic = _kappa(F, tuple(a[:3] for a in model.pairing), w) != 0
    s = np.where(w[:, e0] != 0, w[:, e0], F.mul_table[F.neg(F.add(1, 1)), w[:, f0]])
    nonzero = (w[:, 0] | w[:, 1] | w[:, 2]) != 0
    cls = np.where(anisotropic, 0, np.where(nonzero, 2 + F.square_mask[s], 1))
    labels = 4 * vector_codes(F.q, scaled[:, 3:]) + cls
    return labelled(np.where(lead == 0, -1, labels))


def resolve_actions(qm: QuadricModel, b: MatrixGroup, t: np.ndarray) -> ActionBundle:
    """The orbits of B = Omega(W) and tau's image of each; tau is a 3x3
    block on W.

    The point orbits are ``b_point_orbits``, and the maximal orbits the
    union-find over the maximal permutations of B's ``generating_pair``.
    tau must be an isometry of J_W, or ActionEscape is raised: then it
    normalizes Omega(W), so the image of an orbit is the orbit of the
    image of its representative, and only the representatives are moved.
    """
    w_space = qm.model.w_space
    if not np.array_equal(w_space.restrict_gram(t), w_space.gram):
        raise ActionEscape("tau is not an isometry of J_W")
    pair = generating_pair(qm.field, b.generators)
    points = b_point_orbits(qm)
    maximals = partition(qm.num_maximals, [qm.maximal_permutation(g) for g in pair])
    return ActionBundle(
        tau_point_image=points.orbit_of[qm.point_images(t, points.reps)],
        tau_maximal_image=maximals.orbit_of[qm.maximal_images(t, maximals.reps)],
        b_point_part=points,
        b_maximal_part=maximals,
    )


@dataclass(frozen=True)
class ABReport:
    """Outcome of the two-group hypotheses: the witness of the first that fails."""

    a_order: int
    n_point_orbits: int
    n_b_maximal_orbits: int
    witness: str | None
    split: OrbitSplit | None

    @property
    def ok(self) -> bool:
        return self.witness is None

    @property
    def m(self) -> int:
        return 0 if self.split is None else self.split.m


def ab_check(
    qm: QuadricModel, b: MatrixGroup, t: np.ndarray, actions: ActionBundle
) -> ABReport:
    """Test the hypotheses of the two-group construction in order; tau is a 3x3 block on W.

    B has index two in A = <B, tau> (``extension_order``); when it has not,
    the report holds that witness at once, and tau's images are not read.
    Otherwise A and B share point orbits exactly when tau carries each
    point orbit of B onto itself.  The maximal orbits pair up when tau
    carries each onto one other orbit and that one back: tau is a
    bijection, so the two have equal sizes, and their union, closed under B
    and tau, is one A-orbit, so neither needs a check of its own.  The
    report keeps the witness of the first hypothesis that fails, and the
    pairs only when all hold.
    """
    a_order, witness = extension_order(qm.field, b, t)
    ppart, bpart = actions.b_point_part, actions.b_maximal_part

    def report(witness: str | None, split: OrbitSplit | None = None) -> ABReport:
        return ABReport(a_order, ppart.n_orbits, bpart.n_orbits, witness, split)

    if witness is not None:
        return report(witness)
    moved = np.flatnonzero(actions.tau_point_image != np.arange(ppart.n_orbits))
    if moved.size:
        return report(f"tau moves point orbit {int(moved[0])} of B")
    img = actions.tau_maximal_image
    own = np.arange(bpart.n_orbits)
    bad = np.flatnonzero((img == own) | (img[img] != own))
    if bad.size:
        o = int(bad[0])
        if img[o] == o:
            return report(f"maximal orbit {o} is fixed by tau")
        return report(f"tau does not involute maximal orbit {o}")
    low = np.flatnonzero(own < img)
    return report(None, OrbitSplit(bpart, tuple(zip(low.tolist(), img[low].tolist()))))


def assemble(split: OrbitSplit, mask: int) -> np.ndarray:
    """Member ids for one mask, ascending: bit i picks the higher orbit of
    pair i.

    The mask's m bits are read at once, from its little-endian bytes by
    ``np.unpackbits``, and bit i picks column bit_i of row i of
    ``split.sides``: a few calls whatever m is, where a loop over the pairs
    takes one step per pair (it is the faster of the two only for the
    smallest m).
    """
    m = split.m
    mask = operator.index(mask)
    if not 0 <= mask < (1 << m):
        raise MaskLength(f"mask needs {m} bits")
    raw = np.frombuffer(mask.to_bytes((m + 7) // 8, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, count=m, bitorder="little")
    chosen = np.zeros(split.partition.n_orbits, dtype=bool)
    chosen[np.where(bits, split.sides[:, 1], split.sides[:, 0])] = True
    return np.flatnonzero(np.take(chosen, split.partition.orbit_of))


def enumerate_all_hemisystems(split: OrbitSplit, cap: int = 2**16):
    """Yield (mask, members) for every mask; refuses beyond the cap."""
    total = 1 << split.m
    if total > cap:
        raise TooManyOrbits(f"2^{split.m} selections exceed the cap of {cap}")
    for mask in range(total):
        yield mask, assemble(split, mask)


@dataclass(frozen=True)
class VerificationReport:
    """Result of recounting point degrees against a candidate member set."""

    ok: bool
    size: int
    expected_size: int
    target_degree: int
    histogram: tuple
    bad_points: tuple
    method: str


def _degrees_by_orthogonality(qm: QuadricModel, ids: np.ndarray) -> np.ndarray:
    """Point degrees without the incidence index.

    A singular point P lies on a maximal M exactly when P J M^T = 0: P is
    then in M-perp, and M-perp / M is anisotropic, so P is in M.
    """
    F = qm.field
    pj = mat_mul(F, qm.points, qm.model.space.gram)
    degrees = np.zeros(qm.num_points, dtype=np.int64)
    # small chunks bound the product's memory: over GF(p^k) each entry takes
    # 12 bytes while it is formed (index, its intp copy in np.take, term, sum)
    for start in range(0, ids.size, 16):
        bases = np.take(qm.maximal_bases, ids[start:start + 16], axis=0)
        rows = bases.reshape(-1, qm.dim)
        prods = mat_mul(F, pj, rows.T).reshape(qm.num_points, len(bases), qm.d)
        # one comparison per column: NumPy reduces ``all`` over a short last
        # axis some seven times slower
        on = prods[..., 0] == 0
        for c in range(1, qm.d):
            on &= prods[..., c] == 0
        degrees += on.sum(axis=1)
    return degrees


def verify_hemisystem(
    qm: QuadricModel, ids, slow: bool = False, jobs: int = 1
) -> VerificationReport:
    """Recount every point degree over the given member ids.

    The recount is ``QuadricModel.degrees``, the one count through the
    incidence index, or with ``slow`` an orthogonality test of every point
    against every member basis, which does not use the index.  Ids that are
    not a flat list of integers raise UnknownMaximalId.  ``jobs`` selects
    nothing; it is accepted for existing callers.

    What the verdict already decides is not computed again: ids that
    strictly increase, as ``assemble`` and a canonical certificate give
    them, hold no duplicate and are bounded by their ends, so only others
    are scanned for their least, their greatest and a repeat; and when no
    point is bad, every degree is the target, so the histogram is
    ((target, P),) without a sort of the degrees.
    """
    arr = np.asarray(ids)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise UnknownMaximalId("member ids must form a flat list of integers")
    arr = arr.astype(np.int64, copy=False)
    increasing = (arr[1:] > arr[:-1]).all()
    if arr.size:
        low, high = (arr[0], arr[-1]) if increasing else (arr.min(), arr.max())
        if low < 0 or high >= qm.num_maximals:
            raise UnknownMaximalId("member id outside the model")
    if not increasing and np.bincount(arr, minlength=qm.num_maximals).max() > 1:
        raise UnknownMaximalId("duplicate member id")

    degrees = _degrees_by_orthogonality(qm, arr) if slow else qm.degrees(arr)
    bad = np.flatnonzero(degrees != qm.target_degree)
    if bad.size:
        values, counts = np.unique(degrees, return_counts=True)
        histogram = tuple(zip(values.tolist(), counts.tolist()))
    else:
        histogram = ((qm.target_degree, qm.num_points),)
    expected = qm.num_maximals // 2
    return VerificationReport(
        ok=arr.size == expected and bad.size == 0,
        size=arr.size,
        expected_size=expected,
        target_degree=qm.target_degree,
        histogram=histogram,
        bad_points=tuple(bad[:5].tolist()),
        method="orthogonal" if slow else "index",
    )


@dataclass(frozen=True, eq=False)
class Prepared:
    """Everything the pipeline needs for one field and rank.

    Two preparations are equal only when they are one object, so each can
    key what is derived from it alone, such as its certificate header.
    """

    field: Field
    model: StandardModel
    qm: QuadricModel
    b: MatrixGroup
    tau_elt: np.ndarray
    a: MatrixGroup
    actions: ActionBundle
    report: ABReport


def prepare(field: Field, d: int) -> Prepared:
    """Build the model, both groups, their actions, and the AB report.

    The groups enter as generators and membership predicates; reading
    ``b.order`` or ``a.order`` of the result lists them.
    """
    require_memory(field.q, d)
    m = standard_model(field, d)
    qm = QuadricModel(m)
    b = omega_w(m)
    t = tau(m)
    a = group_a(m, b, t)
    actions = resolve_actions(qm, b, t)
    report = ab_check(qm, b, t, actions)
    return Prepared(
        field=field, model=m, qm=qm, b=b, tau_elt=t, a=a, actions=actions, report=report
    )
