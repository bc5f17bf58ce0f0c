"""Hemisystem assembly from a two-group orbit comparison.

B = Omega(W) is normal of index two in A = <B, tau>.  When A and B have the
same orbits on points while every A-orbit of maximals splits into a
tau-swapped pair of B-orbits, picking one side of every pair yields a set of
half the maximals covering each point exactly (t + 1)/2 times -- for every
one of the 2^m choices, where m is the number of pairs.  As A is B and the
coset tau B, its orbits are B's orbits joined by tau (the AB-Lemma of
Bamberg, Giudici and Royle, Bull. LMS 2010), so the hypotheses are decided
from B's orbits and tau's permutations alone; A's orbits are never built.
Index two is decided by ``groups.extension_order``, as ``group_a`` decides
it, and the report holds the witness of the first hypothesis that fails.

Verification is independent of the construction: it recounts the degree of
every point against the chosen maximals, either through the incidence index
or, on the slow path, by testing every point for orthogonality to every
chosen basis, one chunked matrix product that does not read the index.  The
construction never reads the index either: B is resolved from a generating
pair, and each element, tau included, enters as its 3x3 block on W and acts
through it alone: on points through their W columns, and on maximals by
rewriting every RREF basis in closed form.  So ``prepare`` does not build
the index, and the index recount builds it on its first read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import Field
from .groups import MatrixGroup, extension_order, generating_pair, group_a, omega_w, tau
from .linform import StandardModel, mat_mul, standard_model
from .orbits import OrbitPartition, orbit_image, partition
from .quadric import QuadricModel, require_memory


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


@dataclass(frozen=True)
class ActionBundle:
    """tau's point and maximal permutations, and the orbits of B."""

    tau_maximal_perm: np.ndarray
    tau_point_perm: np.ndarray
    b_point_part: OrbitPartition
    b_maximal_part: OrbitPartition


def resolve_actions(qm: QuadricModel, b: MatrixGroup, t: np.ndarray) -> ActionBundle:
    """Point and maximal permutations of tau, a 3x3 block on W, and the
    orbits of B, by union-find over the permutations of B's
    ``generating_pair``."""
    pair = generating_pair(qm.field, b.generators)
    bp = [qm.point_permutation(g) for g in pair]
    bm = [qm.maximal_permutation(g) for g in pair]
    return ActionBundle(
        tau_maximal_perm=qm.maximal_permutation(t),
        tau_point_perm=qm.point_permutation(t),
        b_point_part=partition(qm.num_points, bp),
        b_maximal_part=partition(qm.num_maximals, bm),
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

    B has index two in A = <B, tau> (``extension_order``).  A and B share
    point orbits exactly when tau carries each point orbit of B onto
    itself.  The maximal orbits pair up when tau carries each onto one
    other orbit and that one back: tau is a bijection, so the two have
    equal sizes, and their union, closed under B and tau, is one A-orbit,
    so neither needs a check of its own.  The report keeps the witness of
    the first hypothesis that fails, and the pairs only when all hold.
    """
    a_order, witness = extension_order(qm.field, b, t)

    ppart = actions.b_point_part
    moved = np.flatnonzero(orbit_image(ppart, actions.tau_point_perm) != np.arange(ppart.n_orbits))
    if moved.size and witness is None:
        witness = f"tau moves point orbit {int(moved[0])} of B"

    bpart = actions.b_maximal_part
    img = orbit_image(bpart, actions.tau_maximal_perm)
    own = np.arange(bpart.n_orbits)
    bad = np.flatnonzero((img == -1) | (img == own) | (img[img] != own))
    if bad.size and witness is None:
        o = int(bad[0])
        if img[o] == -1:
            witness = f"tau splits maximal orbit {o} between B-orbits"
        elif img[o] == o:
            witness = f"maximal orbit {o} is fixed by tau"
        else:
            witness = f"tau does not involute maximal orbit {o}"

    split = None
    if witness is None:
        low = np.flatnonzero(own < img)
        split = OrbitSplit(bpart, tuple(zip(low.tolist(), img[low].tolist())))
    return ABReport(
        a_order=a_order,
        n_point_orbits=ppart.n_orbits,
        n_b_maximal_orbits=bpart.n_orbits,
        witness=witness,
        split=split,
    )


def assemble(split: OrbitSplit, mask: int) -> np.ndarray:
    """Member ids for one mask: bit i picks the higher orbit of pair i."""
    if not 0 <= mask < (1 << split.m):
        raise MaskLength(f"mask needs {split.m} bits")
    chosen = np.zeros(split.partition.n_orbits, dtype=bool)
    for i, (low, high) in enumerate(split.pairs):
        chosen[high if (mask >> i) & 1 else low] = True
    return np.flatnonzero(chosen[split.partition.orbit_of])


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


def _degrees_by_index(qm: QuadricModel, ids: np.ndarray) -> np.ndarray:
    """Point degrees from the incidence index rows of the members.

    The rows of 1,024 members at a time are gathered by ``np.take``, so the
    gather and its intp copy in ``bincount`` stay one small chunk at any
    number of members.  Both take the index's uint16 or int32 ids alike.
    """
    degrees = np.zeros(qm.num_points, dtype=np.int64)
    for start in range(0, ids.size, 1024):
        rows = np.take(qm.maximal_points, ids[start:start + 1024], axis=0)
        degrees += np.bincount(rows.ravel(), minlength=qm.num_points)
    return degrees


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
        bases = qm.maximal_bases[ids[start:start + 16]]
        rows = bases.reshape(-1, qm.dim)
        prods = mat_mul(F, pj, rows.T).reshape(qm.num_points, len(bases), qm.d)
        degrees += (prods == 0).all(axis=2).sum(axis=1)
    return degrees


def verify_hemisystem(
    qm: QuadricModel, ids, slow: bool = False, jobs: int = 1
) -> VerificationReport:
    """Recount every point degree over the given member ids.

    The recount reads the incidence index, or with ``slow`` tests every
    point for orthogonality to every member basis, which does not use the
    index.  ``jobs`` selects nothing; it is accepted for existing callers.
    """
    arr = np.asarray(ids, dtype=np.int64)
    if arr.ndim != 1:
        raise UnknownMaximalId("member ids must form a flat list")
    if arr.size and (arr.min() < 0 or arr.max() >= qm.num_maximals):
        raise UnknownMaximalId("member id outside the model")
    if np.bincount(arr, minlength=qm.num_maximals).max() > 1:
        raise UnknownMaximalId("duplicate member id")

    if slow:
        degrees = _degrees_by_orthogonality(qm, arr)
        method = "orthogonal"
    else:
        degrees = _degrees_by_index(qm, arr)
        method = "index"

    target = qm.target_degree
    expected = qm.num_maximals // 2
    bad = np.nonzero(degrees != target)[0]
    values, counts = np.unique(degrees, return_counts=True)
    histogram = tuple((int(v), int(c)) for v, c in zip(values, counts))
    ok = arr.size == expected and bad.size == 0
    return VerificationReport(
        ok=bool(ok),
        size=int(arr.size),
        expected_size=expected,
        target_degree=target,
        histogram=histogram,
        bad_points=tuple(int(i) for i in bad[:5]),
        method=method,
    )


@dataclass(frozen=True)
class Prepared:
    """Everything the pipeline needs for one field and rank."""

    field: Field
    model: StandardModel
    qm: QuadricModel
    b: MatrixGroup
    tau_elt: np.ndarray
    a: MatrixGroup
    actions: ActionBundle
    report: ABReport


def prepare(field: Field, d: int) -> Prepared:
    """Build the model, both groups, their actions, and the AB report."""
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
