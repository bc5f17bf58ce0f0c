"""Orbit partition machinery on integer permutations."""

import time

import numpy as np
import pytest

from conftest import bfs_partition, int64_labelled, orbit_image, same_partition
from hemisystems.gf import field_make
from hemisystems.linform import identity, standard_model
from hemisystems.orbits import (
    ActionEscape,
    check_permutation,
    labelled,
    partition,
)
from hemisystems.quadric import QuadricModel


def test_toy_partition_frozen():
    # permutation (0 1 2)(3 4)(5) on 6 ids
    perm = np.array([1, 2, 0, 4, 3, 5])
    part = partition(6, [perm])
    assert part.n_orbits == 3
    assert part.orbit_of.tolist() == [0, 0, 0, 1, 1, 2]
    assert part.reps.tolist() == [0, 3, 5]
    assert part.sizes.tolist() == [3, 2, 1]
    assert [m.tolist() for m in part.members] == [[0, 1, 2], [3, 4], [5]]


def test_two_generators_merge():
    # (0 1) and (1 2) together generate S_3 acting transitively on {0,1,2}
    part = partition(3, [np.array([1, 0, 2]), np.array([0, 2, 1])])
    assert part.n_orbits == 1
    assert part.members[0].tolist() == [0, 1, 2]


def test_identity_and_empty_generators():
    ident = np.arange(5)
    for gens in ([], [ident], [ident, ident]):
        part = partition(5, gens)
        assert part.n_orbits == 5
        assert part.sizes.tolist() == [1] * 5
        assert part.orbit_of.tolist() == list(range(5))
        assert [m.tolist() for m in part.members] == [[i] for i in range(5)]
    empty = partition(0, [])
    assert empty.n_orbits == 0 and empty.members == ()
    assert empty.orbit_of.size == empty.reps.size == empty.sizes.size == 0


def random_generators(rng, n):
    """A few permutations of n ids, each either random or moving only a few ids."""
    gens = []
    for _ in range(int(rng.integers(0, 4))):
        perm = np.arange(n)
        if rng.random() < 0.5:
            moved = rng.choice(n, size=int(rng.integers(0, min(n, 4) + 1)), replace=False)
            perm[moved] = rng.permutation(moved)
        else:
            perm = rng.permutation(n)
        gens.append(perm)
    return gens


def test_partition_matches_breadth_first_oracle():
    rng = np.random.default_rng(11)
    for _ in range(250):
        n = int(rng.integers(0, 80))
        gens = random_generators(rng, n)
        got, want = partition(n, gens), bfs_partition(n, gens)
        assert got.n == want.n
        for name in ("orbit_of", "reps", "sizes"):
            x, y = getattr(got, name), getattr(want, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        # the members, listed on first read, against the search's own lists
        assert "members" not in vars(got)
        assert len(got.members) == len(want.members)
        for x, y in zip(got.members, want.members):
            assert x.dtype == y.dtype and np.array_equal(x, y)


def test_partition_of_a_long_scrambled_cycle_is_fast():
    # min-label propagation needs as many rounds as the cycle is long;
    # hooking roots and jumping pointers need few
    n = 200_000
    order = np.random.default_rng(5).permutation(n)
    cycle = np.empty(n, dtype=np.int64)
    cycle[order] = np.roll(order, -1)
    start = time.perf_counter()
    part = partition(n, [cycle])
    assert time.perf_counter() - start < 1.0
    assert part.n_orbits == 1 and np.array_equal(part.members[0], np.arange(n))


def test_partition_is_consistent():
    rng = np.random.default_rng(7)
    n = 30
    gens = [rng.permutation(n) for _ in range(3)]
    part = partition(n, gens)
    # members tile the universe exactly
    allm = np.concatenate(part.members)
    assert np.array_equal(np.sort(allm), np.arange(n))
    # orbit_of agrees with members, and orbits are closed under every generator
    for oid, mem in enumerate(part.members):
        assert (part.orbit_of[mem] == oid).all()
        for g in gens:
            assert set(g[mem].tolist()) == set(mem.tolist())
    # reps ascend, so ids are canonical
    assert (np.diff(part.reps) > 0).all()


def test_bad_permutations_rejected():
    with pytest.raises(ValueError):
        check_permutation(3, np.array([0, 0, 2]))
    with pytest.raises(ValueError):
        check_permutation(3, np.array([0, 1]))
    with pytest.raises(ValueError):
        check_permutation(3, np.array([0, 1, 3]))
    with pytest.raises(ValueError):
        partition(3, [np.array([2, 2, 2])])


def test_action_escape_is_lookup_error():
    assert issubclass(ActionEscape, KeyError)


def test_labelled_numbers_classes_by_least_member():
    # the classes of equal labels, whatever the labels' order or dtype
    part = labelled(np.array([7, -1, 7, 3, -1, 9], dtype=np.int64))
    assert part.orbit_of.tolist() == [0, 1, 0, 2, 1, 3]
    assert part.reps.tolist() == [0, 1, 3, 5]
    assert part.sizes.tolist() == [2, 2, 1, 1]
    assert [m.tolist() for m in part.members] == [[0, 2], [1, 4], [3], [5]]


@pytest.mark.parametrize("seed", range(4))
def test_labelled_matches_a_loop_over_labels(seed):
    labels = np.random.default_rng(seed).integers(-5, 12, 200)
    part = labelled(labels)
    firsts = list(dict.fromkeys(labels.tolist()))  # each label at its least id
    assert part.reps.tolist() == [labels.tolist().index(v) for v in firsts]
    for o, v in enumerate(firsts):
        assert part.members[o].tolist() == np.flatnonzero(labels == v).tolist()
        assert part.sizes[o] == (labels == v).sum()
    assert np.array_equal(part.orbit_of, [firsts.index(v) for v in labels.tolist()])


@pytest.mark.parametrize(
    "low, high",
    [(0, 2**16 - 1), (-1, 2**16 - 2), (-1, 2**16 - 1), (0, 2**16), (-1, 2**20), (-(2**40), 5)],
)
def test_labelled_matches_one_int64_sort_on_either_side_of_two_to_the_sixteen(low, high):
    # labels spanning fewer than 2^16 values are sorted as uint16 offsets,
    # the rest as they are; both ends of the span occur in every draw
    labels = np.random.default_rng(high % 97).integers(low, high + 1, 3000)
    labels[[17, 2001]] = low, high
    labels[::7] = labels[5]  # classes of more than one id
    assert same_partition(labelled(labels), int64_labelled(labels))
    assert same_partition(labelled(labels[:0]), int64_labelled(labels[:0]))


def test_orbit_image_toy():
    # group <(0 1)> on 4 ids; extra permutation (0 2)(1 3) carries orbit
    # {0,1} onto {2} and {3}, so it has no single image; {2} and {3} do
    part = partition(4, [np.array([1, 0, 2, 3])])
    assert part.n_orbits == 3  # {0,1}, {2}, {3}
    extra = np.array([2, 3, 0, 1])
    assert orbit_image(part, extra).tolist() == [-1, 0, 0]
    # (0 1)(2 3) normalizes the group and swaps {2} and {3}
    assert orbit_image(part, np.array([1, 0, 3, 2])).tolist() == [0, 2, 1]


@pytest.mark.parametrize("seed", range(4))
def test_orbit_image_matches_a_loop_over_members(seed):
    # reference: collect the orbits that each orbit's members land in
    rng = np.random.default_rng(seed)
    n = 60
    gen = np.arange(n)
    gen[:40] = rng.permutation(40)  # ids 40..59 are fixed, one orbit each
    part = partition(n, [gen])
    for extra in (rng.permutation(n), gen, np.r_[np.arange(40), rng.permutation(20) + 40]):
        want = []
        for members in part.members:
            hit = set(part.orbit_of[extra[members]].tolist())
            want.append(hit.pop() if len(hit) == 1 else -1)
        assert orbit_image(part, extra).tolist() == want


def test_point_orbits_under_a_point_permutation():
    # swapping the first hyperbolic pair is an isometry of the standard
    # Gram; it acts as its 3x3 block on W = <z, e0, f0>
    F = field_make(3)
    model = standard_model(F, 2)
    qm = QuadricModel(model)
    swap = identity(3)
    swap[[1, 2]] = swap[[2, 1]]
    perm = qm.point_permutation(swap)
    part = partition(qm.num_points, [perm])
    assert int(part.sizes.sum()) == qm.num_points
    assert set(part.sizes.tolist()) <= {1, 2}
    # the generator lies in the group, so it maps every orbit to itself
    assert np.array_equal(orbit_image(part, perm), np.arange(part.n_orbits))
    # a matrix that is not an isometry escapes the point set
    shear = identity(3)
    shear[0, 1] = 1
    with pytest.raises(ActionEscape):
        qm.point_permutation(shear)
