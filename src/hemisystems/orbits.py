"""Orbit partitions of an id-indexed universe under integer permutations.

Group actions are resolved to permutations of object ids once, so orbits
are the connected components of the generators' edges (i, p[i]), found by a
vectorised union-find over int arrays that never touches matrices.  Orbit
ids are deterministic: orbits are numbered by their least member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ActionEscape(KeyError):
    """A group element carried an object outside the enumerated universe.

    ``index`` is the position of the first escaping object when a batch of
    objects was resolved, and None otherwise.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class OrbitPartition:
    """Orbits of a universe of n objects; orbit i has representative reps[i],
    the least id in members[i] (which is sorted ascending)."""

    n: int
    orbit_of: np.ndarray
    members: tuple
    reps: np.ndarray
    sizes: np.ndarray

    @property
    def n_orbits(self) -> int:
        return len(self.members)


def check_permutation(n: int, perm: np.ndarray) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (n,) or (np.bincount(perm, minlength=n) != 1).any():
        raise ValueError("not a permutation of the universe")
    return perm


def partition(n: int, perms) -> OrbitPartition:
    """Partition ids 0..n-1 into orbits under the group generated by perms.

    Union-find over the edges (i, p[i]): for each generator in turn, hook the
    larger root of every unjoined edge under the smaller, then compress by
    pointer jumping; repeat until every edge joins equal labels.  A root is
    never hooked under a larger id, so each label ends as the least member
    of its orbit.  Taking one generator at a time keeps the work arrays at n
    entries.
    """
    perms = [check_permutation(n, p) for p in perms]
    label = np.arange(n, dtype=np.int64)
    joined = False
    while not joined:
        joined = True
        for p in perms:
            b = label[p]
            open_ = label != b
            if not open_.any():
                continue
            joined = False
            a, b = label[open_], b[open_]
            np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
            while True:
                up = label[label]
                if np.array_equal(up, label):
                    break
                label = up
    reps, orbit_of = np.unique(label, return_inverse=True)
    sizes = np.bincount(orbit_of, minlength=reps.size)
    order = np.argsort(orbit_of, kind="stable")
    ends = np.cumsum(sizes).tolist()
    members = tuple(order[s:e] for s, e in zip([0] + ends[:-1], ends))
    return OrbitPartition(n, orbit_of, members, reps, sizes)


def orbit_image(part: OrbitPartition, perm: np.ndarray) -> np.ndarray:
    """The orbit each orbit is carried onto by an extra permutation, or -1.

    Entry o is the orbit holding the images of all of orbit o's members, or
    -1 when they land in more than one orbit.  When the permutation
    normalizes the acting group no entry is -1.
    """
    target = part.orbit_of[check_permutation(part.n, perm)]
    image = target[part.reps]
    split = np.zeros(part.n_orbits, dtype=bool)
    split[part.orbit_of[target != image[part.orbit_of]]] = True
    return np.where(split, -1, image)
