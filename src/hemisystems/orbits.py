"""Orbit partitions of an id-indexed universe under integer permutations.

Group actions are resolved to permutations of object ids once, so orbit
closure is breadth-first search over int arrays and never touches matrices.
Orbit ids are deterministic: orbits are numbered by their least member.
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
    """Partition ids 0..n-1 into orbits under the group generated by perms."""
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
    return OrbitPartition(n, orbit_of, tuple(members), reps, sizes)


def tau_image_of_orbit(part: OrbitPartition, orbit_id: int, tau_perm: np.ndarray) -> int:
    """Orbit id of the image of orbit orbit_id under an extra permutation.

    Well defined when the permutation normalizes the acting group, which the
    caller is responsible for having checked.
    """
    return int(part.orbit_of[tau_perm[part.reps[orbit_id]]])
