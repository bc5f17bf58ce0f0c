"""Orbit partitions of an id-indexed universe.

Orbits come either from a label that is constant exactly on each orbit
(``labelled``), or from a group action resolved to permutations of object
ids, as the connected components of the generators' edges (i, p[i]), found
by a vectorised union-find over int arrays that never touches matrices
(``partition``).  Either way, a partition holds labels alone: each id's
orbit, numbered by its least member, and each orbit's least member and
size; the members of an orbit are listed only when read.
"""

from __future__ import annotations

import functools
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
    """Orbits of a universe of ids 0..n-1: orbit_of[i] is the orbit of id i,
    and orbit o has representative reps[o], its least member, and sizes[o]
    members."""

    orbit_of: np.ndarray
    reps: np.ndarray
    sizes: np.ndarray

    @property
    def n(self) -> int:
        return len(self.orbit_of)

    @property
    def n_orbits(self) -> int:
        return len(self.reps)

    @functools.cached_property
    def members(self) -> tuple:
        """The ids of each orbit, ascending, listed on first read by one
        stable argsort of ``orbit_of``."""
        order = np.argsort(self.orbit_of, kind="stable")
        starts = np.cumsum(self.sizes) - self.sizes
        return tuple(order[a:a + k] for a, k in zip(starts.tolist(), self.sizes.tolist()))


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
    entries.  The roots, numbered in ascending order, are the orbit ids, so
    the orbits are numbered by their least member without a sort.
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
    is_root = label == np.arange(n)
    orbit_of = (np.cumsum(is_root) - 1)[label]
    return OrbitPartition(orbit_of, np.flatnonzero(is_root), np.bincount(orbit_of))


def labelled(labels: np.ndarray) -> OrbitPartition:
    """The partition of ids 0..n-1 into the classes of equal labels, each
    class an orbit, numbered by its least member.

    One stable sort of the labels lists every class in a run of ascending
    ids, so each run's first id is its least member.  When the labels span
    fewer than 2^16 values they are sorted as uint16 offsets from the
    least, for which NumPy's stable sort is a radix sort.
    """
    keys = np.asarray(labels)
    if keys.size:
        low = keys.min()
        if keys.max() - low < 2**16:
            keys = (keys - low).astype(np.uint16)
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, len(order)))
    by_least = np.argsort(order[starts])
    number = np.empty_like(by_least)
    number[by_least] = np.arange(by_least.size)
    orbit_of = np.empty_like(order)
    orbit_of[order] = number[np.cumsum(new) - 1]
    return OrbitPartition(orbit_of, order[starts[by_least]], sizes[by_least])
