"""Orbit partitions of an id-indexed universe.

Orbits come either from a label that is constant exactly on each orbit
(``labelled``), or from a group action resolved to permutations of object
ids, as the connected components of the generators' edges (i, p[i]), found
by a vectorised union-find over int arrays that never touches matrices
(``partition``).  Orbit ids are deterministic: either way, ``labelled``
numbers the orbits by their least member.
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
    entries.  The roots, numbered in ascending order, are the labels handed
    to ``labelled``, so they span the orbit count, not n.
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
    root_number = np.cumsum(label == np.arange(n)) - 1
    return labelled(root_number[label])


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
    ends = np.append(starts[1:], len(order))
    by_least = np.argsort(order[starts])
    number = np.empty_like(by_least)
    number[by_least] = np.arange(by_least.size)
    orbit_of = np.empty_like(order)
    orbit_of[order] = number[np.cumsum(new) - 1]
    members = tuple(order[starts[c]:ends[c]] for c in by_least.tolist())
    return OrbitPartition(len(order), orbit_of, members, order[starts[by_least]], (ends - starts)[by_least])
