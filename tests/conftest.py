"""Shared, session-cached geometry builders and matrix-stack helpers for the tests."""

import functools

import numpy as np

from hemisystems.gf import field_make
from hemisystems.linform import StandardModel, standard_model
from hemisystems.quadric import QuadricModel


@functools.lru_cache(maxsize=None)
def model(p: int, k: int, d: int) -> StandardModel:
    return standard_model(field_make(p, k), d)


@functools.lru_cache(maxsize=None)
def qmodel(p: int, k: int, d: int) -> QuadricModel:
    return QuadricModel(model(p, k, d))


def stack_mul(F, X, Y):
    """Elementwise products X[i] @ Y[i] of two matrix stacks (either may be one matrix)."""
    X, Y = np.broadcast_arrays(np.asarray(X, dtype=np.uint8), np.asarray(Y, dtype=np.uint8))
    if F.k == 1:
        return (np.einsum("...ij,...jk->...ik", X.astype(np.int64), Y.astype(np.int64)) % F.p).astype(np.uint8)
    ADD, MUL = F.add_table, F.mul_table
    acc = MUL[X[..., :, 0, None], Y[..., 0, None, :]]
    for t in range(1, X.shape[-1]):
        acc = ADD[acc, MUL[X[..., :, t, None], Y[..., t, None, :]]]
    return acc


def element_orders(F, X):
    """Multiplicative order of every matrix of an invertible stack."""
    ident = np.eye(X.shape[-1], dtype=np.uint8)
    orders = np.zeros(X.shape[0], dtype=np.int64)
    acc, n = X, 1
    while not orders.all():
        orders[(orders == 0) & (acc == ident).all(axis=(1, 2))] = n
        acc, n = stack_mul(F, acc, X), n + 1
        if n > F.q ** X.shape[-1]:
            raise RuntimeError("element order runaway")
    return orders
