"""Hemisystems of parabolic quadrics Q(2d, q) admitting Omega_3(q).

The pipeline: build the standard quadratic space, enumerate the quadric's
points and maximals, realize B = Omega(W) through the symmetric square of
SL_2(q) and A = <B, tau>, check the two-subgroup orbit-splitting
hypotheses, and assemble one verified hemisystem per orbit-choice mask.
"""

from .gf import Field, field_make
from .groups import group_a, omega_w, tau
from .hemi import (
    ab_check,
    assemble,
    enumerate_all_hemisystems,
    prepare,
    verify_hemisystem,
)
from .linform import StandardModel, standard_model
from .quadric import QuadricModel

__all__ = [
    "Field",
    "field_make",
    "StandardModel",
    "standard_model",
    "QuadricModel",
    "omega_w",
    "tau",
    "group_a",
    "ab_check",
    "assemble",
    "enumerate_all_hemisystems",
    "prepare",
    "verify_hemisystem",
]
