"""Shifted minimal bases of truncated-product relations (order bases).

Given an m x n matrix F and orders sigma_1 >= ... >= sigma_n, the target
module is the set of rows p with p * F_j = 0 mod X^(sigma_j) for every
column j: the interpolation module of one nilpotent block of order sigma_j
per column, whose evaluation columns hold the first sigma_j coefficients of
F_j (``reductions.hermite_pade_instance``).  So both engines are ``dnc``'s:
``mbasis`` runs its iterative kernel ``mbasis_jordan`` on the whole
instance, and ``pm_basis`` its divide-and-conquer ``interpolation_basis``,
whose leaves are that kernel and whose output passes one full residual
check.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dnc
from .polymat import PolyMatrix
from .reductions import hermite_pade_instance


@dataclass(frozen=True)
class ApproximantInstance:
    f: PolyMatrix
    orders: tuple[int, ...]
    shift: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(self.orders))
        object.__setattr__(self, "shift", tuple(self.shift))
        if len(self.orders) != self.f.ncols:
            raise ValueError("one order per column required")
        if any(o <= 0 for o in self.orders):
            raise ValueError("orders must be positive")
        if any(a < b for a, b in zip(self.orders, self.orders[1:])):
            raise ValueError("orders must be non-increasing")
        if len(self.shift) != self.f.nrows:
            raise ValueError("one shift entry per row required")
        if any(s < 0 for s in self.shift):
            raise ValueError("shift entries must be nonnegative")
        for j, o in enumerate(self.orders):
            for row in self.f.rows:
                if len(row[j]) > o:
                    raise ValueError("column degree must stay below its order")


def mbasis(inst: ApproximantInstance) -> PolyMatrix:
    """Shifted reduced basis of the approximant module, iteratively."""
    hp = hermite_pade_instance(inst.f, inst.orders)
    return dnc.mbasis_jordan(hp.evals, hp.mulmat, inst.shift, hp.field)


def pm_basis(inst: ApproximantInstance) -> PolyMatrix:
    """Shifted reduced basis of the approximant module, by divide and conquer."""
    if not inst.f.nrows:
        return PolyMatrix(inst.f.field, [])
    hp = hermite_pade_instance(inst.f, inst.orders)
    return dnc.interpolation_basis(hp.evals, hp.mulmat, inst.shift, hp.field)
