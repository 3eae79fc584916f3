"""Shifted minimal bases of truncated-product relations (order bases).

Given an m x n matrix F and orders sigma_1 >= ... >= sigma_n, the target
module is the set of rows p with p * F_j = 0 mod X^(sigma_j) for every
column j.  The iterative engine performs one constant elimination step per
order unit; the recursive one halves the order, updates the shift by the
row degrees of the first half basis, and multiplies the halves together.

Unequal column orders are handled by scaling column j with
X^(sigma_max - sigma_j), which preserves the module exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polymat import PolyMatrix, mat_mul, shifted_row_degree

MBASIS_ORDER_THRESHOLD = 32


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


def _pad_uniform(inst: ApproximantInstance) -> tuple[PolyMatrix, int]:
    top = inst.orders[0]
    exps = [top - o for o in inst.orders]
    if any(exps):
        return inst.f.scale_columns_by_x_power(exps), top
    return inst.f, top


def _mbasis_uniform(f: PolyMatrix, order: int, shift) -> PolyMatrix:
    """One constant kernel/complement elimination per order unit.

    Rows are eliminated in non-decreasing (working shift, row index) order,
    so rows forced to absorb an X factor are exactly the first independent
    residual rows in that order.
    """
    field = f.field
    p = field.p
    m = f.nrows
    basis = PolyMatrix.identity(field, m)
    res = f.copy()
    u = list(shift)
    for t in range(order):
        delta = [[e[t] if t < len(e) else 0 for e in row] for row in res.rows]
        if not any(any(row) for row in delta):
            continue
        pivots: list[tuple[int, int]] = []  # (row index, pivot column)
        for i in sorted(range(m), key=lambda r: (u[r], r)):
            for pr, pc in pivots:
                c = delta[i][pc]
                if c:
                    fct = c * pow(delta[pr][pc], -1, p) % p
                    delta[i] = [(a - fct * b) % p for a, b in zip(delta[i], delta[pr])]
                    basis.rows[i] = [
                        field.poly_sub(a, field.poly_scale(b, fct))
                        for a, b in zip(basis.rows[i], basis.rows[pr])
                    ]
                    res.rows[i] = [
                        field.poly_sub(a, field.poly_scale(b, fct))
                        for a, b in zip(res.rows[i], res.rows[pr])
                    ]
            j = next((k for k, x in enumerate(delta[i]) if x), -1)
            if j >= 0:
                pivots.append((i, j))
        for pr, _ in pivots:
            basis.rows[pr] = [field.poly_shift_up(e, 1) for e in basis.rows[pr]]
            res.rows[pr] = [field.poly_shift_up(e, 1) for e in res.rows[pr]]
            u[pr] += 1
    return basis


def mbasis(inst: ApproximantInstance) -> PolyMatrix:
    """Shifted reduced basis of the approximant module, iteratively."""
    f, order = _pad_uniform(inst)
    return _mbasis_uniform(f, order, inst.shift)


def _pm_rec(f: PolyMatrix, order: int, shift: list[int]) -> PolyMatrix:
    field = f.field
    if f.ncols * order <= MBASIS_ORDER_THRESHOLD or order <= 1:
        return _mbasis_uniform(f, order, shift)
    half = order // 2
    rest = order - half
    f_low = PolyMatrix(field, [[field.poly_trunc(e, half) for e in row] for row in f.rows])
    p1 = _pm_rec(f_low, half, shift)
    prod = mat_mul(p1, f, trunc=order)
    g = PolyMatrix(
        field, [[field.normalize(e[half:]) for e in row] for row in prod.rows]
    )
    mid = [int(d) for d in shifted_row_degree(p1, shift)]
    p2 = _pm_rec(g, rest, mid)
    return mat_mul(p2, p1)


def pm_basis(inst: ApproximantInstance) -> PolyMatrix:
    """Shifted reduced basis of the approximant module, by order halving."""
    f, order = _pad_uniform(inst)
    return _pm_rec(f, order, list(inst.shift))
