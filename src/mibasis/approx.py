"""Shifted minimal bases of truncated-product relations (order bases).

Given an m x n matrix F and orders sigma_1 >= ... >= sigma_n, the target
module is the set of rows p with p * F_j = 0 mod X^(sigma_j) for every
column j: the interpolation module of one nilpotent block of order
sigma_j per column, E holding the coefficients of F_j.  So the iterative
engine is one call of ``mbasis_jordan``, the iterative kernel for any
Jordan matrix that ``dnc`` runs at its leaves: one constant elimination and
one multiplication of the pivot row by X - x per column of E.  The
recursive engine halves the order, updates the shift by the row degrees of
the first half basis, and multiplies the halves together; its base case is
the iterative one.

Unequal column orders are handled by scaling column j with
X^(sigma_max - sigma_j), which preserves the module exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as _np

from . import modmat
from .field import PrimeField
from .jordan import JordanRep
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


def mbasis_jordan(e_rows, j: JordanRep, shift, field: PrimeField) -> PolyMatrix:
    """s-reduced basis of the interpolants of E for a Jordan matrix J.

    Takes the columns of E one at a time, in block order.  At column k of a
    block of eigenvalue x, the rows of P interpolate every earlier column.
    The pivot is the row of least (shifted degree, index) whose residual is
    nonzero at k; constant multiples of it clear column k from the other
    rows, and the pivot row is multiplied by X - x.  Its residual becomes
    R (J - x): within the current block a shift by one column, which clears
    column k, and on a later block of eigenvalue y a shift plus (y - x) R.
    The shifted degree of the pivot row rises by one, that of the others
    does not, so the shifted row degree sum exceeds sum(shift) by the number
    of pivots, the degree of det P: P is s-reduced, and every entry has
    degree at most the order of J.

    Row i of one work array W holds the residual of row i of P on columns
    [0, order), then the coefficients of row i of P, degree-major: column
    order + d*m + c holds the coefficient of X^d of entry c.  So one rank-1
    update covers a row's residual and its coefficients, and multiplying by
    X - x shifts the coefficients by m columns.  The updates stop at the
    largest degree reached so far.  A row is reduced mod p when it becomes
    the pivot; the others take at most one update of magnitude below
    (p-1)^2 per column, so W holds int64 words while (p-1)^2 (order + 2)
    < 2^63, and object arrays of Python integers beyond.
    """
    p = field.p
    m, sigma = len(e_rows), j.order
    dt = modmat._words(modmat._dtype_for(p, sigma + 2))
    w = _np.zeros((m, sigma + m * (sigma + 1)), dtype=dt)
    w[:, :sigma] = modmat.reduce(e_rows, p, dt).reshape(m, sigma)
    w[range(m), range(sigma, sigma + m)] = 1
    offsets = j.column_offsets()
    eig = _np.repeat(_np.array([x for x, _ in j.blocks], dtype=dt), [s for _, s in j.blocks])
    inner = _np.ones(sigma, dtype=dt)  # 0 on the first column of each block
    inner[offsets] = 0
    u = list(shift)
    rowdeg = [0] * m  # a bound on the degrees of each row of P
    deg = 0
    for (x, size), off in zip(j.blocks, offsets):
        lam = (eig[off:] - x) % p  # y - x on the columns of eigenvalue y
        for col in range(off, off + size):
            v = [a % p for a in w[:, col].tolist()]
            live = [i for i in range(m) if v[i]]
            if not live:
                continue
            piv = min(live, key=lambda i: (u[i], i))
            top = rowdeg[piv]
            for i in live:
                rowdeg[i] = max(rowdeg[i], top)
            rowdeg[piv] = top + 1
            deg = max(deg, top + 1)
            end = sigma + (deg + 1) * m
            row = w[piv, col:end] % p
            inv = pow(v[piv], -1, p)
            f = _np.array([a * inv % p for a in v], dtype=dt)
            f[piv] = 0
            w[:, col + 1 : end] -= _np.multiply.outer(f, row[1:])
            # the pivot row times X - x: residual, then coefficients
            k = sigma - col
            res = lam[col - off + 1 :] * row[1:k]
            res += inner[col + 1 :] * row[: k - 1]
            _np.remainder(res, p, out=w[piv, col + 1 : sigma])
            coef = row[k:]
            new = coef * (-x % p)
            new[m:] += coef[:-m]
            _np.remainder(new, p, out=w[piv, sigma:end])
            u[piv] += 1
    coeffs = (w[:, sigma : sigma + (deg + 1) * m] % p).reshape(m, deg + 1, m)
    return PolyMatrix(
        field, [[field.normalize(e) for e in row] for row in coeffs.transpose(0, 2, 1).tolist()]
    )


def _jordan_form(f: PolyMatrix, order: int):
    """E and J of the approximant problem of order `order` on every column:
    one nilpotent block per column, holding its first `order` coefficients."""
    e_rows = [
        [c for e in row for c in (e + [0] * order)[:order]] for row in f.rows
    ]
    return e_rows, JordanRep(f.field, ((0, order),) * f.ncols)


def mbasis(inst: ApproximantInstance) -> PolyMatrix:
    """Shifted reduced basis of the approximant module, iteratively."""
    f, order = _pad_uniform(inst)
    return mbasis_jordan(*_jordan_form(f, order), inst.shift, f.field)


def _pm_rec(f: PolyMatrix, order: int, shift: list[int]) -> PolyMatrix:
    field = f.field
    if f.ncols * order <= MBASIS_ORDER_THRESHOLD or order <= 1:
        return mbasis_jordan(*_jordan_form(f, order), shift, field)
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
