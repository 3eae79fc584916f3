"""Brute-force ground truth for the fast engines.

Everything here is dimension-polynomial and deliberately avoids the fast
techniques (degree doubling, bucketing, divide and conquer) so that a bug
cannot be shared with the paths under test.  Intended for small instances.
"""

from __future__ import annotations

import numpy as _np

from . import jordan as _jordan
from . import modmat
from .field import MINUS_INF, PrimeField
from .polymat import (
    PolyMatrix,
    degree_sum,
    is_reduced,
    normalized_shift,
    shifted_row_degree,
)


def _dense_mulmat(mulmat):
    if isinstance(mulmat, _jordan.JordanRep):
        return _jordan.to_dense(mulmat)
    return mulmat


def _striped_rows(e_rows, dense, delta: int, p: int):
    """E, E*M, ..., E*M^delta stacked block by block (unpermuted).

    An int64 array, or an object array of Python integers for primes where
    the products overflow int64.
    """
    sigma = len(dense)
    dt = modmat._dtype_for(p, sigma)
    mat = modmat.reduce(dense, p, dt).reshape(sigma, sigma)
    cur = modmat.reduce(e_rows, p, dt)
    blocks = [cur]
    for _ in range(delta):
        cur = (cur @ mat) % p
        blocks.append(cur)
    stacked = _np.vstack(blocks)
    return stacked if dt is object else stacked.astype(_np.int64)


def _priority_pairs(shift: list[int], m: int, delta: int) -> list[tuple[int, int]]:
    """Pairs (c, d), standing for row c of E*M^d, by s_c + d, then by c."""
    return sorted(
        ((c, d) for d in range(delta + 1) for c in range(m)),
        key=lambda cd: (shift[cd[0]] + cd[1], cd[0]),
    )


def striped_krylov(
    e_rows: list[list[int]],
    mulmat,
    shift: list[int],
    delta: int,
    field: PrimeField,
) -> list[list[int]]:
    """Dense stack of E, E*M, ..., E*M^delta with priority-permuted rows."""
    m = len(e_rows)
    stacked = _striped_rows(e_rows, _dense_mulmat(mulmat), delta, field.p)
    return [stacked[d * m + c].tolist() for c, d in _priority_pairs(shift, m, delta)]


def oracle_popov(
    e_rows: list[list[int]],
    mulmat,
    shift: list[int],
    field: PrimeField,
) -> tuple[PolyMatrix, list[int]]:
    """Shifted Popov interpolation basis by full-matrix Gaussian elimination;
    its inputs and domain errors are those of dnc and lin."""
    _jordan.check_evaluations(e_rows, mulmat, field)
    m = len(e_rows)
    sigma = len(e_rows[0])
    shift = normalized_shift(shift, m)
    delta = max(sigma, 1)
    pairs = _priority_pairs(shift, m, delta)
    stacked = _striped_rows(e_rows, _dense_mulmat(mulmat), delta, field.p)
    kry = stacked[[d * m + c for c, d in pairs]]
    _, kept = modmat.row_rank_profile(kry, field.p)
    decoded = [pairs[i] for i in kept]
    mindeg = [0] * m
    for c, d in decoded:
        mindeg[c] = max(mindeg[c], d + 1)
    pivot_rows = kry[kept]
    targets = stacked[[mindeg[c] * m + c for c in range(m)]]
    relation = modmat.solve_right(pivot_rows, targets, field.p).tolist()
    # row c: X^mindeg[c] e_c minus the profile monomials X^d e_k it relates to
    rows = []
    for c in range(m):
        row = [[0] * (mindeg[k] + 1) for k in range(m)]
        row[c][mindeg[c]] = 1
        for (k, d), coeff in zip(decoded, relation[c]):
            row[k][d] = (row[k][d] - coeff) % field.p
        rows.append([field.normalize(e) for e in row])
    return PolyMatrix(field, rows, m), mindeg


def naive_residual(mulmat, pmat: PolyMatrix, e_rows: list[list[int]]) -> list[list[int]]:
    """Sum over d of P_d * (E * M^d), by repeated application of M."""
    field = pmat.field
    p = field.p
    m = len(e_rows)
    if pmat.ncols != m:
        raise ValueError("dimension mismatch in naive_residual")
    sigma = len(e_rows[0]) if m else 0
    top = pmat.degree()
    if top == MINUS_INF:
        return [[0] * sigma for _ in range(pmat.nrows)]
    out = None
    cur = e_rows
    dense = None if isinstance(mulmat, _jordan.JordanRep) else mulmat
    for d in range(int(top) + 1):
        coeff = [[e[d] if d < len(e) else 0 for e in row] for row in pmat.rows]
        term = modmat.mat_mul(coeff, cur, p)
        out = term if out is None else (out + term) % p
        if d < top:
            if dense is None:
                cur = _jordan.act(cur, mulmat)
            else:
                cur = modmat.mat_mul(cur, dense, p)
    return out.tolist()


def _content(field: PrimeField, polys: list[list[int]]) -> list[int]:
    g: list[int] = []
    for e in polys:
        g = field.poly_gcd(g, e)
    return g


def determinant_degree(mat: PolyMatrix):
    """Degree of det(mat) by fraction-free (Bareiss) elimination."""
    if mat.nrows != mat.ncols:
        raise ValueError("determinant of a non-square matrix")
    f = mat.field
    n = mat.nrows
    a = [[e[:] for e in row] for row in mat.rows]
    prev = [1]
    sign = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), -1)
        if piv < 0:
            return MINUS_INF
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                num = f.poly_sub(
                    f.poly_mul(a[r][c], a[k][k]), f.poly_mul(a[r][k], a[k][c])
                )
                q, rem = f.poly_divmod(num, prev)
                if rem:
                    raise AssertionError("fraction-free division not exact")
                a[r][c] = q
            a[r][k] = []
        prev = a[k][k]
    return f.deg(a[n - 1][n - 1])


def module_equivalent(
    b1: PolyMatrix,
    b2: PolyMatrix,
    e_rows: list[list[int]],
    mulmat,
    shift: list[int],
) -> bool:
    """Certify two square bases generate the same interpolant module.

    Checks that all rows of both are interpolants, both are nonsingular, and
    their determinantal degrees agree (read off the shifted row degrees when
    a matrix is reduced, by fraction-free elimination otherwise).  Sound when
    at least one side is a basis of the full interpolant module.
    """
    if b1.nrows != b1.ncols or b2.nrows != b2.ncols or b1.nrows != b2.nrows:
        raise ValueError("module_equivalent expects square matrices of equal size")
    for b in (b1, b2):
        res = naive_residual(mulmat, b, e_rows)
        if any(any(v for v in row) for row in res):
            return False

    def detdeg(b: PolyMatrix):
        degs = shifted_row_degree(b, shift)
        if all(d != MINUS_INF for d in degs) and is_reduced(b, shift):
            return degree_sum(degs) - sum(shift)
        return determinant_degree(b)

    d1 = detdeg(b1)
    d2 = detdeg(b2)
    if d1 == MINUS_INF or d2 == MINUS_INF:
        return False
    return d1 == d2


def rational_kernel(fmat: PolyMatrix) -> PolyMatrix:
    """Left kernel basis by fraction-free elimination with content removal.

    Requires full column rank and at least as many rows as columns; the
    output rows span the kernel over the fraction field but need not be a
    minimal or module-spanning set.
    """
    f = fmat.field
    m, n = fmat.nrows, fmat.ncols
    if m < n:
        raise ValueError("rational_kernel expects at least as many rows as columns")
    work = [[e[:] for e in row] for row in fmat.rows]
    trans = [[([1] if i == j else []) for j in range(m)] for i in range(m)]
    piv_rows: list[int] = []
    used = [False] * m
    for col in range(n):
        piv = next((r for r in range(m) if not used[r] and work[r][col]), -1)
        if piv < 0:
            raise ValueError("input matrix is rank deficient")
        used[piv] = True
        piv_rows.append(piv)
        for r in range(m):
            if r == piv or not work[r][col]:
                continue
            a, b = work[piv][col], work[r][col]
            new_work = [
                f.poly_sub(f.poly_mul(a, wc), f.poly_mul(b, pc))
                for wc, pc in zip(work[r], work[piv])
            ]
            new_trans = [
                f.poly_sub(f.poly_mul(a, wc), f.poly_mul(b, pc))
                for wc, pc in zip(trans[r], trans[piv])
            ]
            g = _content(f, new_work + new_trans)
            if len(g) > 1:
                new_work = [f.poly_divmod(e, g)[0] for e in new_work]
                new_trans = [f.poly_divmod(e, g)[0] for e in new_trans]
            work[r] = new_work
            trans[r] = new_trans
    kernel = [trans[r] for r in range(m) if not used[r]]
    if len(kernel) != m - n:
        raise ValueError("input matrix is rank deficient")
    out = []
    for row in kernel:
        g = _content(f, row)
        if len(g) > 1:
            row = [f.poly_divmod(e, g)[0] for e in row]
        lead = next((e for e in reversed(row) if e), None)
        if lead is not None and lead[-1] != 1:
            inv = f.inv(lead[-1])
            row = [f.poly_scale(e, inv) for e in row]
        out.append(row)
    return PolyMatrix(f, out, m)


def weak_popov_form(mat: PolyMatrix, shift: list[int]) -> PolyMatrix:
    """Shifted weak Popov form by iterated pivot collisions (test helper)."""
    from .polymat import pivot, row_degree

    f = mat.field
    rows = [[e[:] for e in row] for row in mat.rows]
    while True:
        by_pivot: dict[int, int] = {}
        clash = None
        for i, row in enumerate(rows):
            if row_degree(row, shift) == MINUS_INF:
                raise ValueError("zero row during weak Popov reduction")
            j, d = pivot(row, shift)
            if j in by_pivot:
                clash = (by_pivot[j], i, j)
                break
            by_pivot[j] = i
        if clash is None:
            return PolyMatrix(f, rows)
        i1, i2, j = clash
        d1 = len(rows[i1][j]) - 1
        d2 = len(rows[i2][j]) - 1
        if d1 < d2:
            i1, i2 = i2, i1
            d1, d2 = d2, d1
        c = f.mul(rows[i1][j][-1], f.inv(rows[i2][j][-1]))
        xk = d1 - d2
        rows[i1] = [
            f.poly_sub(a, f.poly_shift_up(f.poly_scale(b, c), xk))
            for a, b in zip(rows[i1], rows[i2])
        ]


def reduces_to_zero(row: list[list[int]], basis: PolyMatrix, shift: list[int]) -> bool:
    """Whether a polynomial row is a module combination of the basis rows."""
    from .polymat import pivot, row_degree

    f = basis.field
    wp = weak_popov_form(basis, shift)
    by_pivot = {}
    for brow in wp.rows:
        j, d = pivot(brow, shift)
        by_pivot[j] = (brow, d)
    cur = [e[:] for e in row]
    while True:
        if row_degree(cur, shift) == MINUS_INF:
            return True
        j, d = pivot(cur, shift)
        if j not in by_pivot:
            return False
        brow, bd = by_pivot[j]
        if bd > d:
            return False
        c = f.mul(cur[j][-1], f.inv(brow[j][-1]))
        cur = [
            f.poly_sub(a, f.poly_shift_up(f.poly_scale(b, c), d - bd))
            for a, b in zip(cur, brow)
        ]
