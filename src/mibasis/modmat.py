"""Dense scalar linear algebra modulo a prime.

Matrices are lists of equal-length rows of ints in [0, p).  Elimination
and multiplication run in numpy, in float64 or int64 words when every sum
of products fits them, and otherwise in object arrays of Python integers,
which are exact for any modulus below 2**62.
"""

from __future__ import annotations

import numpy as _np

_F8_LIMIT = 1 << 53
_I8_LIMIT = 1 << 63
_BLOCK = 32


def _dtype_for(p: int, inner: int):
    """Cheapest numpy dtype that holds sums of `inner` products mod p exactly."""
    worst = (p - 1) * (p - 1) * max(inner, 1)
    if worst < _F8_LIMIT:
        return _np.float64
    if worst < _I8_LIMIT:
        return _np.int64
    return object


def zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(mat: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*mat)] if mat else []


def mat_mul(a, b, p: int) -> list[list[int]]:
    """Exact product of two matrices over Z/pZ."""
    ra = len(a)
    ca = len(a[0]) if ra else 0
    if ca != len(b):
        raise ValueError("matrix dimension mismatch in mat_mul")
    cb = len(b[0]) if len(b) else 0
    if ra == 0 or cb == 0:
        return zeros(ra, cb)
    dt = _dtype_for(p, ca)
    A = _np.asarray(a, dtype=dt)
    B = _np.asarray(b, dtype=dt)
    return ((A @ B) % p).astype(_np.int64).tolist()


def rref(mat, p: int):
    """Row-order Gauss-Jordan elimination.

    Processes the rows top to bottom without swapping them, so the selected
    pivot rows form the (lexicographically first) row rank profile.  Returns
    (pivot_row_indices, pivot_cols, reduced_rows) with each reduced row unit
    at its own pivot column and zero at every other pivot column.

    The elimination is blocked: one pre-reduction and one update product per
    block of rows.  The reduced rows R stay fully reduced; new pivots found
    inside a block are folded into R with a single product once the block is
    finished.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    if not ncols:
        return [], [], []
    dt = _dtype_for(p, min(nrows, ncols) + 1)
    A = _np.asarray(mat, dtype=dt) % p
    R = _np.zeros((0, ncols), dtype=dt)
    pivcols: list[int] = []
    pivrows: list[int] = []
    i = 0
    while i < nrows and len(pivcols) < ncols:
        blk = A[i : i + _BLOCK].copy()
        if pivcols:
            blk = (blk - blk[:, pivcols] @ R) % p
        loc_cols: list[int] = []
        loc = None
        for bi in range(blk.shape[0]):
            v = blk[bi]
            if loc_cols:
                v = (v - v[loc_cols] @ loc) % p
            nz = _np.nonzero(v)[0]
            if nz.size == 0:
                continue
            j = int(nz[0])
            inv = pow(int(v[j]), -1, p)
            v = (v * inv) % p
            if loc_cols:
                loc = (loc - _np.outer(loc[:, j], v)) % p
                loc = _np.vstack([loc, v])
            else:
                loc = v.reshape(1, -1)
            loc_cols.append(j)
            pivrows.append(i + bi)
            if len(pivcols) + len(loc_cols) == ncols:
                break
        if loc_cols:
            if len(pivcols):
                R = (R - R[:, loc_cols] @ loc) % p
            R = _np.vstack([R, loc])
            pivcols.extend(loc_cols)
        i += _BLOCK
    return pivrows, pivcols, R.astype(_np.int64).tolist()


def row_rank_profile(mat, p: int) -> tuple[int, list[int]]:
    """Rank and indices of the first maximal independent set of rows."""
    pivrows, _, _ = rref(mat, p)
    return len(pivrows), pivrows


def col_rank_profile(mat, p: int) -> tuple[int, list[int]]:
    """Rank and indices of the first maximal independent set of columns."""
    return row_rank_profile(transpose(mat), p)


def solve_right(c, d, p: int) -> list[list[int]]:
    """Solve X*C = D for X, with C square invertible over Z/pZ."""
    r = len(c)
    if r == 0:
        return [[] for _ in range(len(d))]
    aug = [list(crow) + list(drow) for crow, drow in zip(transpose(c), transpose(d))]
    _, pivcols, R = rref(aug, p)
    if len(pivcols) < r or any(j >= r for j in pivcols):
        raise ValueError("singular matrix in solve_right")
    xt = [None] * r
    for j, row in zip(pivcols, R):
        xt[j] = row[r:]
    return transpose(xt)


def det(mat, p: int) -> int:
    """Determinant over Z/pZ by plain elimination (small matrices)."""
    n = len(mat)
    a = [row[:] for row in mat]
    sign = 1
    result = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p), -1)
        if piv < 0:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        pv = a[col][col] % p
        result = result * pv % p
        inv = pow(pv, p - 2, p)
        for r in range(col + 1, n):
            f = a[r][col] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return result * sign % p
