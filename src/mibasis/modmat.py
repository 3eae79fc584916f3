"""Dense scalar linear algebra modulo a prime.

Matrices come in as lists of equal-length rows or as numpy arrays, and
`rref`, `mat_mul` and `solve_right` return numpy arrays with entries in
[0, p): int64 arrays, or object arrays of Python integers when sums of
products mod p overflow int64 words.  Products run in float64 words when
every sum of products fits their 53 bits, then in int64 words, and
otherwise in object arrays, which are exact for any modulus below 2**62.
Remainders of float64 products are taken in int64, where `%` is several
times cheaper.  Every elimination goes through `rref`: row rank profiles,
the Krylov eliminations of the linearization engine, which ask it for the
transform T of their pivot rows and solve their relations with it, and
`solve_right`, which solves a full-row-rank system with one call for the
oracle.
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


def words(p: int, terms: int):
    """The dtype of reduced entries next to sums of `terms` products mod p:
    int64, or object when those sums overflow int64 words."""
    return object if _dtype_for(p, terms) is object else _np.int64


def reduce(mat, p: int, dt) -> _np.ndarray:
    """mat mod p as an array of dtype dt.

    Exact for any integer entries that fit int64 words, and for any Python
    integers when dt is object; larger entries raise OverflowError.
    """
    wd = object if dt is object else _np.int64
    return (_np.asarray(mat, dtype=wd) % p).astype(dt, copy=False)


def _dims(mat) -> tuple[int, int]:
    if isinstance(mat, _np.ndarray):
        return mat.shape if mat.ndim == 2 else (len(mat), 0)
    return len(mat), (len(mat[0]) if len(mat) else 0)


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b, p: int) -> _np.ndarray:
    """Exact product over Z/pZ of two matrices with entries in [0, p)."""
    ra, ca = _dims(a)
    rb, cb = _dims(b)
    if ca != rb:
        raise ValueError("matrix dimension mismatch in mat_mul")
    dt = _dtype_for(p, ca)
    if ra == 0 or cb == 0:
        return _np.zeros((ra, cb), dtype=words(p, ca))
    prod = _np.asarray(a, dtype=dt) @ _np.asarray(b, dtype=dt)
    return prod.astype(words(p, ca), copy=False) % p


def rref(mat, p: int, reduced=None, transform: bool = False):
    """Row-order Gauss-Jordan elimination.

    Processes the rows top to bottom without swapping them, so the selected
    pivot rows form the (lexicographically first) row rank profile.  Returns
    (pivot_row_indices, pivot_cols, reduced_rows), the last an array R whose
    rows are unit at their own pivot column and zero at every other one.
    With transform=True it also returns the r x r matrix T, r the rank, with
    R = T C for the pivot rows C = mat[pivot_row_indices]; T is the inverse
    of C[:, pivot_cols].  Then X C = D has the solution X = D[:, pivot_cols] T
    exactly when D = D[:, pivot_cols] R.

    `reduced` resumes an elimination: it is the (pivot_cols, reduced_rows),
    or with transform the (pivot_cols, reduced_rows, T), that rref returned
    for the first r = len(pivot_cols) rows of mat, which must all have been
    pivot rows.  Those rows are then not eliminated again; the loop starts
    at row r from their reduced rows, and the result is the one a fresh call
    returns, pivot rows 0..r-1 included.

    The elimination is blocked.  The reduced rows R found so far stay fully
    reduced, and each block of rows is pre-reduced against them with one
    product.  Inside a block the new pivot rows H are kept in echelon form
    only: zero at the block's earlier pivot columns.  Their entries at the
    block's pivot columns form an upper-triangular matrix U, and G holds
    the inverse of U in the rows of those columns (zero elsewhere), so that
    H G = I.  An incoming row v is reduced by c = v G and v - c H: a pivot
    costs products of one row, not an update of the whole block.  A new
    pivot row h, of pivot column j, adds the column (e_j - G H[:, j]) / h_j
    to G.  At the end of the block, U^-1 H are its fully reduced rows, and
    one product folds them into R.

    T rides along as min(rows, cols) extra columns of every working row,
    indexed by pivot number: a row that may become pivot k carries e_k
    there, and every row operation acts on those columns too, so that each
    working row is its T part times the pivot rows.
    """
    nrows, ncols = _dims(mat)
    if not nrows or not ncols:
        empty = _np.zeros((0, ncols), dtype=_np.int64)
        if transform:
            return [], [], empty, _np.zeros((0, 0), dtype=_np.int64)
        return [], [], empty
    cap = min(nrows, ncols)
    dt = _dtype_for(p, cap + 1)
    wd = words(p, cap + 1)
    A = _np.asarray(mat, dtype=wd)
    width = ncols + cap if transform else ncols
    kmax = min(_BLOCK, cap)
    R = _np.zeros((cap, width), dtype=dt)  # reduced rows, with T beside them
    H = _np.zeros((kmax, width), dtype=dt)
    G = _np.zeros((ncols, kmax), dtype=dt)
    pivcols: list[int] = []
    if reduced is not None:
        pivcols = list(reduced[0])
        R[: len(pivcols), :ncols] = reduced[1]
        if transform:
            R[: len(pivcols), ncols : ncols + len(pivcols)] = reduced[2]
    pivrows = list(range(len(pivcols)))
    i = len(pivcols)
    while i < nrows and len(pivcols) < ncols:
        r = len(pivcols)
        blk = _np.zeros((min(_BLOCK, nrows - i), width), dtype=wd)
        _np.remainder(A[i : i + _BLOCK], p, out=blk[:, :ncols])
        if r:
            blk = (blk - blk[:, pivcols] @ R[:r]).astype(wd, copy=False) % p
        loc: list[int] = []
        for bi in range(blk.shape[0]):
            k = len(loc)
            if transform:
                blk[bi, ncols + r + k] = 1
            v = blk[bi]
            if k:
                g = G[:, :k]
                h = H[:k]
                c = (v[:ncols] @ g).astype(wd, copy=False) % p
                v = (v - c @ h).astype(wd, copy=False) % p
            nz = v[:ncols].nonzero()[0]
            if nz.size == 0:
                continue
            j = int(nz[0])
            inv = pow(int(v[j]), -1, p)
            if k:
                G[:, k] = (g @ h[:, j]).astype(wd, copy=False) % p * (p - inv) % p
            else:
                G[:, 0] = 0
            G[j, k] = inv
            H[k] = v
            loc.append(j)
            pivrows.append(i + bi)
            if r + k + 1 == ncols:
                break
        if loc:
            k = len(loc)
            red = (G.take(loc, 0)[:, :k] @ H[:k]).astype(wd, copy=False) % p
            if r:
                # the reduced rows and T apart, T up to its last live column,
                # so that no r-row temporary is wider than the input
                coef = R[:r, loc]
                spans = [slice(0, ncols)]
                if transform:
                    spans.append(slice(ncols, ncols + r + k))
                for cols in spans:
                    R[:r, cols] = (R[:r, cols] - coef @ red[:, cols]).astype(wd, copy=False) % p
            R[r : r + k] = red
            pivcols.extend(loc)
        i += _BLOCK
    r = len(pivcols)
    out = R[:r, :ncols].astype(wd, copy=False)
    if transform:
        return pivrows, pivcols, out, R[:r, ncols : ncols + r].astype(wd, copy=False)
    return pivrows, pivcols, out


def row_rank_profile(mat, p: int) -> tuple[int, list[int]]:
    """Rank and indices of the first maximal independent set of rows."""
    pivrows, _, _ = rref(mat, p)
    return len(pivrows), pivrows


_UNSOLVABLE = "C is rank deficient or D is not in its row space"


def solve_right(c, d, p: int) -> _np.ndarray:
    """Solve X*C = D for X over Z/pZ.

    C is r x n of full row rank r (a square invertible C is the case
    r = n), and every row of D must lie in the row space of C; X is then
    unique.  One elimination of [C; D]^T: its columns past r are the first r
    columns times X^T, so a reduced row that vanishes on the first r columns
    vanishes everywhere, and the pivots are exactly the columns 0..r-1.
    Raises ValueError when C is rank deficient or D is inconsistent.
    """
    r, n = _dims(c)
    if r == 0:
        if _np.any(_np.asarray(d) % p):
            raise ValueError(_UNSOLVABLE)
        return _np.zeros((len(d), 0), dtype=_np.int64)
    aug = _np.concatenate([_np.asarray(c), _np.asarray(d).reshape(-1, n)]).T
    _, pivcols, R = rref(aug, p)
    if len(pivcols) < r or any(j >= r for j in pivcols):
        raise ValueError(_UNSOLVABLE)
    return R[_np.argsort(pivcols), r:].T


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
        inv = pow(pv, -1, p)
        for r in range(col + 1, n):
            f = a[r][col] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return result * sign % p
