"""Dense scalar linear algebra modulo a prime.

Matrices come in as lists of equal-length rows or as numpy arrays, and
`rref`, `mat_mul` and `solve_right` return numpy arrays with entries in
[0, p): int64 arrays, or object arrays of Python integers when sums of
products mod p overflow int64 words.  Products run in float64 words when
every sum of products fits their 53 bits, then in int64 words, and
otherwise in object arrays, which are exact for any modulus below 2**62.
Remainders of float64 products are taken in int64, where `%` is several
times cheaper, except on `rref`'s block-sized arrays, which `_rem` reduces
in their own words by floor division.  Every elimination goes through
`rref`: row rank profiles, the Krylov eliminations of the linearization
engine, which ask it for the transform T of their pivot rows, keep it in
one `Echelon` that every window extends in place, and solve their
relations with it, and `solve_right`, which solves a full-row-rank system
with one call for the oracle.
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
    """mat mod p as an array of dtype dt (object: of Python integers).

    Exact for any integer entries: Python integers of any size, and numpy
    arrays of any integer dtype.  Entries that fit int64 words take one
    int64 conversion; larger ones are reduced as Python integers, and an
    unsigned array in its own words, where int64 would wrap them.
    """
    if isinstance(mat, _np.ndarray) and mat.dtype.kind == "u":
        mat = mat % p
    try:
        res = _np.asarray(mat, dtype=_np.int64) % p
    except OverflowError:
        res = (_np.asarray(mat, dtype=object) % p).astype(_np.int64)
    return res.astype(dt, copy=False)


def _dims(mat) -> tuple[int, int]:
    if isinstance(mat, _np.ndarray):
        return mat.shape if mat.ndim == 2 else (len(mat), 0)
    return len(mat), (len(mat[0]) if len(mat) else 0)


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


def _rem(x: _np.ndarray, p: int) -> _np.ndarray:
    """x mod p in place, in x's own words, by floor division; returns x.

    float64 words take x - floor(x / p) p, exact for integers with
    |x| + p < 2**53: x / p then rounds to a double of the same floor.
    int64 words take x - (x // p) p, exact while |x| stays below
    2**63 - p: numpy divides by a scalar through a precomputed reciprocal.
    Python integers take %.  On 256 x 512 int64 words % runs a hardware
    division per entry, 0.5 ms on entries below p and 1.2 ms near 2**41,
    where this takes about 0.24 ms, as on float64 words, which needed a
    conversion to int64 before % (1.2 to 1.8 ms; 2-core x86_64 VM, numpy
    2.4).  `rref` reduces its block-sized arrays so, and its arrays of one
    row, where the set-up of the division costs more than it saves, by %.
    """
    if x.dtype == object:
        return _np.remainder(x, p, out=x)
    if x.dtype == _np.float64:
        q = x / p
        _np.floor(q, out=q)
    else:
        q = x // p
    q *= p
    x -= q
    return x


class Echelon:
    """An elimination with its transform, which `rref` extends in place.

    One buffer of ncols rows and 2 ncols columns, in the words of the
    elimination's products (float64, int64 or object), holds the reduced
    rows R in its first ncols columns and their transform T beside them;
    `pivcols` holds one pivot column per row.  `rows` (R) and `transform`
    (T, r x r for the rank r) are views of the buffer, whose entries lie
    in [0, p): a later call that resumes from this state changes them.
    """

    def __init__(self, ncols: int, p: int):
        self.p = p
        self.ncols = ncols
        self.pivcols: list[int] = []
        self.buf = _np.zeros((ncols, 2 * ncols), dtype=_dtype_for(p, ncols + 1))

    @property
    def rows(self) -> _np.ndarray:
        return self.buf[: len(self.pivcols), : self.ncols]

    @property
    def transform(self) -> _np.ndarray:
        r = len(self.pivcols)
        return self.buf[:r, self.ncols : self.ncols + r]


def rref(mat, p: int, reduced: Echelon | None = None, transform: bool = False):
    """Row-order Gauss-Jordan elimination.

    Processes the rows top to bottom without swapping them, so the selected
    pivot rows form the (lexicographically first) row rank profile.  Returns
    (pivot_row_indices, pivot_cols, reduced_rows), the last an int64 (or
    object) array R whose rows are unit at their own pivot column and zero
    at every other one.

    With transform=True it returns (pivot_row_indices, state) instead, the
    state an `Echelon` whose `rows` are R and whose `transform` is the
    r x r matrix T, r the rank, with R = T C for the pivot rows
    C = mat[pivot_row_indices]; T is the inverse of C[:, pivot_cols].  Then
    X C = D has the solution X = D[:, pivot_cols] T exactly when
    D = D[:, pivot_cols] R.  `reduced`, the state of an earlier call,
    resumes that elimination: mat holds only the rows to add after its
    pivot rows, the pivot indices returned index mat, and the state,
    extended in place and returned, holds what a fresh call on the earlier
    pivot rows followed by mat would give.  Nothing is copied in or out.

    The elimination is blocked.  The reduced rows R found so far stay fully
    reduced, and each block of rows is pre-reduced against them with one
    product.  Inside a block the new pivot rows H are kept in echelon form
    only: zero at the block's earlier pivot columns `loc`.  Their entries at
    those columns form an upper-triangular k x k matrix U, and the block
    keeps its inverse W.  An incoming row v is reduced by c = v[loc] W and
    v - c H: a pivot costs products of one row, not an update of the whole
    block.  A new pivot row h, of pivot column j, adds the column
    -W H[:, j] / h_j and the diagonal entry 1 / h_j to W.  At the end of
    the block, W H are its fully reduced rows, and one product folds them
    into R.  Block-sized arrays are reduced by `_rem`, arrays of one row
    by %.

    T rides along as extra columns of every working row, indexed by pivot
    number: a row that may become pivot number i carries e_i there, and
    every row operation acts on those columns too, so that each working row
    is its T part times the pivot rows.  A working row's T part is zero
    past its own e_i, so each step runs on the columns up to it alone.
    """
    nrows, ncols = _dims(mat)
    if reduced is not None:
        if not transform:
            raise ValueError("an elimination resumes with its transform")
        if reduced.ncols != ncols or reduced.p != p:
            raise ValueError("the state is of another column count or prime than mat")
    if transform:
        state = reduced if reduced is not None else Echelon(ncols, p)
        return _eliminate(mat, p, state.buf, state.pivcols, True), state
    if not nrows or not ncols:
        return [], [], _np.zeros((0, ncols), dtype=_np.int64)
    cap = min(nrows, ncols)
    R = _np.zeros((cap, ncols), dtype=_dtype_for(p, cap + 1))
    pivcols: list[int] = []
    pivrows = _eliminate(mat, p, R, pivcols, False)
    return pivrows, pivcols, R[: len(pivcols)].astype(words(p, cap + 1), copy=False)


def _eliminate(mat, p: int, R: _np.ndarray, pivcols: list[int], transform: bool) -> list[int]:
    """The loop of `rref`: eliminates the rows of mat after the reduced rows
    R[:len(pivcols)], extending R and pivcols in place, and returns the
    indices of mat's pivot rows.  R has room for ncols rows, and with
    transform for T beside R."""
    nrows, ncols = _dims(mat)
    dt = R.dtype
    wd = object if dt == object else _np.int64
    A = _np.asarray(mat, dtype=wd)
    # block arrays stay in the words of the products, row steps take wd
    pivrows: list[int] = []
    i = 0
    while i < nrows and len(pivcols) < ncols:
        r = len(pivcols)
        nb = min(_BLOCK, nrows - i)
        kmax = min(nb, ncols - r)
        # live width: the T part of the block's rows ends at their own e_i
        width = ncols + min(r + nb, ncols) if transform else ncols
        live = ncols + r if transform else ncols
        blk = _np.zeros((nb, width), dtype=dt)
        _np.remainder(A[i : i + nb], p, out=blk[:, :ncols])  # exact on any input word
        if r:
            blk[:, :live] -= blk[:, pivcols] @ R[:r, :live]
            _rem(blk[:, :live], p)
        H = _np.zeros((kmax, width), dtype=dt)
        W = _np.zeros((kmax, kmax), dtype=dt)
        loc = _np.zeros(kmax, dtype=_np.intp)
        k = 0
        for bi in range(nb):
            w = live + k + 1 if transform else ncols
            v = blk[bi, :w]
            if transform:
                v[-1] = 1
            if k:
                c = (v[loc[:k]] @ W[:k, :k]).astype(wd, copy=False) % p
                v = (v - c @ H[:k, :w]).astype(wd, copy=False) % p
            nz = v[:ncols].nonzero()[0]
            if nz.size == 0:
                continue
            j = int(nz[0])
            inv = pow(int(v[j]), -1, p)
            if k:
                W[:k, k] = (W[:k, :k] @ H[:k, j]).astype(wd, copy=False) % p * (p - inv) % p
            W[k, k] = inv
            H[k, :w] = v
            loc[k] = j
            pivrows.append(i + bi)
            k += 1
            if r + k == ncols:
                break
        if k:
            w = live + k if transform else ncols
            R[r : r + k, :w] = W[:k, :k] @ H[:k, :w]
            _rem(R[r : r + k, :w], p)
            if r:
                # the reduced rows and T apart, so that no r-row temporary
                # is wider than the input
                coef = R[:r, loc[:k]]
                spans = [slice(0, ncols)]
                if transform:
                    spans.append(slice(ncols, w))
                for cols in spans:
                    R[:r, cols] -= coef @ R[r : r + k, cols]
                    _rem(R[:r, cols], p)
            pivcols.extend(loc[:k].tolist())
        i += nb
    return pivrows


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

