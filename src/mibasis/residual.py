"""Residuals P applied to E for a Jordan multiplication matrix.

The residual of P on E is sum_d P_d * (E * J^d), d up to D = deg P; on a
block (x, s) it is P * e(X) mod (X - x)^s, recentred at x.  Blocks come in
any order, and each goes one of two ways, by its size s next to the column
count sigma per row of E, m rows.

Small blocks, floor(log2 s) <= floor(log2(sigma/m)), go through the
linearization, evaluated as P(J) applied to E by Paterson and Stockmeyer's
scheme with b = isqrt(D) + 1 baby steps and g = ceil((D+1)/b) giant steps.
The baby steps are the striped Krylov rows S = [E; E*J; ...; E*J^(b-1)] on
those blocks' columns, built by ceil(log2 b) doublings of
``jordan.act_power``.  One scalar product C' * S then gives, for every i < g,
T_i = sum_r P_(ib+r) * E * J^r, row block i of C' holding the coefficients
of X^(ib) ... X^(ib+b-1); the giant steps are Horner's rule in J^b,
R <- R * J^b + T_i from i = g-1 down to 0.  All of the O(m^2 D sigma)
arithmetic stays in the one product, while S holds mb rows, not m(D+1).
S is built in chunks of whole blocks, each of at most _CHUNK_WORDS words;
a block wider than that on its own joins the tail.

The tail, blocks longer than sigma/m (fewer than m of them) and those too
wide for a chunk, goes through one polynomial-matrix product
``polymat.mat_mul(P, R)``, R having one column per block: the block's columns of E as polynomials, Taylor-shifted by -x.
Each entry of the product, shifted back by x, gives the block's residual in
its first s coefficients.  On a single nilpotent block (hermite-pade) this
is one product with memory linear in the order and no shift at all.
"""

from __future__ import annotations

from math import isqrt

import numpy as _np

from . import modmat
from .field import MINUS_INF
from .jordan import JordanRep, act_power
from .polymat import PolyMatrix, mat_mul

# Most words of one chunk of striped Krylov rows: mb rows times the chunk's
# columns.
_CHUNK_WORDS = 1 << 20

def residual_by_crt(
    entries: list[tuple[int, int, int]],
    pmat: PolyMatrix,
    e_rows: list[list[int]],
    out: list[list[int]],
) -> None:
    """The residual on the blocks (x, s, off) of entries, by one product P*R.

    Column b of R holds block b's columns of E, one polynomial per row,
    Taylor-shifted by -x; the first s coefficients of f(X + x), f an entry of
    column b of P*R, are the residual on the block (a plain slice when x is
    zero).  No Chinese remaindering is done: the name stays because
    perfbench's tracer wraps it by name.
    """
    field = pmat.field
    rhs = [
        [field.taylor_shift(field.normalize(row[off : off + s]), -x) for row in e_rows]
        for x, s, off in entries
    ]
    prod = mat_mul(pmat, PolyMatrix(field, [list(row) for row in zip(*rhs)]))
    for b, (x, s, off) in enumerate(entries):
        for row, prow in zip(out, prod.rows):
            f = prow[b] if x == 0 else field.taylor_shift(prow[b], x)
            for t in range(s):
                row[off + t] = f[t] if t < len(f) else 0


def residual_by_shifting(entries, pmat: PolyMatrix, e_rows, out) -> None:
    """Same as ``residual_by_crt``; the name stays for perfbench's tracer."""
    residual_by_crt(entries, pmat, e_rows, out)


def _baby_steps(top: int) -> int:
    """b = isqrt(D) + 1 stripes for P of degree D = top: b^2 > D."""
    return isqrt(top) + 1


def _coefficient_matrix(pmat: PolyMatrix, b: int, g: int, dt) -> _np.ndarray:
    """C' with C'[i*nrows + r, k*m + c] the coefficient of X^(ib+k) in P[r][c].

    Row block i holds the coefficients of X^(ib) ... X^(ib+b-1), zero past
    the degree of P.
    """
    m, nrows = pmat.ncols, pmat.nrows
    c = _np.zeros((nrows, g * b, m), dtype=dt)
    for r, row in enumerate(pmat.rows):
        for col, e in enumerate(row):
            if e:
                c[r, : len(e), col] = e
    return c.reshape(nrows, g, b * m).transpose(1, 0, 2).reshape(g * nrows, b * m)


def _striped_krylov(e: _np.ndarray, j: JordanRep, stripes: int) -> _np.ndarray:
    """[E; E*J; ...; E*J^(stripes-1)] by doubling: each step multiplies the
    first stripes by J^(stripes so far), the last step only those needed."""
    m = len(e)
    s = _np.empty((stripes * m, e.shape[1]), dtype=e.dtype)
    s[:m] = e
    have = 1
    while have < stripes:
        take = min(have, stripes - have)
        s[have * m : (have + take) * m] = act_power(s[: take * m], j, have)
        have += take
    return s


def _chunks(entries, rows: int):
    """Runs of consecutive entries whose columns times rows fit _CHUNK_WORDS."""
    chunk, width = [], 0
    for entry in entries:
        if chunk and (width + entry[1]) * rows > _CHUNK_WORDS:
            yield chunk
            chunk, width = [], 0
        chunk.append(entry)
        width += entry[1]
    if chunk:
        yield chunk


def _residual_by_krylov(entries, pmat: PolyMatrix, top: int, e_rows, sigma: int) -> _np.ndarray:
    """The residual on the columns of the given blocks, zero elsewhere.

    P is nonzero of degree top, and each block times the mb rows of S fits
    _CHUNK_WORDS, b = isqrt(top) + 1.  Per chunk of whole blocks, one product
    T = C' * S and g - 1 giant steps by J^b.
    """
    field = pmat.field
    p, nrows = field.p, pmat.nrows
    b = _baby_steps(top)
    g = -(-(top + 1) // b)
    rows = pmat.ncols * b
    dt = modmat._words(modmat._dtype_for(p, rows))
    out = _np.zeros((nrows, sigma), dtype=dt)
    e = modmat.reduce(e_rows, p, dt).reshape(len(e_rows), sigma)
    c = _coefficient_matrix(pmat, b, g, dt)
    for chunk in _chunks(entries, rows):
        cols = [off + t for _, s, off in chunk for t in range(s)]
        jc = JordanRep._derived(field, tuple((x, s) for x, s, _ in chunk))
        t = modmat.mat_mul(c, _striped_krylov(e[:, cols], jc, b), p)
        r = t[(g - 1) * nrows :]
        for i in range(g - 2, -1, -1):
            r = (act_power(r, jc, b) + t[i * nrows : (i + 1) * nrows]) % p
        out[:, cols] = r
    return out


def compute_residuals(j: JordanRep, pmat: PolyMatrix, e_rows: list[list[int]]) -> list[list[int]]:
    """P applied to E: small blocks by the Krylov product C*S, the tail by
    one polynomial-matrix product (``residual_by_crt``)."""
    m = len(e_rows)
    if pmat.ncols != m:
        raise ValueError("column count of P must match the row count of E")
    sigma = j.order
    if m and len(e_rows[0]) != sigma:
        raise ValueError("column count of E must match the Jordan order")
    top = pmat.degree()
    if m == 0 or top == MINUS_INF:
        return [[0] * sigma for _ in range(pmat.nrows)]
    rows = m * _baby_steps(top)
    small, tail = [], []
    for (x, s), off in zip(j.blocks, j.offsets):
        fits = s.bit_length() <= (sigma // m).bit_length() and s * rows <= _CHUNK_WORDS
        (small if fits else tail).append((x, s, off))
    if not small:
        out = [[0] * sigma for _ in range(pmat.nrows)]
    else:
        out = _residual_by_krylov(small, pmat, top, e_rows, sigma).tolist()
    if tail:
        residual_by_crt(tail, pmat, e_rows, out)
    return out
