"""Residuals P applied to E for a Jordan multiplication matrix.

The residual of P on E is sum_d P_d * (E * J^d), d up to D = deg P; on a
block (x, s) it is P * e(X) mod (X - x)^s, recentred at x.  Blocks come in
any order, and each goes one of two ways, by its size s next to the column
count sigma per row of E, m rows.

Small blocks, floor(log2 s) <= floor(log2(sigma/m)), go through the
linearization: the striped Krylov rows S = [E; E*J; ...; E*J^D] on their
columns, built by ceil(log2(D+1)) doublings of ``jordan.act_power``, and the
coefficient matrix C of P (column d*m + c holds the coefficients of X^d of
column c), so that the residual on those columns is one scalar product
C * S.  S holds m(D+1) rows, so it is built in chunks of whole blocks, each
of at most _CHUNK_WORDS words; a block wider than that on its own joins the
tail.

The tail, blocks longer than sigma/m (fewer than m of them) and those too
wide for a chunk, goes through one polynomial-matrix product
``polymat.mat_mul(P, R)``, R having one column per block: the block's columns of E as polynomials, Taylor-shifted by -x.
Each entry of the product, shifted back by x, gives the block's residual in
its first s coefficients.  On a single nilpotent block (hermite-pade) this
is one product with memory linear in the order and no shift at all.
"""

from __future__ import annotations

import numpy as _np

from . import modmat
from .field import MINUS_INF
from .jordan import JordanRep, act_power
from .polymat import PolyMatrix, mat_mul

# Most words of one chunk of striped Krylov rows: m(D+1) rows times the
# chunk's columns.
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


def _coefficient_matrix(pmat: PolyMatrix, top: int, dt) -> _np.ndarray:
    """C with C[r, d*m + c] the coefficient of X^d in P[r][c], d <= top."""
    m = pmat.ncols
    c = _np.zeros((pmat.nrows, top + 1, m), dtype=dt)
    for r, row in enumerate(pmat.rows):
        for col, e in enumerate(row):
            if e:
                c[r, : len(e), col] = e
    return c.reshape(pmat.nrows, (top + 1) * m)


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

    P is nonzero of degree top, and each block times the m(top+1) rows of S
    fits _CHUNK_WORDS.  Per chunk of whole blocks, one product C * S.
    """
    field = pmat.field
    rows = pmat.ncols * (top + 1)
    dt = modmat._words(modmat._dtype_for(field.p, rows))
    out = _np.zeros((pmat.nrows, sigma), dtype=dt)
    e = modmat.reduce(e_rows, field.p, dt).reshape(len(e_rows), sigma)
    c = _coefficient_matrix(pmat, top, dt)
    for chunk in _chunks(entries, rows):
        cols = [off + t for _, s, off in chunk for t in range(s)]
        jc = JordanRep(field, tuple((x, s) for x, s, _ in chunk))
        out[:, cols] = modmat.mat_mul(c, _striped_krylov(e[:, cols], jc, top + 1), field.p)
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
    rows = m * (top + 1)
    small, tail = [], []
    for (x, s), off in zip(j.blocks, j.column_offsets()):
        fits = s.bit_length() <= (sigma // m).bit_length() and s * rows <= _CHUNK_WORDS
        (small if fits else tail).append((x, s, off))
    if not small:
        out = [[0] * sigma for _ in range(pmat.nrows)]
    else:
        out = _residual_by_krylov(small, pmat, top, e_rows, sigma).tolist()
    if tail:
        residual_by_crt(tail, pmat, e_rows, out)
    return out
