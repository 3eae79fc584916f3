"""Residuals P applied to E for a Jordan multiplication matrix.

The residual of P on E is sum_d P_d * (E * J^d), d up to D = deg P.  Blocks
come in any order.  They are sorted by dyadic size class, relative to the
column count divided by the row count of E (``build_residual_plan``).

Blocks of the small classes go through the linearization: the striped
Krylov rows S = [E; E*J; ...; E*J^D] on their columns, built by
ceil(log2(D+1)) doublings of ``jordan.act_power``, and the coefficient
matrix C of P (column d*m + c holds the coefficients of X^d of column c),
so that the residual on those columns is one scalar product C * S.  S holds
m(D+1) rows, so it is built in chunks of whole blocks, each of at most
_CHUNK_WORDS words; a block wider than that on its own joins the tail.

Blocks of the tail class (large next to the column count per row) go
through Chinese remaindering, so that one polynomial-matrix product serves
every eigenvalue at once: on a single nilpotent block this is one
``polymat.mat_mul``, with memory linear in the order.  The moduli (X - x)^s of a CRT
slot, like those of a shifting bucket's eigenvalues, depend on the blocks
alone: one subproduct tree, with its CRT cofactors, is built per slot of
two or more moduli and shared by every row lifted up it and every product
reduced back down it.  A single modulus needs no tree.  The plan still
labels the small classes ``shift`` (eigenvalues repeating more often than
the row count) or ``crt``; ``residual_by_shifting`` implements the former
and is kept for direct callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as _np

from . import modmat
from .field import MINUS_INF, PrimeField, SubproductTree
from .jordan import JordanRep, act_power
from .polymat import PolyMatrix, mat_mul

# Most words of one chunk of striped Krylov rows: m(D+1) rows times the
# chunk's columns.
_CHUNK_WORDS = 1 << 20


@dataclass
class ResidualBucket:
    size_class: object  # dyadic exponent k, or "inf" for the tail class
    strategy: str  # "shift" or "crt"
    entries: list[tuple[int, int, int]]  # (eigenvalue, block size, column offset)


@dataclass
class ResidualPlan:
    buckets: list[ResidualBucket]


def build_residual_plan(j: JordanRep, m: int) -> ResidualPlan:
    """Partition the blocks by size class and eigenvalue repetition count."""
    sigma = j.order
    k_max = (sigma // m).bit_length() - 1 if sigma >= m else -1
    offsets = j.column_offsets()
    classed: dict[object, list[tuple[int, int, int]]] = {}
    for (x, s), off in zip(j.blocks, offsets):
        k = s.bit_length() - 1
        label = k if k <= k_max else "inf"
        classed.setdefault(label, []).append((x, s, off))
    buckets = []
    for k in range(k_max + 1):
        entries = classed.get(k, [])
        if not entries:
            continue
        reps: dict[int, int] = {}
        for x, _, _ in entries:
            reps[x] = reps.get(x, 0) + 1
        frequent = [e for e in entries if reps[e[0]] > m]
        rare = [e for e in entries if reps[e[0]] <= m]
        if frequent:
            buckets.append(ResidualBucket(k, "shift", frequent))
        if rare:
            buckets.append(ResidualBucket(k, "crt", rare))
    tail = classed.get("inf", [])
    if tail:
        buckets.append(ResidualBucket("inf", "crt", tail))
    return ResidualPlan(buckets)


def _group_by_eigenvalue(entries):
    """(eigenvalue, [(size, offset), ...]) in order of first appearance."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for x, s, off in entries:
        groups.setdefault(x, []).append((s, off))
    return list(groups.items())


def _column_poly(e_rows, field, off, size):
    """Columns [off, off+size) of E as one polynomial per row."""
    return [field.normalize([row[off + t] for t in range(size)]) for row in e_rows]


def _store_coeffs(out, col_polys, off, size):
    for r, e in enumerate(col_polys):
        row = out[r]
        for t in range(size):
            row[off + t] = e[t] if t < len(e) else 0


def _point_tree(field: PrimeField, pts_caps) -> SubproductTree:
    """The subproduct tree of the moduli (X - x)^s, one per (x, s)."""
    return SubproductTree(field, [field.poly_pow([(-x) % field.p, 1], s) for x, s in pts_caps])


def _shifted_remainders(field: PrimeField, f, pts_caps, tree: SubproductTree | None):
    """For each (x, s): the first s coefficients of f(X + x), batched.

    Equals f mod (X - x)^s recentered at x.  A single point needs one
    truncated Taylor shift (a plain slice when x is zero) and no tree;
    several points go down ``tree``, the subproduct tree of their moduli.
    """
    if not f:
        return [[] for _ in pts_caps]
    if len(pts_caps) == 1:
        x, s = pts_caps[0]
        if x == 0:
            return [field.poly_trunc(f, s)]
        return [field.poly_trunc(field.taylor_shift(f, x), s)]
    rems = field.multi_mod(f, tree)
    return [field.taylor_shift(rem, x) for rem, (x, _) in zip(rems, pts_caps)]


def residual_by_shifting(
    entries: list[tuple[int, int, int]],
    pmat: PolyMatrix,
    e_rows: list[list[int]],
    out: list[list[int]],
) -> None:
    """Handle a bucket by shifting P once per (frequent) eigenvalue."""
    field = pmat.field
    groups = _group_by_eigenvalue(entries)
    pts_caps = [(x, max(s for s, _ in blocks)) for x, blocks in groups]
    tree = _point_tree(field, pts_caps) if len(pts_caps) > 1 else None
    shifted = [
        [[None] * pmat.ncols for _ in range(pmat.nrows)] for _ in groups
    ]
    for r, prow in enumerate(pmat.rows):
        for c, e in enumerate(prow):
            for gi, rem in enumerate(_shifted_remainders(field, e, pts_caps, tree)):
                shifted[gi][r][c] = rem
    for gi, (x, blocks) in enumerate(groups):
        cap = pts_caps[gi][1]
        p_shift = PolyMatrix(field, shifted[gi], pmat.ncols)
        rhs = PolyMatrix(
            field,
            [list(col) for col in zip(*[_column_poly(e_rows, field, off, s) for s, off in blocks])],
        )
        prod = mat_mul(p_shift, rhs, trunc=cap)
        for jcol, (s, off) in enumerate(blocks):
            _store_coeffs(out, [prod.rows[r][jcol] for r in range(prod.nrows)], off, s)


def residual_by_crt(
    entries: list[tuple[int, int, int]],
    pmat: PolyMatrix,
    e_rows: list[list[int]],
    out: list[list[int]],
) -> None:
    """Handle a bucket by Chinese remaindering across (rare) eigenvalues.

    Slot j collects the j-th block of every eigenvalue; missing slots act as
    size-zero padding blocks and are simply skipped.  Each slot builds one
    subproduct tree of its moduli (X - x)^s: every row's residues go up it
    and every row of the product comes back down it.
    """
    field = pmat.field
    groups = _group_by_eigenvalue(entries)
    rho = max(len(blocks) for _, blocks in groups)
    slots = []
    for slot in range(rho):
        parts = [(x, blocks[slot]) for x, blocks in groups if slot < len(blocks)]
        slots.append(parts)
    rhs_cols = []
    trees = []
    for parts in slots:
        pts_caps = [(x, s) for x, (s, _) in parts]
        tree = _point_tree(field, pts_caps) if len(parts) > 1 else None
        residues = [
            [field.taylor_shift(e, (-x) % field.p) for e in _column_poly(e_rows, field, off, s)]
            for x, (s, off) in parts
        ]
        if len(parts) == 1:
            rhs_cols.append(residues[0])
        else:
            rhs_cols.append(
                [field.crt([res[r] for res in residues], tree) for r in range(len(e_rows))]
            )
        trees.append((pts_caps, tree))
    rhs = PolyMatrix(field, [list(col) for col in zip(*rhs_cols)])
    prod = mat_mul(pmat, rhs)
    for slot, (parts, (pts_caps, tree)) in enumerate(zip(slots, trees)):
        for r in range(prod.nrows):
            rems = _shifted_remainders(field, prod.rows[r][slot], pts_caps, tree)
            row = out[r]
            for (x, (s, off)), rem in zip(parts, rems):
                for t in range(s):
                    row[off + t] = rem[t] if t < len(rem) else 0


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
    """P applied to E: small blocks by the Krylov product, the tail by CRT."""
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
    for bucket in build_residual_plan(j, m).buckets:
        for entry in bucket.entries:
            fits = bucket.size_class != "inf" and entry[1] * rows <= _CHUNK_WORDS
            (small if fits else tail).append(entry)
    if not small:
        out = [[0] * sigma for _ in range(pmat.nrows)]
    else:
        small.sort(key=lambda entry: entry[2])
        out = _residual_by_krylov(small, pmat, top, e_rows, sigma).tolist()
    if tail:
        residual_by_crt(tail, pmat, e_rows, out)
    return out
