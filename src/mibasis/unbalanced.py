"""Polynomial matrix products driven by row-degree mass, not max degree.

High-degree rows of the left operand are split into several bounded-degree
rows (partial linearization), the right operand is bucketed by row degree
into dyadic classes, and each bucket is multiplied after pruning zero rows.
The recombination of expanded rows uses powers of X^(d+1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import MINUS_INF
from .polymat import PolyMatrix, degree_sum, mat_add, mat_mul, plain_row_degree


@dataclass
class PartialLinearization:
    degree: int
    expanded: PolyMatrix
    row_map: list[list[int]]


def partial_linearize(mat: PolyMatrix, d: int) -> PartialLinearization:
    """Split each row into 1 + floor(rowdeg/(d+1)) rows of degree at most d."""
    if d < 0:
        raise ValueError("degree cap must be nonnegative")
    f = mat.field
    chunk = d + 1
    rows = []
    row_map = []
    for row in mat.rows:
        rowdeg = max((len(e) - 1 for e in row if e), default=MINUS_INF)
        pieces = 1 if rowdeg == MINUS_INF else 1 + int(rowdeg) // chunk
        ids = []
        for t in range(pieces):
            ids.append(len(rows))
            rows.append([f.normalize(e[t * chunk : (t + 1) * chunk]) for e in row])
        row_map.append(ids)
    return PartialLinearization(d, PolyMatrix(f, rows, mat.ncols), row_map)


def partial_compress(prod: PolyMatrix, lin: PartialLinearization) -> PolyMatrix:
    """Recombine expanded product rows with weights X^(t*(d+1))."""
    if prod.nrows != lin.expanded.nrows:
        raise ValueError("row count does not match the partial linearization")
    f = prod.field
    chunk = lin.degree + 1
    out = []
    for ids in lin.row_map:
        acc = [[] for _ in range(prod.ncols)]
        for t, ridx in enumerate(ids):
            shift = t * chunk
            acc = [
                f.poly_add(a, f.poly_shift_up(e, shift))
                for a, e in zip(acc, prod.rows[ridx])
            ]
        out.append(acc)
    return PolyMatrix(f, out, prod.ncols)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _shifted_mass(b: PolyMatrix, d_vec) -> int:
    """Sum of the finite entries of the d_vec-shifted row degrees of b."""
    total = 0
    for row in b.rows:
        best = MINUS_INF
        for j, e in enumerate(row):
            if e and d_vec[j] != MINUS_INF:
                v = len(e) - 1 + d_vec[j]
                if v > best:
                    best = v
        if best != MINUS_INF:
            total += int(best)
    return total


def unbalanced_mul(b: PolyMatrix, a: PolyMatrix, xi: int) -> PolyMatrix:
    """Product b*a for operands whose row-degree sums are bounded by xi.

    Requires xi >= the working square dimension, sum of the finite row
    degrees of a at most xi, and the same for the rdeg(a)-shifted row
    degrees of b.  A violation signals a caller bug and raises.
    """
    if b.field != a.field:
        raise ValueError("field mismatch")
    if b.ncols != a.nrows:
        raise ValueError("dimension mismatch in unbalanced_mul")
    f = b.field
    n = a.nrows
    m_eff = max(b.nrows, n)
    if xi < m_eff:
        raise ValueError("xi must be at least the matrix dimension")
    d_vec = plain_row_degree(a)
    if degree_sum(d_vec) > xi:
        raise ValueError("row degree sum of the right operand exceeds xi")
    if _shifted_mass(b, d_vec) > xi:
        raise ValueError("shifted row degree sum of the left operand exceeds xi")

    order = sorted(range(n), key=lambda j: (d_vec[j] != MINUS_INF, d_vec[j], j))
    a_hat = PolyMatrix(f, [a.rows[j] for j in order], a.ncols)
    b_hat = PolyMatrix(f, [[row[j] for j in order] for row in b.rows], b.ncols)
    d_sorted = [d_vec[j] for j in order]

    ell = max(1, m_eff - 1).bit_length()  # ceil(log2(m_eff)) for m_eff >= 1
    # bucket 0: m*d <= xi; bucket i: 2^(i-1)*xi < m*d <= 2^i*xi
    bounds = [xi] + [(1 << i) * xi for i in range(1, ell + 1)]
    buckets: list[list[int]] = [[] for _ in range(ell + 1)]
    for pos, d in enumerate(d_sorted):
        if d == MINUS_INF or d * m_eff <= bounds[0]:
            buckets[0].append(pos)
            continue
        for i in range(1, ell + 1):
            if d * m_eff <= bounds[i]:
                buckets[i].append(pos)
                break
        else:
            raise AssertionError("row degree escaped every bucket")

    result = PolyMatrix.zeros(f, b.nrows, a.ncols)
    for i, idxs in enumerate(buckets):
        if not idxs:
            continue
        if i >= 1 and len(idxs) * (1 << (i - 1)) >= m_eff:
            raise AssertionError("bucket holds too many rows")
        a_i = PolyMatrix(f, [a_hat.rows[pos] for pos in idxs], a.ncols)
        b_i = PolyMatrix(f, [[row[pos] for pos in idxs] for row in b_hat.rows], len(idxs))
        nonzero = [r for r in range(b_i.nrows) if any(e for e in b_i.rows[r])]
        if not nonzero:
            continue
        if i >= 1 and len(nonzero) * (1 << (i - 1)) >= m_eff:
            raise AssertionError("bucket meets too many nonzero rows")
        b_pruned = PolyMatrix(f, [b_i.rows[r] for r in nonzero], b_i.ncols)
        cap = _ceil_div((1 << i) * xi, m_eff)
        lin = partial_linearize(b_pruned, cap)
        prod = partial_compress(mat_mul(lin.expanded, a_i), lin)
        full = PolyMatrix.zeros(f, b.nrows, a.ncols)
        for r, src in zip(nonzero, prod.rows):
            full.rows[r] = src
        result = mat_add(result, full)
    return result


def auto_xi(b: PolyMatrix, a: PolyMatrix) -> int:
    """Smallest xi satisfying the unbalanced_mul input conditions."""
    d_vec = plain_row_degree(a)
    return max(max(b.nrows, a.nrows), degree_sum(d_vec), _shifted_mass(b, d_vec))


def unbalanced_mul_auto(b: PolyMatrix, a: PolyMatrix) -> PolyMatrix:
    return unbalanced_mul(b, a, auto_xi(b, a))
