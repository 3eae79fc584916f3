"""Shifted minimal nullspace bases of full-column-rank polynomial matrices.

The recursion computes an order basis at three times the average of the top
shift entries, peels off the rows that already annihilate the input exactly,
and recurses on the two column halves of the deflated residual, gluing the
results by unbalanced multiplication.
"""

from __future__ import annotations

from .approx import ApproximantInstance, pm_basis
from .field import MINUS_INF
from .polymat import PolyMatrix, row_degree, shifted_row_degree
from .unbalanced import unbalanced_mul_auto


def _check_inputs(fmat: PolyMatrix, shift: list[int]) -> None:
    if fmat.nrows < fmat.ncols or fmat.ncols < 1:
        raise ValueError("expected a tall matrix with at least one column")
    if len(shift) != fmat.nrows:
        raise ValueError("one shift entry per row required")
    if any(not isinstance(s, int) or s < 0 for s in shift):
        raise ValueError("shift entries must be nonnegative integers")
    zero = [0] * fmat.ncols
    for row, s in zip(fmat.rows, shift):
        if row_degree(row, zero) > s:
            raise ValueError("shift must bound the row degree componentwise")


def minimal_nullspace_basis(fmat: PolyMatrix, shift: list[int]):
    """Left nullspace basis N with N*F = 0, shift-reduced, and its row degrees.

    Accepts any row order and any (nonnegative) shift bounding the row
    degrees; rows are sorted internally and the output columns unsorted
    accordingly.  Raises when F is column rank deficient.
    """
    _check_inputs(fmat, shift)
    m = fmat.nrows
    order = sorted(range(m), key=lambda i: (shift[i], i))
    fs = PolyMatrix(fmat.field, [fmat.rows[i] for i in order], fmat.ncols)
    ss = [shift[i] for i in order]
    n = _mnb_sorted(fs, ss)
    inv = [0] * m
    for newpos, old in enumerate(order):
        inv[old] = newpos
    out = PolyMatrix(fmat.field, [[row[inv[j]] for j in range(m)] for row in n.rows], m)
    return out, shifted_row_degree(out, shift)


def _split_exact_rows(pbasis: PolyMatrix, fmat: PolyMatrix):
    prod = unbalanced_mul_auto(pbasis, fmat)
    zero = [i for i in range(prod.nrows) if all(not e for e in prod.rows[i])]
    other = [i for i in range(prod.nrows) if any(e for e in prod.rows[i])]
    return zero, other, prod


def _mnb_sorted(fmat: PolyMatrix, shift: list[int]) -> PolyMatrix:
    field = fmat.field
    m, n = fmat.nrows, fmat.ncols
    rho = sum(shift[m - n :])
    lam = max(1, -(-rho // n))
    order3 = 3 * lam
    truncated = PolyMatrix(
        field, [[field.poly_trunc(e, order3) for e in row] for row in fmat.rows]
    )
    pbasis = pm_basis(
        ApproximantInstance(truncated, (order3,) * n, tuple(shift))
    )
    degs = shifted_row_degree(pbasis, shift)
    row_order = sorted(range(m), key=lambda i: (degs[i], i))
    pbasis = PolyMatrix(field, [pbasis.rows[i] for i in row_order], m)
    zero, other, prod = _split_exact_rows(pbasis, fmat)
    p1 = PolyMatrix(field, [pbasis.rows[i] for i in zero], m)
    # the rows of an order basis are independent: more than m - n of them
    # with P*F = 0 span a nullspace of rank above m - n, so rank F < n
    if p1.nrows > m - n:
        raise ValueError("input matrix is column rank deficient")
    if n == 1:
        if p1.nrows != m - 1:
            raise ValueError("input matrix is column rank deficient")
        return p1
    p2 = PolyMatrix(field, [pbasis.rows[i] for i in other], m)
    if 2 * p2.nrows > 3 * n:
        raise AssertionError("order basis keeps an unexpected number of rows")
    t_shift = [
        int(d) - order3 for d in shifted_row_degree(p2, shift)
    ]
    if any(t < 0 for t in t_shift):
        raise AssertionError("unexpected shift drop below the order")
    g = PolyMatrix(
        field,
        [[field.normalize(e[order3:]) for e in prod.rows[i]] for i in other],
    )
    half = n // 2
    g1 = PolyMatrix(field, [row[:half] for row in g.rows], half)
    g2 = PolyMatrix(field, [row[half:] for row in g.rows], n - half)
    n1, u = minimal_nullspace_basis(g1, t_shift)
    h = unbalanced_mul_auto(n1, g2)
    n2, _ = minimal_nullspace_basis(h, [int(d) if d != MINUS_INF else 0 for d in u])
    if n2.nrows != n1.nrows - (n - half):
        raise AssertionError("second nullspace basis has the wrong row count")
    low = unbalanced_mul_auto(unbalanced_mul_auto(n2, n1), p2)
    out = p1.vstack(low)
    if out.nrows != m - n:
        raise ValueError("input matrix is column rank deficient")
    return out
