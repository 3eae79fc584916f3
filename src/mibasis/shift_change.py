"""Re-reduce an already-reduced polynomial matrix under an augmented shift.

Given P reduced for shift s, an (s+t)-reduced form R of P falls out of one
minimal nullspace computation: stack P with its columns scaled by X^s over
a negated identity, take a minimal left nullspace basis under the shift
(rdeg_s(P), t), and read off the unimodular transformation and R.
"""

from __future__ import annotations

from .field import MINUS_INF
from .nullspace import minimal_nullspace_basis
from .polymat import PolyMatrix, check_shift, is_reduced, shifted_row_degree


def change_shift(pmat: PolyMatrix, shift: list[int], extra: list[int]):
    """(R, U) with U*P = R unimodularly and R reduced for shift s+t."""
    if pmat.nrows != pmat.ncols:
        raise ValueError("change_shift expects a square matrix")
    m = pmat.nrows
    shift = check_shift(shift, m)
    extra = check_shift(extra, m)
    degs = shifted_row_degree(pmat, shift)
    if any(d == MINUS_INF for d in degs) or not is_reduced(pmat, shift):
        raise ValueError("input matrix must be reduced for the given shift")
    field = pmat.field
    scaled = pmat.scale_columns_by_x_power(shift)
    neg_ident = PolyMatrix(
        field,
        [[[field.p - 1] if i == j else [] for j in range(m)] for i in range(m)],
    )
    stacked = scaled.vstack(neg_ident)
    combined_shift = [int(d) for d in degs] + extra
    basis, _ = minimal_nullspace_basis(stacked, combined_shift)
    if basis.nrows != m:
        raise ValueError("nullspace dimension mismatch (rank-deficient input?)")
    u = basis.submatrix(range(m), range(m))
    r_scaled = basis.submatrix(range(m), range(m, 2 * m))
    r = r_scaled.divide_columns_by_x_power(shift)
    return r, u
