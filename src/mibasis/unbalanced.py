"""Checked products of polynomial matrices with unbalanced row degrees.

unbalanced_mul is polymat.mat_mul behind the degree-mass conditions of the
predictable-degree property (sum rdeg(a) <= xi and sum rdeg_{rdeg(a)}(b)
<= xi), which the divide-and-conquer engine relies on when it multiplies
the bases of its two halves.
"""

from __future__ import annotations

from .polymat import PolyMatrix, degree_sum, mat_mul, plain_row_degree, row_degree


def _shifted_mass(b: PolyMatrix, d_vec) -> int:
    """Sum of the finite entries of the d_vec-shifted row degrees of b."""
    return degree_sum(row_degree(row, d_vec) for row in b.rows)


def unbalanced_mul(b: PolyMatrix, a: PolyMatrix, xi: int) -> PolyMatrix:
    """Product b*a for operands whose row-degree sums are bounded by xi.

    Requires xi >= the working square dimension, sum of the finite row
    degrees of a at most xi, and the same for the rdeg(a)-shifted row
    degrees of b.  A violation signals a caller bug and raises.  The
    product itself is one polymat.mat_mul, with no splitting of high-degree
    rows: its FFT pads every entry to the longest of its operand, and it
    leaves products whose padding reaches FFT_MAX_PADDING to Kronecker
    substitution, which packs each entry at its own length.
    """
    if b.field != a.field:
        raise ValueError("field mismatch")
    if b.ncols != a.nrows:
        raise ValueError("dimension mismatch in unbalanced_mul")
    if xi < max(b.nrows, a.nrows):
        raise ValueError("xi must be at least the matrix dimension")
    d_vec = plain_row_degree(a)
    if degree_sum(d_vec) > xi:
        raise ValueError("row degree sum of the right operand exceeds xi")
    if _shifted_mass(b, d_vec) > xi:
        raise ValueError("shifted row degree sum of the left operand exceeds xi")
    return mat_mul(b, a)


def auto_xi(b: PolyMatrix, a: PolyMatrix) -> int:
    """Smallest xi satisfying the unbalanced_mul input conditions."""
    d_vec = plain_row_degree(a)
    return max(max(b.nrows, a.nrows), degree_sum(d_vec), _shifted_mass(b, d_vec))


def unbalanced_mul_auto(b: PolyMatrix, a: PolyMatrix) -> PolyMatrix:
    return unbalanced_mul(b, a, auto_xi(b, a))
