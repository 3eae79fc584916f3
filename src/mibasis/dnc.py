"""Divide-and-conquer interpolation bases for Jordan multiplication matrices.

The recursion halves the column count and carries the shift down, as
PM-basis does for approximant bases: solve the left half at shift s,
propagate the surviving right-half columns of the residual, solve those at
shift t = rdeg_s(P1), and multiply.  P2*P1 is then s-reduced with
rdeg_s(P2*P1) = rdeg_t(P2) (predictable degrees), so no node re-reduces.
Nodes of at most max(8m, 128) columns, m the row count, are leaves, solved
by the iterative kernel ``approx.mbasis_jordan``: one column at a time, a
constant elimination and one multiplication of the pivot row by X - x.
The halves are the leading and trailing columns with their blocks in the
order given; a block that straddles the cut splits in two.

A node computes the residual of P1 on the right half only: on the blocks
that reach past the cut, the left columns of a straddling block included.
That the residual vanishes on the solved columns is checked on those
straddling columns at each node, and on all columns once, for the final
basis, by ``interpolation_basis``.
"""

from __future__ import annotations

from .approx import mbasis_jordan
from .field import PrimeField
from .jordan import JordanRep, check_evaluations, split
from .linearization import lin_interp_basis  # noqa: F401  (perfbench's tracer wraps this name)
from .polymat import PolyMatrix, shifted_row_degree
from .residual import compute_residuals
from .unbalanced import unbalanced_mul


# A node of sigma <= max(_LEAF_PER_ROW * m, _LEAF) columns is a leaf, solved
# by the iterative kernel.  In int64 words its time per column is mostly
# numpy's per-call overhead, nearly flat in the leaf size, so larger leaves
# save nodes of the recursion; in object words (large p) it grows with the
# leaf.  128 beat 64 on every Jordan shape at p = 65537, and 256 lost to 128
# on distinct points and at large p.
_LEAF = 128
_LEAF_PER_ROW = 8


def right_residual(
    j: JordanRep, k: int, pmat: PolyMatrix, e_rows: list[list[int]]
) -> tuple[list[list[int]], list[list[int]]]:
    """P applied to E on the columns [start, k) and [k, order).

    Only the blocks reaching past column k enter: a suffix of ``j.blocks``
    covering the contiguous columns [start, order), start being the first
    column of the block that contains column k.  The rows of the first part
    are empty unless that block straddles the cut.
    """
    offsets = j.column_offsets()
    first = max(i for i, off in enumerate(offsets) if off <= k)
    start = offsets[first]
    jr = JordanRep(j.field, j.blocks[first:])
    res = compute_residuals(jr, pmat, [row[start:] for row in e_rows])
    cut = k - start
    return [row[:cut] for row in res], [row[cut:] for row in res]


def interpolation_basis_rec(
    e_rows: list[list[int]], j: JordanRep, shift: list[int], field: PrimeField
) -> PolyMatrix:
    """s-reduced interpolation basis; shifted row degree sum <= order + sum(s)."""
    m = len(e_rows)
    sigma = j.order
    if sigma <= max(_LEAF_PER_ROW * m, _LEAF):
        return mbasis_jordan(e_rows, j, shift, field)
    half = sigma // 2
    j1, j2 = split(j, half)
    p1 = interpolation_basis_rec([row[:half] for row in e_rows], j1, shift, field)
    lead, right = right_residual(j, half, p1, e_rows)
    if any(any(row) for row in lead):
        raise AssertionError("residual does not vanish on the solved half")
    t = [int(d) for d in shifted_row_degree(p1, shift)]
    p2 = interpolation_basis_rec(right, j2, t, field)
    # rdeg(P1) <= t and sum rdeg_t(P2) = sum rdeg_s(P2*P1) <= sigma + sum(s)
    return unbalanced_mul(p2, p1, sigma + sum(shift))


def interpolation_basis(
    e_rows: list[list[int]], j: JordanRep, shift: list[int], field: PrimeField
) -> PolyMatrix:
    """Shift-minimal interpolation basis for a Jordan instance.

    After normalizing the shift to minimum zero, the shifted row degree sum
    of the output is at most order + sum of the normalized shift.  The
    recursion computes each node's residual on its right half only; one full
    residual of the output, which must vanish, checks every row here, and
    AssertionError reports a basis that does not interpolate.
    """
    check_evaluations(e_rows, j)
    if field != j.field:
        raise ValueError("field does not match the Jordan matrix")
    if len(shift) != len(e_rows):
        raise ValueError("one shift entry per row required")
    smin = min(shift)
    basis = interpolation_basis_rec(e_rows, j, [s - smin for s in shift], field)
    if any(any(row) for row in compute_residuals(j, basis, e_rows)):
        raise AssertionError("basis does not interpolate the evaluations")
    return basis
