"""Divide-and-conquer interpolation bases for Jordan multiplication matrices.

The recursion halves the column count and carries the shift down, as
PM-basis does for approximant bases: solve the left half at shift s,
propagate the surviving right-half columns of the residual, solve those at
shift t = rdeg_s(P1), and multiply.  P2*P1 is then s-reduced with
rdeg_s(P2*P1) = rdeg_t(P2) (predictable degrees), so no node re-reduces.
Column counts at or below the row count go to the linearization engine.

A node computes the residual of P1 on the right half only: on the blocks
that reach past the cut, the left columns of a straddling block included.
That the residual vanishes on the solved columns is checked on those
straddling columns at each node, and on all columns once, for the final
basis, by ``interpolation_basis``.
"""

from __future__ import annotations

from .field import PrimeField
from .jordan import JordanRep, normalize, split
from .linearization import lin_interp_basis
from .polymat import PolyMatrix, shifted_row_degree
from .residual import compute_residuals
from .unbalanced import unbalanced_mul


def _base_delta(sigma: int) -> int:
    d = 1
    while d < sigma:
        d *= 2
    return d


def _permute_cols(rows: list[list[int]], perm: list[int]) -> list[list[int]]:
    return [[row[c] for c in perm] for row in rows]


def right_residual(
    j: JordanRep, k: int, pmat: PolyMatrix, e_rows: list[list[int]]
) -> tuple[list[list[int]], list[list[int]]]:
    """P applied to E on the columns [start, k) and [k, order).

    Only the blocks reaching past column k enter: a suffix of ``j.blocks``
    covering the contiguous columns [start, order), start being the first
    column of the block that contains column k.  The rows of the first part
    are empty unless that block straddles the cut.
    """
    start = first = 0
    for _, s in j.blocks:
        if start + s > k:
            break
        start += s
        first += 1
    jr, perm = normalize(j.field, j.blocks[first:])
    res = compute_residuals(jr, pmat, _permute_cols([row[start:] for row in e_rows], perm))
    back = [0] * len(perm)
    for i, c in enumerate(perm):
        back[c] = i
    return _permute_cols(res, back[: k - start]), _permute_cols(res, back[k - start :])


def interpolation_basis_rec(
    e_rows: list[list[int]], j: JordanRep, shift: list[int], field: PrimeField
) -> PolyMatrix:
    """s-reduced interpolation basis; shifted row degree sum <= order + sum(s)."""
    m = len(e_rows)
    sigma = j.order
    if sigma <= m:
        basis, _ = lin_interp_basis(e_rows, j, shift, _base_delta(sigma), field)
        return basis
    half = sigma // 2
    j1, perm1, j2, perm2 = split(j, half)
    e1 = _permute_cols([row[:half] for row in e_rows], perm1)
    p1 = interpolation_basis_rec(e1, j1, shift, field)
    lead, right = right_residual(j, half, p1, e_rows)
    if any(any(row) for row in lead):
        raise AssertionError("residual does not vanish on the solved half")
    e2 = _permute_cols(right, perm2)
    t = [int(d) for d in shifted_row_degree(p1, shift)]
    p2 = interpolation_basis_rec(e2, j2, t, field)
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
    m = len(e_rows)
    sigma = j.order
    if m == 0:
        raise ValueError("at least one evaluation row is required")
    if field != j.field:
        raise ValueError("field does not match the Jordan matrix")
    if any(len(row) != sigma for row in e_rows):
        raise ValueError("column count of E must match the Jordan order")
    if len(shift) != m:
        raise ValueError("one shift entry per row required")
    smin = min(shift)
    basis = interpolation_basis_rec(e_rows, j, [s - smin for s in shift], field)
    if any(any(row) for row in compute_residuals(j, basis, e_rows)):
        raise AssertionError("basis does not interpolate the evaluations")
    return basis
