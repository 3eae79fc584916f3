"""Divide-and-conquer interpolation bases for Jordan multiplication matrices.

The recursion halves the column count and carries the shift down, as
PM-basis does for approximant bases: solve the left half at shift s,
propagate the surviving right-half columns of the residual, solve those at
shift t = rdeg_s(P1), and multiply.  P2*P1 is then s-reduced with
rdeg_s(P2*P1) = rdeg_t(P2) (predictable degrees), so no node re-reduces.
Column counts at or below the row count go to the linearization engine.
"""

from __future__ import annotations

from .field import PrimeField
from .jordan import JordanRep, split
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
    res = compute_residuals(j, p1, e_rows)
    if any(any(row[:half]) for row in res):
        raise AssertionError("residual does not vanish on the solved half")
    e2 = _permute_cols([row[half:] for row in res], perm2)
    t = [int(d) for d in shifted_row_degree(p1, shift)]
    p2 = interpolation_basis_rec(e2, j2, t, field)
    # rdeg(P1) <= t and sum rdeg_t(P2) = sum rdeg_s(P2*P1) <= sigma + sum(s)
    return unbalanced_mul(p2, p1, sigma + sum(shift))


def interpolation_basis(
    e_rows: list[list[int]], j: JordanRep, shift: list[int], field: PrimeField
) -> PolyMatrix:
    """Shift-minimal interpolation basis for a Jordan instance.

    After normalizing the shift to minimum zero, the shifted row degree sum
    of the output is at most order + sum of the normalized shift.
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
    return interpolation_basis_rec(e_rows, j, [s - smin for s in shift], field)
