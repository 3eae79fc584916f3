"""Divide-and-conquer interpolation bases for Jordan multiplication matrices.

The recursion halves the column count: solve the left half, propagate the
surviving right-half columns of the residual, solve those, re-reduce the
second basis under the row degrees of the first, and multiply.  All
recursive work happens at the uniform shift; a requested shift is installed
by one final change of shift.  Columns counts at or below the row count are
handled directly by the linearization engine.
"""

from __future__ import annotations

from .field import PrimeField
from .jordan import JordanRep, split
from .linearization import lin_interp_basis
from .polymat import PolyMatrix, plain_row_degree
from .residual import compute_residuals
from .shift_change import change_shift
from .unbalanced import unbalanced_mul


def _base_delta(sigma: int) -> int:
    d = 1
    while d < sigma:
        d *= 2
    return d


def _permute_cols(rows: list[list[int]], perm: list[int]) -> list[list[int]]:
    return [[row[c] for c in perm] for row in rows]


def interpolation_basis_rec(e_rows: list[list[int]], j: JordanRep, field: PrimeField) -> PolyMatrix:
    """Uniform-shift minimal interpolation basis; row degree sum <= order."""
    m = len(e_rows)
    sigma = j.order
    if sigma <= m:
        basis, _ = lin_interp_basis(e_rows, j, [0] * m, _base_delta(sigma), field)
        return basis
    half = sigma // 2
    j1, perm1, j2, perm2 = split(j, half)
    e1 = _permute_cols([row[:half] for row in e_rows], perm1)
    p1 = interpolation_basis_rec(e1, j1, field)
    res = compute_residuals(j, p1, e_rows)
    if any(any(row[:half]) for row in res):
        raise AssertionError("residual does not vanish on the solved half")
    e2 = _permute_cols([row[half:] for row in res], perm2)
    p2 = interpolation_basis_rec(e2, j2, field)
    t = [int(d) for d in plain_row_degree(p1)]
    r2, _ = change_shift(p2, [0] * m, t)
    return unbalanced_mul(r2, p1, sigma)


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
    if any(len(row) != sigma for row in e_rows):
        raise ValueError("column count of E must match the Jordan order")
    if len(shift) != m:
        raise ValueError("one shift entry per row required")
    smin = min(shift)
    s0 = [s - smin for s in shift]
    if sigma <= m:
        basis, _ = lin_interp_basis(e_rows, j, s0, _base_delta(sigma), field)
        return basis
    basis = interpolation_basis_rec(e_rows, j, field)
    if not any(s0):
        return basis
    reduced, _ = change_shift(basis, [0] * m, s0)
    return reduced
