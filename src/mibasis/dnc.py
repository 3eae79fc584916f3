"""Divide-and-conquer interpolation bases for Jordan multiplication matrices.

The recursion halves the column count and carries the shift down: solve the
left half at shift s, propagate the surviving right-half columns of the
residual, solve those at shift t = rdeg_s(P1), and multiply.  P2*P1 is then
s-reduced with rdeg_s(P2*P1) = rdeg_t(P2) (predictable degrees), so no node
re-reduces.  Nodes of at most max(8m, 128) columns, m the row count, are
leaves, solved by the iterative kernel ``mbasis_jordan`` (Van Barel and
Bultheel; Beckermann and Labahn): one column at a time, a constant
elimination and one multiplication of the pivot row by X - x.  The kernel
keeps each row's residual and its coefficients as one extended Jordan row,
the coefficients acting as nilpotent blocks of eigenvalue 0, so that
multiplication is one gather through a table of shift sources and one
multiply by the eigenvalue differences.  The halves
are the leading and trailing columns with their blocks in the order given;
a block that straddles the cut splits in two.  Order bases are the case of
one nilpotent block per column, so ``approx`` runs this recursion as
PM-basis and this kernel as M-basis.

A node computes the residual of P1 on the right half only: on the blocks
that reach past the cut, the left columns of a straddling block included.
That the residual vanishes on the solved columns is checked on those
straddling columns at each node, and on all columns once, for the final
basis, by ``interpolation_basis``.

The recursion runs on arrays from entry to exit: ``interpolation_basis``
reduces E mod p once, to one int64 array (p < 2^62) that the halves slice;
residuals are int64 arrays too.  Polynomial matrices cross into and out of
arrays only through ``PolyMatrix.coefficients`` and ``from_coefficients``.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as _np

from . import modmat
from .field import PrimeField
from .jordan import JordanRep, check_evaluations, split
from .linearization import lin_interp_basis  # noqa: F401  (perfbench's tracer wraps this name)
from .polymat import PolyMatrix, normalized_shift, shifted_row_degree
from .residual import compute_residuals
from .unbalanced import unbalanced_mul


# A node of sigma <= max(_LEAF_PER_ROW * m, _LEAF) columns is a leaf, solved
# by the iterative kernel.  In int64 words its time per column is mostly
# numpy's per-call overhead, nearly flat in the leaf size, so larger leaves
# save nodes of the recursion; in object words (large p) it grows with the
# leaf.  128 beat 64 on every Jordan shape at p = 65537, and 256 lost to 128
# on distinct points and at large p.  Measured again with the gathered
# (X - x) step (mib bench --engines dnc --repeats 3, m = 4, p = 65537, two
# runs each, s for leaves of 64 / 128 / 256):
#   hermite-pade  sigma = 1024: 0.055-0.064 / 0.032 / 0.033-0.037
#                 sigma = 8192: 0.53-0.57 / 0.41-0.46 / 0.33-0.36
#   multipoint    sigma = 1024: 0.046-0.059 / 0.035-0.051 / 0.042-0.050
#                 sigma = 8192: 0.58-0.60 / 0.44-0.60 / 0.43-0.60
#   rs-list       sigma = 8190 (m = 33): 3.3-3.4 / 3.5 / 3.1-3.6
# 64 still loses; 256 wins only on one nilpotent block at sigma >= 4096.
_LEAF = 128
_LEAF_PER_ROW = 8


def mbasis_jordan(e, j: JordanRep, shift, field: PrimeField) -> PolyMatrix:
    """s-reduced basis of the interpolants of E, residues mod p, for J.

    Takes the columns of E one at a time, in block order.  At column k of a
    block of eigenvalue x, the rows of P interpolate every earlier column.
    The pivot is the row of least (shifted degree, index) whose residual is
    nonzero at k; constant multiples of it clear column k from the other
    rows, and the pivot row is multiplied by X - x.  The shifted degree of
    the pivot row rises by one, that of the others does not, so the shifted
    row degree sum exceeds sum(shift) by the number of pivots, the degree of
    det P: P is s-reduced, and every entry has degree at most the order of J.

    Row i of one work array W is one extended Jordan row: the residual of
    row i of P on columns [0, order), then the coefficients of row i of P,
    degree-major, column order + d*m + c holding the coefficient of X^d of
    entry c.  Times J is a shift by one column inside a block, and times X
    a shift by m columns, so the coefficients act as nilpotent blocks of
    eigenvalue 0 after the residual, and multiplying the pivot row R by
    X - x is one pass over the whole row: R'[c] = (eig[c] - x) R[c] +
    R[prev[c]].  The tables are built once: ``eig`` holds the block
    eigenvalues on the residual and 0 on the coefficients; ``prev`` holds
    c - 1 on the residual and c - m on the coefficients, and a sentinel,
    the index of a zero kept past the end of the reduced pivot row, at
    each block start and on the coefficients of degree 0.  So a column
    takes one rank-1 update and one gathered (X - x) update, both stopping
    at the largest degree reached so far.  A row is reduced mod p when it
    becomes the pivot; the others take at most one update of magnitude
    below (p-1)^2 per column, and the pivot product stays below p^2, so W
    holds int64 words while (p-1)^2 (order + 2) < 2^63, and object arrays
    of Python integers beyond.
    """
    p = field.p
    m, sigma = len(e), j.order
    width = sigma + m * (sigma + 1)
    dt = modmat.words(p, sigma + 2)
    w = _np.zeros((m, width), dtype=dt)
    w[:, :sigma] = _np.reshape(e, (m, sigma))
    w[range(m), range(sigma, sigma + m)] = 1
    eig = _np.zeros(width, dtype=dt)
    eig[:sigma] = _np.repeat([x for x, _ in j.blocks], [s for _, s in j.blocks])
    prev = _np.arange(-1, width - 1)
    prev[sigma:] -= m - 1
    prev[list(j.offsets)] = width
    prev[sigma : sigma + m] = width
    buf = _np.zeros(width + 1, dtype=dt)  # buf[width] stays 0
    u = list(shift)
    rowdeg = [0] * m  # a bound on the degrees of each row of P
    deg = 0
    for col, x in enumerate(eig[:sigma].tolist()):
        v = [a % p for a in w[:, col].tolist()]
        piv = -1
        for i in range(m):
            if v[i] and (piv < 0 or u[i] < u[piv]):
                piv = i
        if piv < 0:
            continue
        top = rowdeg[piv]
        for i in range(m):
            if v[i] and rowdeg[i] < top:
                rowdeg[i] = top
        rowdeg[piv] = top + 1
        if top >= deg:
            deg = top + 1
        end = sigma + (deg + 1) * m
        _np.remainder(w[piv, col:end], p, out=buf[col:end])
        r1 = buf[col + 1 : end]
        inv = pow(v[piv], -1, p)
        v[piv] = 0
        f = _np.array([a * inv % p for a in v], dtype=dt)
        w[:, col + 1 : end] -= _np.multiply.outer(f, r1)
        # the pivot row times X - x, in one pass over the extended row
        new = (eig[col + 1 : end] - x) * r1
        new += buf.take(prev[col + 1 : end])
        _np.remainder(new, p, out=w[piv, col + 1 : end])
        u[piv] += 1
    coeffs = (w[:, sigma : sigma + (deg + 1) * m] % p).reshape(m, deg + 1, m)
    return PolyMatrix.from_coefficients(field, coeffs.transpose(0, 2, 1))


def right_residual(
    j: JordanRep, k: int, pmat: PolyMatrix, e: _np.ndarray
) -> tuple[_np.ndarray, _np.ndarray]:
    """P applied to E on the columns [start, k) and [k, order).

    Only the blocks reaching past column k enter: a suffix of ``j.blocks``
    covering the contiguous columns [start, order), start being the first
    column of the block that contains column k, found by bisecting
    ``j.offsets``; the suffix is not checked again.  The first part has no
    columns unless that block straddles the cut.
    """
    first = bisect_right(j.offsets, k) - 1
    start = j.offsets[first]
    jr = JordanRep._derived(j.field, j.blocks[first:])
    res = compute_residuals(jr, pmat, e[:, start:])
    cut = k - start
    return res[:, :cut], res[:, cut:]


def interpolation_basis_rec(e, j: JordanRep, shift: list[int], field: PrimeField) -> PolyMatrix:
    """s-reduced interpolation basis; shifted row degree sum <= order + sum(s)."""
    m = len(e)
    sigma = j.order
    if sigma <= max(_LEAF_PER_ROW * m, _LEAF):
        return mbasis_jordan(e, j, shift, field)
    half = sigma // 2
    j1, j2 = split(j, half)
    p1 = interpolation_basis_rec(e[:, :half], j1, shift, field)
    lead, right = right_residual(j, half, p1, e)
    if lead.any():
        raise AssertionError("residual does not vanish on the solved half")
    t = [int(d) for d in shifted_row_degree(p1, shift)]
    p2 = interpolation_basis_rec(right, j2, t, field)
    # rdeg(P1) <= t and sum rdeg_t(P2) = sum rdeg_s(P2*P1) <= sigma + sum(s)
    return unbalanced_mul(p2, p1, sigma + sum(shift))


def interpolation_basis(e_rows, j: JordanRep, shift, field: PrimeField) -> PolyMatrix:
    """Shift-minimal interpolation basis for a Jordan instance.

    E, integers of any size, is reduced mod p here, once, and the shift,
    any integers, normalized to minimum zero; the shifted row degree sum is
    at most order + sum of that shift.  One full residual of the output,
    which must vanish, checks every row here, and AssertionError reports a
    basis that does not interpolate.  Malformed inputs raise the ValueError
    of ``check_evaluations`` and ``normalized_shift``, as in lin and oracle,
    and a dense M, which those two take, a ValueError of its own.
    """
    check_evaluations(e_rows, j, field)
    if not isinstance(j, JordanRep):
        raise ValueError("dnc requires a Jordan multiplication matrix")
    shift = normalized_shift(shift, len(e_rows))
    e = modmat.reduce(e_rows, field.p, _np.int64)
    basis = interpolation_basis_rec(e, j, shift, field)
    if compute_residuals(j, basis, e).any():
        raise AssertionError("basis does not interpolate the evaluations")
    return basis
