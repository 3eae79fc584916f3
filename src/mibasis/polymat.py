"""Polynomial matrices, shifts, row degrees, and reducedness predicates.

A PolyMatrix is a dense row-major grid of normalized coefficient lists over
one PrimeField.  Shifts are per-column nonnegative integer weights; row
degree vectors may contain MINUS_INF entries, which mark zero rows.
"""

from __future__ import annotations

import operator

from .field import MINUS_INF, PrimeField, digit_bytes, kron_pack, kron_unpack
from . import modmat


class PolyMatrix:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: PrimeField, rows: list[list[list[int]]], ncols: int | None = None):
        self.field = field
        self.nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        self.ncols = ncols
        for row in rows:
            if len(row) != self.ncols:
                raise ValueError("ragged polynomial matrix")
        self.rows = rows

    @classmethod
    def zeros(cls, field: PrimeField, nrows: int, ncols: int) -> "PolyMatrix":
        return cls(field, [[[] for _ in range(ncols)] for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "PolyMatrix":
        return cls(field, [[[1] if i == j else [] for j in range(n)] for i in range(n)])

    @classmethod
    def from_entries(cls, field: PrimeField, entries) -> "PolyMatrix":
        """Build from nested coefficient lists, reducing and normalizing."""
        return cls(field, [[field.poly(e) for e in row] for row in entries])

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and other.field == self.field
            and other.rows == self.rows
        )

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols} over F_{self.field.p})"

    def copy(self) -> "PolyMatrix":
        return PolyMatrix(self.field, [[e[:] for e in row] for row in self.rows], self.ncols)

    def degree(self):
        """Largest entry degree, MINUS_INF if the matrix is zero."""
        d = MINUS_INF
        for row in self.rows:
            for e in row:
                if e and len(e) - 1 > d:
                    d = len(e) - 1
        return d

    def is_zero(self) -> bool:
        return all(not e for row in self.rows for e in row)

    def submatrix(self, rows, cols) -> "PolyMatrix":
        cols = list(cols)
        return PolyMatrix(
            self.field, [[self.rows[i][j][:] for j in cols] for i in rows], len(cols)
        )

    def vstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if other.ncols != self.ncols:
            raise ValueError("column count mismatch in vstack")
        return PolyMatrix(self.field, self.rows + other.rows, self.ncols)

    def scale_columns_by_x_power(self, exps: list[int]) -> "PolyMatrix":
        """Multiply column j by X^exps[j]."""
        f = self.field
        return PolyMatrix(
            f,
            [[f.poly_shift_up(e, exps[j]) for j, e in enumerate(row)] for row in self.rows],
            self.ncols,
        )

    def divide_columns_by_x_power(self, exps: list[int]) -> "PolyMatrix":
        """Exactly divide column j by X^exps[j]."""
        out = []
        for row in self.rows:
            new = []
            for j, e in enumerate(row):
                k = exps[j]
                if e and any(c for c in e[:k]):
                    raise ValueError("column not divisible by the requested power of X")
                new.append(e[k:] if e else [])
            out.append(new)
        return PolyMatrix(self.field, out, self.ncols)


def check_shift(shift: list[int], ncols: int) -> None:
    if len(shift) != ncols:
        raise ValueError("shift length does not match column count")
    for s in shift:
        if not isinstance(s, int) or s < 0:
            raise ValueError("shift entries must be nonnegative integers")


def row_degree(row: list[list[int]], shift: list[int]):
    d = MINUS_INF
    for e, s in zip(row, shift):
        if e:
            v = len(e) - 1 + s
            if v > d:
                d = v
    return d


def shifted_row_degree(mat: PolyMatrix, shift: list[int]) -> list:
    """Per-row max of entry degree plus column shift; MINUS_INF on zero rows."""
    check_shift(shift, mat.ncols)
    return [row_degree(row, shift) for row in mat.rows]


def plain_row_degree(mat: PolyMatrix) -> list:
    return shifted_row_degree(mat, [0] * mat.ncols)


def degree_sum(degs) -> int:
    """Sum of the finite entries of a degree vector."""
    return sum(d for d in degs if d != MINUS_INF)


def leading_matrix(mat: PolyMatrix, shift: list[int]) -> list[list[int]]:
    """Coefficient of degree rdeg_i - shift_j in entry (i, j)."""
    check_shift(shift, mat.ncols)
    degs = shifted_row_degree(mat, shift)
    if any(d == MINUS_INF for d in degs):
        raise ValueError("leading matrix undefined on zero rows")
    out = []
    for row, d in zip(mat.rows, degs):
        lead = []
        for e, s in zip(row, shift):
            k = d - s
            lead.append(e[k] if 0 <= k < len(e) else 0)
        out.append(lead)
    return out


def is_reduced(mat: PolyMatrix, shift: list[int]) -> bool:
    """True when the shifted leading matrix has full row rank."""
    lm = leading_matrix(mat, shift)
    rank, _ = modmat.row_rank_profile(lm, mat.field.p)
    return rank == mat.nrows


def pivot(row: list[list[int]], shift: list[int]) -> tuple[int, int]:
    """(pivot index, pivot degree): rightmost column reaching the row degree."""
    d = row_degree(row, shift)
    if d == MINUS_INF:
        raise ValueError("zero row has no pivot")
    for j in range(len(row) - 1, -1, -1):
        e = row[j]
        if e and len(e) - 1 + shift[j] == d:
            return j, len(e) - 1
    raise AssertionError("unreachable")


def is_weak_popov(mat: PolyMatrix, shift: list[int]) -> bool:
    """True when rows are nonzero with pairwise distinct pivot indices."""
    check_shift(shift, mat.ncols)
    seen = set()
    for row in mat.rows:
        if row_degree(row, shift) == MINUS_INF:
            return False
        j, _ = pivot(row, shift)
        if j in seen:
            return False
        seen.add(j)
    return True


def is_popov(mat: PolyMatrix, shift: list[int]) -> bool:
    """Monic diagonal pivots dominating their columns in degree."""
    if mat.nrows != mat.ncols:
        raise ValueError("Popov form is defined for square matrices")
    check_shift(shift, mat.ncols)
    for i, row in enumerate(mat.rows):
        if row_degree(row, shift) == MINUS_INF:
            return False
        j, d = pivot(row, shift)
        if j != i or row[j][-1] != 1:
            return False
    for j in range(mat.ncols):
        piv_deg = len(mat.rows[j][j]) - 1
        for i in range(mat.nrows):
            if i != j and mat.rows[i][j] and len(mat.rows[i][j]) - 1 >= piv_deg:
                return False
    return True


def naive_mul(b: PolyMatrix, a: PolyMatrix) -> PolyMatrix:
    """Reference product by schoolbook inner products of entries.

    Shares no kernel with mat_mul or PrimeField.poly_mul, so that tests can
    compare them against it.
    """
    if b.field != a.field:
        raise ValueError("field mismatch")
    if b.ncols != a.nrows:
        raise ValueError("dimension mismatch in naive_mul")
    f = b.field
    out = []
    for brow in b.rows:
        orow = []
        for j in range(a.ncols):
            acc: list[int] = []
            for e, arow in zip(brow, a.rows):
                g = arow[j]
                if e and g:
                    acc += [0] * (len(e) + len(g) - 1 - len(acc))
                    for s, x in enumerate(e):
                        for t, y in enumerate(g):
                            acc[s + t] += x * y
            orow.append(f.normalize([c % f.p for c in acc]))
        out.append(orow)
    return PolyMatrix(f, out, a.ncols)


def _mat_mul_kron(b: PolyMatrix, a: PolyMatrix, trunc: int | None) -> PolyMatrix:
    """Kronecker substitution: pack each entry once, sum products as integers."""
    f = b.field
    p = f.p
    terms = int(min(b.degree(), a.degree())) + 1
    width = digit_bytes(b.ncols * terms * (p - 1) * (p - 1))
    cols = list(zip(*[[kron_pack(e, width) for e in row] for row in a.rows]))
    mask = None if trunc is None else (1 << (8 * width * max(trunc, 0))) - 1
    rows = []
    for brow in b.rows:
        packed = [kron_pack(e, width) for e in brow]
        orow = []
        for col in cols:
            acc = sum(map(operator.mul, packed, col))
            if mask is not None:
                acc &= mask
            orow.append(kron_unpack(acc, width, p))
        rows.append(orow)
    return PolyMatrix(f, rows, a.ncols)


def mat_mul(b: PolyMatrix, a: PolyMatrix, trunc: int | None = None) -> PolyMatrix:
    """Product b*a, mod X^trunc when trunc is given, by Kronecker substitution.

    Each entry is packed at its own length, so a low-degree row stays cheap
    beside a high-degree one and operands of unbalanced degrees need no
    splitting.
    """
    if b.field != a.field:
        raise ValueError("field mismatch")
    if b.ncols != a.nrows:
        raise ValueError("dimension mismatch in mat_mul")
    if b.degree() == MINUS_INF or a.degree() == MINUS_INF:
        return PolyMatrix.zeros(b.field, b.nrows, a.ncols)
    return _mat_mul_kron(b, a, trunc)
