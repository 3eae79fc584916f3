"""Polynomial matrices, shifts, row degrees, and reducedness predicates.

A PolyMatrix is a dense row-major grid of normalized coefficient lists over
one PrimeField; arrays enter and leave it only through ``coefficients`` and
``from_coefficients``.  Shifts are per-column integer weights, of any sign
for the row degrees and the reducedness predicates, which depend on them
only up to an added constant, and nonnegative for the order bases, which
scale columns by X^s (``check_shift``); row degree vectors may contain
MINUS_INF entries, which mark zero rows.
"""

from __future__ import annotations

import math
import operator

import numpy as _np

from .field import MINUS_INF, PrimeField, digit_bytes, kron_pack, kron_unpack
from . import modmat

_EPS = 2.0 ** -53  # unit round-off of float64

# mat_mul leaves a product to Kronecker substitution once padding every
# entry to the longest of its operand makes the operands this many times
# their stored coefficients.  Replayed products of dnc, change_shift and
# nullspace solves (p = 65537 and 2^61 - 1, sigma 256 and 1024) put the FFT
# kernel up to 11x behind Kronecker at padding 31 (nullspace bases whose
# row degrees run from 0 to sigma); the products of dnc on the benchmark
# shapes stay below padding 3.
FFT_MAX_PADDING = 4


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

    @classmethod
    def from_coefficients(cls, field: PrimeField, coeffs: _np.ndarray) -> "PolyMatrix":
        """From a (rows, cols, length) int64 or object array of residues mod p."""
        nonzero = coeffs != 0
        last = coeffs.shape[-1] - _np.argmax(nonzero[..., ::-1], -1)
        lengths = _np.where(nonzero.any(-1), last, 0)
        pairs = zip(coeffs.tolist(), lengths.tolist())
        return cls(field, [[e[:k] for e, k in zip(row, ks)] for row, ks in pairs], coeffs.shape[1])

    def coefficients(self, length: int) -> _np.ndarray:
        """The (rows, cols, length) int64 array of the entries, cut or zero-padded."""
        out = _np.zeros((self.nrows, self.ncols, length), dtype=_np.int64)
        for i, row in enumerate(self.rows):
            for k, e in enumerate(row):
                out[i, k, : len(e)] = e[:length]
        return out

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and other.field == self.field
            and other.rows == self.rows
        )

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols} over F_{self.field.p})"

    def degree(self):
        """Largest entry degree, MINUS_INF if the matrix is zero."""
        d = MINUS_INF
        for row in self.rows:
            for e in row:
                if e and len(e) - 1 > d:
                    d = len(e) - 1
        return d

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


def _integers(shift, ncols: int) -> list[int]:
    """The shift as Python ints; ValueError unless ncols integers."""
    if len(shift) != ncols:
        raise ValueError(f"the shift needs {ncols} entries")
    try:
        return [operator.index(s) for s in shift]
    except TypeError:
        raise ValueError("shift entries must be integers") from None


def normalized_shift(shift, ncols: int) -> list[int]:
    """The shift as Python ints less their minimum, as the engines take it:
    s-Popov forms and s-reduced degrees do not change when a constant is
    added to s.  ValueError unless ncols integers."""
    shift = _integers(shift, ncols)
    low = min(shift, default=0)
    return [s - low for s in shift]


def check_shift(shift, ncols: int) -> list[int]:
    """The shift as Python ints; ValueError unless ncols nonnegative integers.
    For the order bases, which scale columns by X^s."""
    shift = _integers(shift, ncols)
    if any(s < 0 for s in shift):
        raise ValueError("shift entries must be nonnegative integers")
    return shift


def row_degree(row: list[list[int]], shift: list[int]):
    d = MINUS_INF
    for e, s in zip(row, shift):
        if e:
            v = len(e) - 1 + s
            if v > d:
                d = v
    return d


def shifted_row_degree(mat: PolyMatrix, shift: list[int]) -> list:
    """Per-row max of entry degree plus column shift, any integers;
    MINUS_INF on zero rows."""
    shift = _integers(shift, mat.ncols)
    return [row_degree(row, shift) for row in mat.rows]


def plain_row_degree(mat: PolyMatrix) -> list:
    return shifted_row_degree(mat, [0] * mat.ncols)


def degree_sum(degs) -> int:
    """Sum of the finite entries of a degree vector."""
    return sum(d for d in degs if d != MINUS_INF)


def leading_matrix(mat: PolyMatrix, shift: list[int]) -> list[list[int]]:
    """Coefficient of degree rdeg_i - shift_j in entry (i, j)."""
    shift = _integers(shift, mat.ncols)
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
    shift = _integers(shift, mat.ncols)
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
    shift = _integers(shift, mat.ncols)
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


def _mat_mul_kron(b: PolyMatrix, a: PolyMatrix) -> PolyMatrix:
    """Kronecker substitution: pack each entry once, sum products as integers."""
    f = b.field
    p = f.p
    terms = int(min(b.degree(), a.degree())) + 1
    width = digit_bytes(b.ncols * terms * (p - 1) * (p - 1))
    cols = list(zip(*[[kron_pack(e, width) for e in row] for row in a.rows]))
    rows = []
    for brow in b.rows:
        packed = [kron_pack(e, width) for e in brow]
        rows.append([kron_unpack(sum(map(operator.mul, packed, col)), width, p) for col in cols])
    return PolyMatrix(f, rows, a.ncols)


def fft_limbs(p: int, inner: int, shorter: int, length: int) -> tuple[int, int] | None:
    """(width, count): the fewest limbs that make the float64 FFT product
    exact, or None.

    Coefficients in [0, p) split into `count` unsigned limbs of `width`
    bits, so every limb is at most B = 2^width - 1.  A product sums
    q = inner * count limb convolutions per output (inner products, and up
    to `count` limb pairs of the same weight) in the frequency domain,
    between rfft and irfft of `length` = 2^n points.  Each convolution of x
    and y, the shorter of length `shorter`, so that |x|_2 |y|_2 <=
    B^2 sqrt(shorter * length), has round-off below

        |x|_2 |y|_2 ((1+e)^(3n) (1+e sqrt 5)^(3n+1) (1+b)^(3n) - 1)

    with e = 2^-53 and b the error of the twiddle factors (the bound of
    Percival, "Rapid multiplication modulo the sum and difference of highly
    composite numbers", Math. Comp. 2003, for radix-2 transforms; numpy's
    pocketfft is taken to meet it, and the kernel checks the outcome).
    Taking b = e, and a factor (1+e)^q for the q-term sums of the spectra,
    every output is within

        bound = q B^2 sqrt(shorter * length) ((1+e)^(6n+q) (1+e sqrt 5)^(3n+1) - 1)

    of its integer value.  A regime is admitted when bound < 1/4, well
    inside the 1/2 at which rounding stays exact, so that the kernel's check
    that every output lies within 1/4 of an integer never fires.  The exact
    sums stay below 2^51, where float64 holds every integer.
    """
    n = max(length - 1, 0).bit_length()
    bits = (p - 1).bit_length()
    for count in range(1, bits + 1):
        width = -(-bits // count)
        q = inner * count
        growth = math.expm1(
            (6 * n + q) * math.log1p(_EPS) + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5))
        )
        bound = q * ((1 << width) - 1) ** 2 * math.sqrt(shorter * length) * growth
        if bound < 0.25:
            return width, count
    return None


def _limb_spectra(coeffs: _np.ndarray, n: int, width: int, count: int) -> _np.ndarray:
    """rfft over n points of every limb of every entry of a coefficient
    array (rows, cols, length): an array (count, rows, cols, n // 2 + 1)."""
    shifts = _np.arange(0, width * count, width).reshape(-1, 1, 1, 1)
    parts = (coeffs >> shifts) & ((1 << width) - 1)
    return _np.fft.rfft(parts.astype(_np.float64), n, axis=-1)


def _shift_add_mod(acc: _np.ndarray, d: _np.ndarray, width: int, p: int) -> _np.ndarray:
    """(acc * 2^width + d) mod p for int64 arrays with entries in [0, p).

    Exact in int64 words while (p-1)(2^width + 1) < 2^63.  Beyond, for any
    p < 2^62 and width <= 50: the quotient q of acc * 2^width by p comes
    from float64, off by at most one as its relative error is a few units of
    2^-53, and acc * 2^width - q p, taken modulo 2^64 in uint64 words, lies
    in [-p, 2p), which int64 holds.
    """
    if (p - 1) * ((1 << width) + 1) < 1 << 63:
        return ((acc << width) + d) % p
    q = (acc * ((1 << width) / p)).astype(_np.uint64)
    r = (acc.astype(_np.uint64) * _np.uint64(1 << width) - q * _np.uint64(p)).view(_np.int64)
    r += _np.where(r < 0, p, _np.where(r >= p, -p, 0)) + d
    return r - _np.where(r >= p, p, 0)


def _weight_spectra(b: PolyMatrix, a: PolyMatrix, lb: int, la: int, n: int, width: int, count: int):
    """Spectra of the entries of b*a, one per limb weight 2^(width * w),
    w < 2 count - 1: the limb pairs (u, v) with u + v = w add up before the
    inverse transform.  An array (2 count - 1, rows, cols, n // 2 + 1)."""
    spec_b = _limb_spectra(b.coefficients(lb), n, width, count)
    spec_a = _limb_spectra(a.coefficients(la), n, width, count)
    sums = _np.zeros((2 * count - 1, b.nrows, a.ncols, n // 2 + 1), dtype=spec_b.dtype)
    for u in range(count):
        sums[u : u + count] += _np.einsum("ikf,vkjf->vijf", spec_b[u], spec_a)
    return sums


def _mat_mul_fft(b: PolyMatrix, a: PolyMatrix, lb: int, la: int, n: int, width: int, count: int):
    """b*a, the entries of b and a of at most lb and la coefficients, by one
    batched float64 FFT of their limbs over n points (see fft_limbs).
    The limb sums are transformed back, rounded and recombined mod p one
    weight at a time, highest first, so only one weight is held in float64."""
    p = b.field.p
    out = None
    for sums in _weight_spectra(b, a, lb, la, n, width, count)[::-1]:
        vals = _np.fft.irfft(sums, n, axis=-1)[..., : lb + la - 1]
        digits = _np.rint(vals)
        if _np.abs(vals - digits).max() > 0.25:
            raise ArithmeticError("FFT product exceeded its certified round-off")
        d = digits.astype(_np.int64) % p
        out = d if out is None else _shift_add_mod(out, d, width, p)
    return PolyMatrix.from_coefficients(b.field, out)


def _stored(rows) -> int:
    """Coefficients of the entries of `rows`."""
    return sum(len(e) for row in rows for e in row)


def mat_mul(b: PolyMatrix, a: PolyMatrix) -> PolyMatrix:
    """Product b*a.

    One batched float64 FFT over n points, n the power of two at or above
    the product length: every entry is padded to the longest entry of its
    operand and transformed once per limb, the inner products run as one
    einsum over the n/2 + 1 frequencies, and each output entry is
    transformed back once per limb weight.  With L limbs, the cost
    is L (rows*inner + inner*cols) + (2L - 1) rows*cols real transforms of
    n points and L^2 rows*inner*cols*(n/2 + 1) complex products, whatever
    the degrees of the shorter entries: a low-degree row costs as much as
    the longest one.  fft_limbs chooses L from p, the inner dimension and
    the lengths.  Kronecker substitution, which packs each entry at its own
    length, takes the products where fft_limbs certifies no limbs and those
    whose padded operands hold FFT_MAX_PADDING times their coefficients or
    more.
    """
    if b.field != a.field:
        raise ValueError("field mismatch")
    if b.ncols != a.nrows:
        raise ValueError("dimension mismatch in mat_mul")
    db, da = b.degree(), a.degree()
    if db == MINUS_INF or da == MINUS_INF:
        return PolyMatrix.zeros(b.field, b.nrows, a.ncols)
    lb, la = int(db) + 1, int(da) + 1
    padded = b.nrows * b.ncols * lb + a.nrows * a.ncols * la
    if padded >= FFT_MAX_PADDING * (_stored(b.rows) + _stored(a.rows)):
        return _mat_mul_kron(b, a)
    n = 1 << (lb + la - 2).bit_length()
    limbs = fft_limbs(b.field.p, b.ncols, min(lb, la), n)
    if limbs is None:
        return _mat_mul_kron(b, a)
    return _mat_mul_fft(b, a, lb, la, n, *limbs)
