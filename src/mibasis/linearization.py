"""Interpolation bases through linearization over the scalar field.

Interpolants of degree at most delta correspond to linear relations among
the rows of a striped Krylov matrix (the stack of E, E*M, ..., E*M^delta),
with rows permuted so that relations found among early rows have small
shifted row degree: row c of E*M^d sorts by s_c + d, then by c.  The
engine computes the row rank profile of that matrix by eliminations that
take its rows in that order, in windows of doubling width: with a uniform
shift the first takes the 2m rows of E and E*M, the next the rows of
degrees 2 and 3, then 4..7, and delta = 1 is one elimination of E.  A
column that dropped a row has only dependent rows left, so only the live
columns get rows; they come from each column's last kept row by one
product by M per degree, of at most m rows.  Squaring M (Keller-Gehrig)
would cost a sigma x sigma product per step, which numpy's cubic products
never repay.  Every window follows the kept rows, so every elimination
after the first resumes from their reduced form and takes only the new
rows.  The loop holds one row per column, its last kept row, and one
product by M takes those rows to the target rows.  Each elimination also
carries T, the transform of the profile rows C to their reduced form
R = T C, so the relations X C = D, D the targets, take no elimination: one
product checks D = D[:, pivots] R, and X = D[:, pivots] T gives the unique
interpolation basis in shifted Popov form.

Works for an arbitrary dense multiplication matrix; a Jordan representation
enables the fast blockwise row updates.

The engine runs on numpy arrays from entry to exit.  `krylov_rank_profile`
checks its inputs once and converts E, reduced mod p, into the int64 (or
object) words of `modmat`, and a dense M, reduced mod p, into the dtype of
its products.  The Krylov rows, the target rows and the relations stay
arrays; lists appear again only when the PolyMatrix is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as _np

from . import jordan as _jordan
from . import modmat
from .field import PrimeField
from .polymat import PolyMatrix, normalized_shift


@dataclass
class RankProfile:
    """The profile rows as (column, degree) pairs in priority order, with
    `reduced` = (pivot_cols, R, T) of their elimination by `modmat.rref`:
    R = T C for the profile rows C, and `targets`, whose row c is row c of
    E*M^d_c, d_c the count of profile rows of column c."""

    rank: int
    decoded: list[tuple[int, int]]
    targets: _np.ndarray
    reduced: tuple


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _validate_delta(delta: int, sigma: int) -> None:
    if not _is_pow2(delta) or delta > max(2 * sigma - 1, 1):
        raise ValueError("delta must be a power of two in {1, ..., max(2*sigma-1, 1)}")


def _operands(e_rows, mulmat, shift, field: PrimeField):
    """The inputs of `krylov_rank_profile`, checked: E, a list of rows or an
    array, reduced mod p in modmat's words, a dense M reduced mod p in the
    dtype of its products (so that no product converts it again), and the
    normalized shift."""
    _jordan.check_evaluations(e_rows, mulmat, field)
    shift = normalized_shift(shift, len(e_rows))
    p = field.p
    sigma = len(e_rows[0])
    e = modmat.reduce(e_rows, p, modmat.words(p, sigma))
    if not isinstance(mulmat, _jordan.JordanRep):
        mulmat = modmat.reduce(mulmat, p, modmat._dtype_for(p, sigma))
    return e, mulmat, shift


def _times_m(rows, mulmat, p):
    """rows * M, by the blockwise update of a Jordan M or a dense product."""
    if isinstance(mulmat, _jordan.JordanRep):
        return _jordan.act_power(rows, mulmat, 1)
    return modmat.mat_mul(rows, mulmat, p)


def _window_rows(tops, kept, window, mulmat, p):
    """The rows of degrees kept[c]..hi-1 of column c, for each (c, hi) of
    window, with their (column, degree) pairs; tops is only read.

    Each column starts from tops[c], its row of degree max(kept[c]-1, 0):
    its last kept row, or E's row when it kept none, which is then new.
    One product by M per degree takes the rows on; with the columns in
    order of the products they need, most first, each product takes a
    prefix of the rows, and level k holds each column's row of degree
    max(kept[c]-1, 0) + k."""
    need = {c: hi - max(kept[c], 1) for c, hi in window}
    cols = sorted(need, key=need.get, reverse=True)
    base = [max(kept[c] - 1, 0) for c in cols]
    level = tops.take(cols, 0)
    fresh = [i for i, c in enumerate(cols) if not kept[c]]
    pairs = [(cols[i], 0) for i in fresh]
    blocks = [level.take(fresh, 0)]
    n = len(cols)
    for k in range(1, need[cols[0]] + 1):
        while need[cols[n - 1]] < k:
            n -= 1
        level = _times_m(level[:n], mulmat, p)
        blocks.append(level)
        pairs += [(c, b + k) for c, b in zip(cols[:n], base)]
    return pairs, _np.concatenate(blocks)


def krylov_rank_profile(
    e_rows,
    mulmat,
    shift: list[int],
    delta: int,
    field: PrimeField,
) -> RankProfile:
    """Row rank profile of the shifted striped Krylov matrix in degree delta.

    delta must be a power of two bounding the degree of the minimal
    polynomial of the multiplication matrix; the rows have degrees below
    delta.  Row (c, d), row c of E*M^d, has the key s_c + d, and
    `modmat.rref` takes the rows by key, ties by column, in windows.  A row
    that depends on earlier rows in degree d still does in degree d + 1,
    as the key order is compatible with multiplication by M, so the kept
    rows of column c are its degrees 0..kept_c - 1, and once c drops a row
    it gets no more: only a live column, one that has dropped none and has
    rows below delta, takes part.  Each elimination takes every row of a
    live column with key in [start, end), where start is the least s_c +
    kept_c and end the least s_c + 2 max(kept_c, 1) over the live columns:
    no live column has a row below start left, so every window follows the
    kept rows, and `modmat.rref` resumes from their reduced rows and their
    transform and eliminates only the new rows.  A uniform shift gives the
    windows [0, 2), [2, 4), [4, 8), ..., so delta = 1 is one elimination of
    E and delta > 1 takes at most log2(delta) eliminations; no column gets
    more than max(2, kept_c) rows in one.  The loop stops at rank sigma or
    when no column is live.

    The new rows come from each live column's last kept row by one
    product by M per degree (`_window_rows`); for a dense M these cost
    about one sigma^3 product per solve, where squaring M costs one per
    doubling and pays only with a product exponent omega < 3.  The loop
    holds one row per column, its last kept row or E's row while it has
    kept none, written where a pivot is kept; one more product by M takes
    those rows to the targets, row c of E*M^kept_c.

    E, a dense M and the shift are converted and checked here, on every
    call.
    """
    p = field.p
    e, mulmat, shift = _operands(e_rows, mulmat, shift, field)
    m, sigma = e.shape
    _validate_delta(delta, sigma)

    kept = [0] * m  # column c has kept its rows of degrees 0..kept[c]-1
    dropped = [False] * m
    tops = e.copy()  # row c: column c's row of degree max(kept[c]-1, 0)
    pairs, reduced = [], None
    while len(pairs) < sigma:
        live = [c for c in range(m) if not dropped[c] and kept[c] < delta]
        if not live:
            break
        start = min(shift[c] + kept[c] for c in live)
        end = min(shift[c] + 2 * max(kept[c], 1) for c in live)
        window = [(c, min(end - shift[c], delta)) for c in live if shift[c] + kept[c] < end]
        new_pairs, new_rows = _window_rows(tops, kept, window, mulmat, p)
        keys = [shift[c] + d - start for c, d in new_pairs]
        order = _np.lexsort(([c for c, _ in new_pairs], keys)).tolist()
        rows = new_rows.take(order, 0)
        pivrows, *reduced = modmat.rref(rows, p, reduced, transform=True)
        for i in pivrows:
            c, d = new_pairs[order[i]]
            pairs.append((c, d))
            kept[c] += 1
            tops[c] = rows[i]
        for c, hi in window:
            dropped[c] = kept[c] < hi
    if reduced is None:  # no elimination: rank 0
        reduced = ([], e[:0], e[:0, :0])
    # the targets: row c of E*M^kept[c]
    cs = [c for c in range(m) if kept[c]]
    if cs:
        tops[cs] = _times_m(tops.take(cs, 0), mulmat, p)
    return RankProfile(len(pairs), pairs, tops, tuple(reduced))


def minimal_degree(profile: RankProfile, m: int) -> list[int]:
    """Per column, one plus the largest profile degree seen for it."""
    out = [0] * m
    for c, d in profile.decoded:
        if d + 1 > out[c]:
            out[c] = d + 1
    return out


def _assemble_popov(field, mindeg, decoded, relation):
    """Row c: X^mindeg[c] e_c minus the relation's row c over the monomials X^d e_k."""
    m = len(mindeg)
    coeffs = _np.zeros((m, m, max(mindeg) + 1), dtype=relation.dtype)
    coeffs[:, [k for k, _ in decoded], [d for _, d in decoded]] = -relation % field.p
    coeffs[range(m), range(m), mindeg] = 1
    return PolyMatrix.from_coefficients(field, coeffs)


def lin_interp_basis(
    e_rows,
    mulmat,
    shift: list[int],
    delta: int,
    field: PrimeField,
) -> tuple[PolyMatrix, list[int]]:
    """Unique interpolation basis in shifted Popov form, plus its pivot degrees.

    Every output row r satisfies sum_c r_c acting on row c of E equal zero;
    the diagonal degrees are the minimal degrees of the instance and the sum
    of the output column degrees is at most the column count of E.  Raises
    ValueError when a target row is not in the span of the profile rows,
    as when delta does not bound the degree of M's minimal polynomial.
    E may hold integers of any size and the shift any integers, as in dnc
    and the oracle, with the same domain errors.
    """
    p = field.p
    profile = krylov_rank_profile(e_rows, mulmat, shift, delta, field)
    targets = profile.targets
    mindeg = minimal_degree(profile, len(targets))
    pivcols, red, transform = profile.reduced
    coords = targets[:, pivcols]
    if not _np.array_equal(modmat.mat_mul(coords, red, p), targets):
        raise ValueError("a target row is not in the span of the profile rows")
    relation = modmat.mat_mul(coords, transform, p)
    basis = _assemble_popov(field, mindeg, profile.decoded, relation)
    return basis, mindeg
