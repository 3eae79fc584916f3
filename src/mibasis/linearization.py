"""Interpolation bases through linearization over the scalar field.

Interpolants of degree at most delta correspond to linear relations among
the rows of a striped Krylov matrix (the stack of E, E*M, ..., E*M^delta),
with rows permuted so that relations found among early rows have small
shifted row degree.  The engine computes the row rank profile of that
matrix by degree doubling: the first elimination takes the 2m rows of E and
E*M, and delta = 1 is one elimination of E.  Each later step adds the
rows of degree step..2*step-1 of the live columns, those that kept every
row so far, by `step` products of at most m rows by a dense M; squaring M
would cost a sigma x sigma product per step, which numpy's cubic products
never repay.  A step whose kept rows' images all sort after the kept rows
resumes from their reduced form and eliminates only the new rows; the
doubling stops early once the kept rows span F^sigma and the next step's
rows would all follow them.  One product by M takes the last profile row of
each column to its target row.  Each elimination also carries T, the
transform of the profile rows C to their reduced form R = T C, so the
relations X C = D, D the targets, take no elimination: one product checks
D = D[:, pivots] R, and X = D[:, pivots] T gives the unique interpolation
basis in shifted Popov form.

Works for an arbitrary dense multiplication matrix; a Jordan representation
enables the fast blockwise row updates.

The engine runs on numpy arrays from entry to exit.  E is converted once,
reduced mod p, into the int64 (or object) words of `modmat`; a dense M is
converted once, reduced mod p, into the dtype of its products.  The Krylov
rows, the target rows and the relations stay arrays; lists appear again
only when the PolyMatrix is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as _np

from . import jordan as _jordan
from . import modmat
from .field import PrimeField
from .polymat import PolyMatrix, normalized_shift


def priority_index(shift: list[int], delta: int, c: int, d: int) -> int:
    """Position of row c of E*M^d in the striped Krylov matrix of degree delta.

    Rows (k, d') with d' <= delta are ranked by the priority shift[k] + d',
    ties broken by ascending k; for a fixed c the rank is strictly increasing
    in d.  Each k contributes the number of its degrees ranked before (c, d).
    """
    t = shift[c] + d
    return sum(min(max(t - s + (k < c), 0), delta + 1) for k, s in enumerate(shift))


@dataclass
class RankProfile:
    """The profile rows, as (column, degree) pairs and as rows of the Krylov
    matrix, with `reduced` = (pivot_cols, R, T) of their elimination by
    `modmat.rref`: R = T pivot_rows is their reduced form.  `shift` and
    `delta` are those of the striped Krylov matrix."""

    rank: int
    decoded: list[tuple[int, int]]
    pivot_rows: _np.ndarray
    reduced: tuple
    shift: list[int]
    delta: int

    @cached_property
    def row_indices(self) -> list[int]:
        """The profile rows' indices in the degree-delta row ordering,
        computed on first read: no engine needs them."""
        return [priority_index(self.shift, self.delta, c, d) for c, d in self.decoded]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _validate_delta(delta: int, sigma: int) -> None:
    if not _is_pow2(delta) or delta > max(2 * sigma - 1, 1):
        raise ValueError("delta must be a power of two in {1, ..., max(2*sigma-1, 1)}")


def _operands(e_rows, mulmat, shift, field: PrimeField):
    """The checked inputs: E reduced mod p in modmat's words, a dense M
    reduced mod p in the dtype of its products (so that no product converts
    it again), and the normalized shift."""
    _jordan.check_evaluations(e_rows, mulmat, field)
    shift = normalized_shift(shift, len(e_rows))
    p = field.p
    sigma = len(e_rows[0])
    e = modmat.reduce(e_rows, p, modmat.words(p, sigma))
    if not isinstance(mulmat, _jordan.JordanRep):
        mulmat = modmat.reduce(mulmat, p, modmat._dtype_for(p, sigma))
    return e, mulmat, shift


def _live_rows(pairs, rows, mulmat, step, p):
    """The rows of degrees step..2*step-1 of the live columns, those whose
    kept rows (pairs, rows) have the degrees 0..step-1, with their pairs."""
    top = [i for i, (_, d) in enumerate(pairs) if d == step - 1]
    if not top:
        return [], rows[:0]
    if isinstance(mulmat, _jordan.JordanRep):
        live = {pairs[i][0] for i in top}
        at = [i for i, (c, _) in enumerate(pairs) if c in live]
        new_pairs = [(pairs[i][0], pairs[i][1] + step) for i in at]
        return new_pairs, _jordan.act_power(rows.take(at, 0), mulmat, step)
    blocks = [rows.take(top, 0)]
    for _ in range(step):
        blocks.append(modmat.mat_mul(blocks[-1], mulmat, p))
    new_pairs = [(pairs[i][0], d) for d in range(step, 2 * step) for i in top]
    return new_pairs, _np.concatenate(blocks[1:])


def krylov_rank_profile(
    e_rows,
    mulmat,
    shift: list[int],
    delta: int,
    field: PrimeField,
) -> RankProfile:
    """Row rank profile of the shifted striped Krylov matrix in degree delta.

    delta must be a power of two bounding the degree of the minimal
    polynomial of the multiplication matrix.  The loop starts from all rows
    of E in priority order; each doubling step merges the kept rows with
    new rows and eliminates once, so delta = 1 is one elimination of E and
    delta > 1 takes at most log2(delta) eliminations.  A row that depends
    on earlier rows in degree d still does in degree d + 1, as the priority
    order is compatible with multiplication by M, so the kept rows of
    column c are its degrees 0..d_c.  Only a live column, d_c = step - 1,
    gets new rows: those of degrees step..2*step-1.  A dense M makes them
    by `step` products of at most m rows by M, which cost about one sigma^3
    product per solve; squaring M (Keller-Gehrig) costs one per step and
    pays only with a product exponent omega < 3, not with numpy's cubic
    products.  A Jordan M takes the live columns' kept rows to their images
    under M^step by one `jordan.act_power`.

    When every kept row's image (c, d + step) sorts after every kept row,
    as it always does for a uniform shift, the kept rows are a prefix of
    the merged stack.  They are independent and their reduced rows and
    their transform are known from the previous elimination, so
    `modmat.rref` resumes from those and eliminates only the new rows; the
    result is the elimination of the whole stack.  Otherwise the merged
    stack is eliminated from scratch.  The rule reads the finished
    columns' images too, which are never made, so it restarts in some
    cases where the new rows alone would allow a resume.
    Once the kept rows have rank sigma and the next step's rows all sort
    after them, doubling stops and the profile is final.  After the step
    by M^(D/2), the live columns have kept all their degrees below D, and
    every other column c has dropped its row (c, d_c + 1).  A row (c, d)
    with d >= D either lies past such a dropped row, so it depends on
    earlier rows, or has d_c = D - 1 and sorts no earlier than the next
    step's row (c, D), so it follows rows spanning F^sigma and is
    dependent as well.

    `row_indices` refer to the degree-delta row ordering.  E, a dense M and
    the shift are checked and converted here, unless E is an array, as
    lin_interp_basis passes its own checked and converted inputs.
    """
    p = field.p
    e = e_rows
    if not isinstance(e, _np.ndarray):
        e, mulmat, shift = _operands(e, mulmat, shift, field)
    m, sigma = e.shape
    _validate_delta(delta, sigma)

    def key(cd):
        return (shift[cd[0]] + cd[1], cd[0])

    def images_follow(pairs, step):
        # every kept row's image under M^step sorts after the last kept row
        return min(key((c, d + step)) for c, d in pairs) > key(pairs[-1])

    pairs = [(c, 0) for c in sorted(range(m), key=lambda c: (shift[c], c))]
    rows = e.take([c for c, _ in pairs], 0)
    reduced = None  # (pivot columns, reduced rows, transform) of the kept rows
    step = 1
    while True:
        if step < delta:
            if reduced is not None and not images_follow(pairs, step):
                reduced = None  # the kept rows are no prefix of the merged stack
            new_pairs, new_rows = _live_rows(pairs, rows, mulmat, step, p)
            merged = pairs + new_pairs
            order = sorted(range(len(merged)), key=lambda i: key(merged[i]))
            pairs = [merged[i] for i in order]
            rows = _np.concatenate([rows, new_rows]).take(order, 0)
        kept, *reduced = modmat.rref(rows, p, reduced, transform=True)
        pairs = [pairs[i] for i in kept]
        rows = rows.take(kept, 0)
        step *= 2
        if step >= delta or not pairs:
            break
        if len(pairs) == sigma and images_follow(pairs, step):
            break  # the kept rows span F^sigma and the next step's rows follow

    return RankProfile(len(pairs), pairs, rows, tuple(reduced), list(shift), delta)


def minimal_degree(profile: RankProfile, m: int) -> list[int]:
    """Per column, one plus the largest profile degree seen for it."""
    out = [0] * m
    for c, d in profile.decoded:
        if d + 1 > out[c]:
            out[c] = d + 1
    return out


def _target_rows(e, mulmat, profile, mindeg, p):
    """Row c of E*M^mindeg[c], for every c, as one array.

    The profile holds row c of E*M^(mindeg[c]-1) when mindeg[c] > 0, so one
    product by M gives every such target; the others are row c of E.
    """
    targets = e.copy()
    cs = [c for c, dc in enumerate(mindeg) if dc]
    if cs:
        where = {cd: k for k, cd in enumerate(profile.decoded)}
        last = profile.pivot_rows.take([where[c, mindeg[c] - 1] for c in cs], 0)
        if isinstance(mulmat, _jordan.JordanRep):
            targets[cs] = _jordan.act_power(last, mulmat, 1)
        else:
            targets[cs] = modmat.mat_mul(last, mulmat, p)
    return targets


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
    e, mulmat, shift = _operands(e_rows, mulmat, shift, field)
    m = len(e)
    profile = krylov_rank_profile(e, mulmat, shift, delta, field)
    mindeg = minimal_degree(profile, m)
    targets = _target_rows(e, mulmat, profile, mindeg, p)
    pivcols, red, transform = profile.reduced
    coords = targets[:, pivcols]
    if not _np.array_equal(modmat.mat_mul(coords, red, p), targets):
        raise ValueError("a target row is not in the span of the profile rows")
    relation = modmat.mat_mul(coords, transform, p)
    basis = _assemble_popov(field, mindeg, profile.decoded, relation)
    return basis, mindeg
