"""Interpolation bases through linearization over the scalar field.

Interpolants of degree at most delta correspond to linear relations among
the rows of a striped Krylov matrix (the stack of E, E*M, ..., E*M^delta),
with rows permuted so that relations found among early rows have small
shifted row degree.  The engine computes the row rank profile of that
matrix by degree doubling, never materializing more than about 2*rank
candidate rows, then solves one small linear system for the unique
interpolation basis in shifted Popov form.

Works for an arbitrary dense multiplication matrix; a Jordan representation
enables the fast blockwise row updates.

The engine runs on numpy arrays from entry to exit.  E is converted once,
reduced mod p, into the int64 (or object) words of `modmat`; a dense M is
converted once, reduced mod p, into the dtype of its products.  The Krylov
rows, the powers of M, the target rows and the linear system stay arrays;
lists appear again only when the PolyMatrix is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as _np

from . import jordan as _jordan
from . import modmat
from .field import PrimeField
from .polymat import PolyMatrix, check_shift


class PriorityPermutation:
    """Row order of the striped Krylov matrix induced by a shift.

    Pair (c, d) stands for row c of E*M^d.  Pairs are ranked by the priority
    shift[c] + d, ties broken by ascending column index c; for a fixed c the
    rank is strictly increasing in d.
    """

    __slots__ = ("order", "_index")

    def __init__(self, shift: list[int], m: int, max_degree: int):
        check_shift(shift, m)
        if max_degree < 1:
            raise ValueError("max_degree must be at least 1")
        pairs = [(c, d) for d in range(max_degree + 1) for c in range(m)]
        pairs.sort(key=lambda cd: (shift[cd[0]] + cd[1], cd[0]))
        self.order = pairs
        self._index = [[0] * (max_degree + 1) for _ in range(m)]
        for i, (c, d) in enumerate(pairs):
            self._index[c][d] = i

    def index_of(self, c: int, d: int) -> int:
        return self._index[c][d]


def build_priority(shift: list[int], m: int, max_degree: int) -> PriorityPermutation:
    return PriorityPermutation(shift, m, max_degree)


@dataclass
class RankProfile:
    rank: int
    row_indices: list[int]
    decoded: list[tuple[int, int]]
    pivot_rows: _np.ndarray
    col_indices: list[int]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _validate_delta(delta: int, sigma: int) -> None:
    if not _is_pow2(delta) or delta > max(2 * sigma - 1, 1):
        raise ValueError("delta must be a power of two in {1, ..., max(2*sigma-1, 1)}")


def _operands(e_rows, mulmat, p: int):
    """E reduced mod p in modmat's words; a dense M reduced mod p in the
    dtype of its products (so that no product converts it again)."""
    sigma = modmat._dims(e_rows)[1]
    dt = modmat._dtype_for(p, sigma)
    e = modmat.reduce(e_rows, p, modmat._words(dt)).reshape(len(e_rows), sigma)
    if isinstance(mulmat, _jordan.JordanRep):
        return e, mulmat
    if len(mulmat) != sigma:
        raise ValueError("multiplication matrix size mismatch")
    return e, modmat.reduce(mulmat, p, dt)


def _rows_times_power(rows, mulmat, step, p, pow_cache):
    if isinstance(mulmat, _jordan.JordanRep):
        return _jordan.act_power(rows, mulmat, step)
    mp = pow_cache["mat"]
    while pow_cache["exp"] < step:
        mp = modmat.mat_mul(mp, mp, p)
        pow_cache["exp"] *= 2
        pow_cache["mat"] = mp
    if pow_cache["exp"] != step:
        raise AssertionError("power cache out of sync")
    return modmat.mat_mul(rows, mp, p)


def krylov_rank_profile(
    e_rows,
    mulmat,
    shift: list[int],
    delta: int,
    field: PrimeField,
) -> RankProfile:
    """Row rank profile of the shifted striped Krylov matrix in degree delta.

    delta must be a power of two bounding the degree of the minimal
    polynomial of the multiplication matrix.  The doubling loop keeps at
    most 2*rank candidate rows per iteration; reported indices refer to the
    degree-delta row ordering.  E and a dense M are lists of rows, reduced
    and converted here, or arrays already reduced mod p as lin_interp_basis
    passes them.
    """
    p = field.p
    if isinstance(e_rows, _np.ndarray):
        e = e_rows
    else:
        e, mulmat = _operands(e_rows, mulmat, p)
    m, sigma = e.shape
    _validate_delta(delta, sigma)
    check_shift(shift, m)

    def key(cd):
        return (shift[cd[0]] + cd[1], cd[0])

    # degree-0 rows, processed in priority order
    base = sorted(range(m), key=lambda c: (shift[c], c))
    _, kept = modmat.row_rank_profile(e.take(base, 0), p)
    pairs = [(base[i], 0) for i in kept]
    rows = e.take([c for c, _ in pairs], 0)
    pow_cache = {"mat": mulmat, "exp": 1}

    step = 1
    while step < delta and pairs:
        new_rows = _rows_times_power(rows, mulmat, step, p, pow_cache)
        merged = pairs + [(c, d + step) for c, d in pairs]
        order = sorted(range(len(merged)), key=lambda i: key(merged[i]))
        stack = _np.concatenate([rows, new_rows]).take(order, 0)
        _, kept = modmat.row_rank_profile(stack, p)
        pairs = [merged[order[i]] for i in kept]
        rows = stack.take(kept, 0)
        step *= 2

    prio = build_priority(shift, m, delta)
    indices = [prio.index_of(c, d) for c, d in pairs]
    _, col_idx = modmat.col_rank_profile(rows, p)
    return RankProfile(len(pairs), indices, pairs, rows, col_idx)


def minimal_degree(profile: RankProfile, m: int) -> list[int]:
    """Per column, one plus the largest profile degree seen for it."""
    out = [0] * m
    for c, d in profile.decoded:
        if d + 1 > out[c]:
            out[c] = d + 1
    return out


def _target_rows(e, mulmat, mindeg, p):
    """Row c of E*M^mindeg[c], for every c, as one array."""
    targets = e.copy()
    if isinstance(mulmat, _jordan.JordanRep):
        for d in sorted(set(mindeg)):
            cs = [c for c, dc in enumerate(mindeg) if dc == d]
            targets[cs] = _jordan.act_power(e.take(cs, 0), mulmat, d)
        return targets
    cur = e
    top = max(mindeg) if mindeg else 0
    for d in range(1, top + 1):
        cur = modmat.mat_mul(cur, mulmat, p)
        for c, dc in enumerate(mindeg):
            if dc == d:
                targets[c] = cur[c]
    return targets


def _assemble_popov(field, m, mindeg, decoded, relation):
    entries = [[[] for _ in range(m)] for _ in range(m)]
    for c in range(m):
        col = [[0] * (mindeg[ck] + 1) for ck in range(m)]
        for k, (ck, dk) in enumerate(decoded):
            coeff = relation[c][k]
            if coeff:
                col[ck][dk] = (-coeff) % field.p
        col[c][mindeg[c]] = (col[c][mindeg[c]] + 1) % field.p
        entries[c] = [field.normalize(e) for e in col]
    return PolyMatrix(field, entries)


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
    of the output column degrees is at most the column count of E.
    """
    if isinstance(mulmat, _jordan.JordanRep) and mulmat.field != field:
        raise ValueError("field does not match the Jordan matrix")
    p = field.p
    e, mulmat = _operands(e_rows, mulmat, p)
    m = len(e)
    profile = krylov_rank_profile(e, mulmat, shift, delta, field)
    mindeg = minimal_degree(profile, m)
    targets = _target_rows(e, mulmat, mindeg, p)
    cols = profile.col_indices
    relation = modmat.solve_right(profile.pivot_rows.take(cols, 1), targets.take(cols, 1), p)
    basis = _assemble_popov(field, m, mindeg, profile.decoded, relation.tolist())
    return basis, mindeg
