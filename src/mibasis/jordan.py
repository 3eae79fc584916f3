"""Jordan multiplication matrices as lists of blocks.

A JordanRep lists (eigenvalue, block size) pairs in any order; the columns
of an evaluation matrix line up with the blocks as listed, block i taking
the next block-size columns.  A rep stores their offsets when it is built;
the reps cut from a checked rep (``split``'s halves, cut at the block that a
bisection of the offsets finds, and the residuals' suffixes and chunks) are
not checked again.

Powers of J act on E column by column: `act_power` reads a column table,
built once per rep, that gives each column its eigenvalue and its position
in its block, so one numpy update per shift t covers every block at once and
its cost grows with the columns and the largest block, not with the block
count.  `act` is the plain blockwise action, kept in pure Python as an
independent reference.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, field as _field
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as _np

from . import modmat
from .field import PrimeField


class _ColumnTable(NamedTuple):
    eig: _np.ndarray  # eigenvalue of each column, in the kernel's dtype
    pos: _np.ndarray  # position of each column in its block, -1 if nilpotent
    nilpotent: list[tuple[int, int]]  # (offset, size) of each nilpotent block
    top: int  # largest size of a block with nonzero eigenvalue, 0 if none


@dataclass(frozen=True)
class JordanRep:
    """Jordan blocks (eigenvalue, size), checked once when built; ``order``
    and ``offsets``, the first column of each block, take no part in == and
    hash, and ``offsets`` none in repr."""

    field: PrimeField
    blocks: tuple[tuple[int, int], ...]
    order: int = _field(init=False, compare=False)
    offsets: tuple[int, ...] = _field(init=False, compare=False, repr=False)

    def __post_init__(self):
        p = self.field.p
        blocks = []
        for x, s in self.blocks:
            try:
                x, s = operator.index(x), operator.index(s)
            except TypeError:
                raise ValueError("eigenvalues and block sizes must be integers") from None
            if s <= 0:
                raise ValueError("block sizes must be positive")
            if not 0 <= x < p:
                raise ValueError("eigenvalues must lie in [0, p)")
            blocks.append((x, s))
        object.__setattr__(self, "blocks", tuple(blocks))
        self._lay_out()

    @classmethod
    def _derived(cls, field: PrimeField, blocks: tuple[tuple[int, int], ...]) -> JordanRep:
        """The rep of blocks taken from a checked rep over field, not checked
        again; equal, in ==, hash and repr, to JordanRep(field, blocks)."""
        rep = object.__new__(cls)
        object.__setattr__(rep, "field", field)
        object.__setattr__(rep, "blocks", blocks)
        rep._lay_out()
        return rep

    def _lay_out(self) -> None:
        offsets = list(accumulate((s for _, s in self.blocks), initial=0))
        object.__setattr__(self, "order", offsets.pop())
        object.__setattr__(self, "offsets", tuple(offsets))

    @cached_property
    def _columns(self) -> _ColumnTable:
        """The column table of `act_power`, computed on first use.  It lives
        in the instance dict, outside the dataclass fields, so that it takes
        no part in ==, hash or repr."""
        sizes = [s for _, s in self.blocks]
        dt = modmat.words(self.field.p, 2)
        eig = _np.repeat(_np.array([x for x, _ in self.blocks], dtype=dt), sizes)
        starts = _np.repeat(_np.array(self.offsets, dtype=_np.int64), sizes)
        pos = _np.arange(self.order, dtype=_np.int64) - starts
        pos[eig == 0] = -1
        nilpotent = [(off, s) for (x, s), off in zip(self.blocks, self.offsets) if not x]
        top = max((s for x, s in self.blocks if x), default=0)
        return _ColumnTable(eig, pos, nilpotent, top)


def check_evaluations(e_rows, mulmat) -> None:
    """The engines' domain checks on E: at least one row, and as many
    columns as the order of M, a JordanRep or a dense list of rows."""
    if not len(e_rows):
        raise ValueError("at least one evaluation row is required")
    order = mulmat.order if isinstance(mulmat, JordanRep) else len(mulmat)
    if any(len(row) != order for row in e_rows):
        raise ValueError("column count of E must match the order of M")


def to_dense(j: JordanRep) -> list[list[int]]:
    n = j.order
    mat = [[0] * n for _ in range(n)]
    for (x, s), pos in zip(j.blocks, j.offsets):
        for k in range(s):
            mat[pos + k][pos + k] = x
            if k + 1 < s:
                mat[pos + k][pos + k + 1] = 1
    return mat


def act(e_rows: list[list[int]], j: JordanRep) -> list[list[int]]:
    """E * J computed blockwise in O(rows * order) scalar operations."""
    p = j.field.p
    out = []
    for row in e_rows:
        if len(row) != j.order:
            raise ValueError("column count does not match the Jordan order")
        new = [0] * len(row)
        for (x, s), pos in zip(j.blocks, j.offsets):
            new[pos] = x * row[pos] % p
            for k in range(1, s):
                new[pos + k] = (row[pos + k - 1] + x * row[pos + k]) % p
        out.append(new)
    return out


def _binomials(f: PrimeField, n: int, tmax: int) -> list[int]:
    """C(n, t) mod p for t = 0..tmax.

    For tmax < p, Lucas' theorem gives C(n, t) = C(n mod p, t), and one
    multiplicative recurrence with a single inversion of tmax! yields them
    all; beyond, each comes from ``binomial``'s digit product.
    """
    p = f.p
    if tmax >= p:
        return [f.binomial(n, t) for t in range(tmax + 1)]
    n %= p
    num = [1] * (tmax + 1)  # n (n-1) ... (n-t+1)
    den = 1
    for t in range(1, tmax + 1):
        num[t] = num[t - 1] * (n - t + 1) % p
        den = den * t % p
    inv = pow(den, -1, p)  # 1 / t! for t = tmax, tmax-1, ...
    for t in range(tmax, 0, -1):
        num[t] = num[t] * inv % p
        inv = inv * t % p
    return num


def act_power(e_rows, j: JordanRep, n: int) -> _np.ndarray:
    """E * J^n via the binomial closed form of Jordan block powers.

    E is a list of rows or an array with entries in [0, p), which is not
    checked or reduced here; the result is a new array.  Within a block of
    eigenvalue x and size s, column k of the result is sum_t C(n, t) x^(n-t)
    times input column k-t.  Nilpotent blocks shift their columns by n.  The
    other columns are summed per shift t over the rep's column table:
    x^(n-t) of every column comes from one vector square-and-multiply and
    one multiplication by x per t, and the weight vector C(n, t) x^(n-t),
    zero on columns at positions below t in their blocks, enters one update
    of all columns (at t = 0 the weight is x^n, zero on the nilpotent
    columns as their x is).  The Python work per call is one step per
    nilpotent block and one per shift t below the largest block size.  The
    arrays hold ``modmat``'s words for sums of two products: int64 while
    (p-1)^2 < 2^62, object arrays of Python integers beyond.
    """
    if n < 0:
        raise ValueError("negative power")
    f = j.field
    p = f.p
    dt = modmat.words(p, 2)
    if not len(e_rows):
        return _np.zeros((0, j.order), dtype=dt)
    arr = _np.asarray(e_rows, dtype=dt)
    if arr.ndim != 2 or arr.shape[1] != j.order:
        raise ValueError("column count does not match the Jordan order")
    if n == 0:
        return arr.copy()
    eig, pos, nilpotent, top = j._columns
    out = _np.zeros(arr.shape, dtype=dt)
    for off, s in nilpotent:
        if n < s:
            out[:, off + n : off + s] = arr[:, off : off + s - n]
    if not top:
        return out
    tmax = min(top - 1, n)
    # xp = x^(n - tmax) per column, by square and multiply from the top bit
    k = n - tmax
    xp = eig if k else _np.ones(j.order, dtype=dt)
    for bit in bin(k)[3:]:
        xp = xp * xp % p
        if bit == "1":
            xp = xp * eig % p
    sigma = j.order
    binoms = _binomials(f, n, tmax)
    for t in range(tmax, 0, -1):
        b = binoms[t]
        if b:
            w = _np.where(pos[t:] >= t, xp[t:] * b % p, 0)
            out[:, t:] = (out[:, t:] + arr[:, : sigma - t] * w) % p
        xp = xp * eig % p
    # t = 0: C(n, 0) = 1, and x^n vanishes on the nilpotent columns
    return (out + arr * xp) % p


def minpoly_degree(j: JordanRep) -> int:
    """Exact minimal polynomial degree: max block size summed per eigenvalue."""
    best: dict[int, int] = {}
    for x, s in j.blocks:
        if s > best.get(x, 0):
            best[x] = s
    return sum(best.values())


def split(j: JordanRep, k: int) -> tuple[JordanRep, JordanRep]:
    """Leading/trailing principal parts covering columns [0,k) and [k,order).

    A block straddling the cut splits into two blocks of the same eigenvalue;
    the other blocks keep their order.  The halves, cut at the block that
    bisecting ``j.offsets`` finds, are not checked again.
    """
    if not 0 < k < j.order:
        raise ValueError("split point out of range")
    i = bisect_right(j.offsets, k) - 1
    x, s = j.blocks[i]
    t = k - j.offsets[i]
    lead, trail = j.blocks[:i], j.blocks[i:]
    if t:
        lead, trail = lead + ((x, t),), ((x, s - t),) + trail[1:]
    return JordanRep._derived(j.field, lead), JordanRep._derived(j.field, trail)
