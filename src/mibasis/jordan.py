"""Jordan multiplication matrices as lists of blocks.

A JordanRep lists (eigenvalue, block size) pairs in any order; the columns
of an evaluation matrix line up with the blocks as listed, block i taking
the next block-size columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field

import numpy as _np

from .field import PrimeField


@dataclass(frozen=True)
class JordanRep:
    field: PrimeField
    blocks: tuple[tuple[int, int], ...]
    order: int = _field(init=False, compare=False)

    def __post_init__(self):
        p = self.field.p
        for x, s in self.blocks:
            if s <= 0:
                raise ValueError("block sizes must be positive")
            if not 0 <= x < p:
                raise ValueError("eigenvalues must lie in [0, p)")
        object.__setattr__(self, "order", sum(s for _, s in self.blocks))

    def column_offsets(self) -> list[int]:
        offs = []
        pos = 0
        for _, s in self.blocks:
            offs.append(pos)
            pos += s
        return offs


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
    pos = 0
    for x, s in j.blocks:
        for k in range(s):
            mat[pos + k][pos + k] = x
            if k + 1 < s:
                mat[pos + k][pos + k + 1] = 1
        pos += s
    return mat


def act(e_rows: list[list[int]], j: JordanRep) -> list[list[int]]:
    """E * J computed blockwise in O(rows * order) scalar operations."""
    p = j.field.p
    out = []
    for row in e_rows:
        if len(row) != j.order:
            raise ValueError("column count does not match the Jordan order")
        new = [0] * len(row)
        pos = 0
        for x, s in j.blocks:
            new[pos] = x * row[pos] % p
            for k in range(1, s):
                new[pos + k] = (row[pos + k - 1] + x * row[pos + k]) % p
            pos += s
        out.append(new)
    return out


def act_power(e_rows, j: JordanRep, n: int) -> _np.ndarray:
    """E * J^n via the binomial closed form of Jordan block powers.

    E is a list of rows or an array, reduced mod p here; the result is an
    array.  Within a block of eigenvalue x and size s, column k of the
    result is sum_t C(n, t) x^(n-t) times input column k-t.  Nilpotent
    blocks shift their columns by n.  The other blocks are summed per shift
    t, all blocks at once, with one weight per column, so that many small
    blocks cost one numpy update per t.  The arrays are int64 while
    (p-1)^2 < 2^62, so that p + (p-1)^2 fits, and object arrays of Python
    integers beyond.
    """
    if n < 0:
        raise ValueError("negative power")
    f = j.field
    p = f.p
    dt = _np.int64 if (p - 1) * (p - 1) < 1 << 62 else object
    if not len(e_rows):
        return _np.zeros((0, j.order), dtype=dt)
    arr = _np.asarray(e_rows, dtype=dt) % p
    if arr.ndim != 2 or arr.shape[1] != j.order:
        raise ValueError("column count does not match the Jordan order")
    if n == 0:
        return arr
    out = _np.zeros(arr.shape, dtype=dt)
    # weights[t][c]: the coefficient of input column c - t in output column c
    weights: dict[int, list[int]] = {}
    pos = 0
    for x, s in j.blocks:
        if x == 0:
            if n < s:
                out[:, pos + n : pos + s] = arr[:, pos : pos + s - n]
        else:
            for t in range(min(s - 1, n) + 1):
                w = f.binomial(n, t) * pow(x, n - t, p) % p
                if w:
                    weights.setdefault(t, [0] * j.order)[pos + t : pos + s] = [w] * (s - t)
        pos += s
    for t, w in weights.items():
        out[:, t:] = (out[:, t:] + arr[:, : j.order - t] * _np.asarray(w[t:], dtype=dt)) % p
    return out


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
    the other blocks keep their order.
    """
    if not 0 < k < j.order:
        raise ValueError("split point out of range")
    lead: list[tuple[int, int]] = []
    trail: list[tuple[int, int]] = []
    pos = 0
    for x, s in j.blocks:
        if pos + s <= k:
            lead.append((x, s))
        elif pos >= k:
            trail.append((x, s))
        else:
            t = k - pos
            lead.append((x, t))
            trail.append((x, s - t))
        pos += s
    return JordanRep(j.field, tuple(lead)), JordanRep(j.field, tuple(trail))
