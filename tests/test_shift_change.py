import random

import pytest

from mibasis.field import PrimeField
from mibasis import modmat, oracle, polymat
from mibasis.polymat import PolyMatrix
from mibasis.shift_change import change_shift


def horner(field, f, x):
    """f(x) in field, by Horner's rule."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % field.p
    return acc


F97 = PrimeField(97)
F7 = PrimeField(7)

REFERENCE_BASIS = [
    [[0, 36, 1], [0, 31], []],
    [[13, 3], [57, 1], []],
    [[96], [96], [1]],
]


def rand_popov(rng, field, m, shift, max_deg=3):
    """Random matrix in shift-Popov form (hence shift-reduced)."""
    while True:
        diag = [rng.randrange(max_deg + 1) for _ in range(m)]
        rows = []
        for i in range(m):
            row = []
            for j in range(m):
                if j == i:
                    e = [rng.randrange(field.p) for _ in range(diag[i])] + [1]
                    row.append(field.poly(e))
                    continue
                # column constraint: degree below diag[j]
                # row constraint: degree + shift[j] <= shift[i] + diag[i],
                # strict for j > i
                cap_col = diag[j] - 1
                cap_row = shift[i] + diag[i] - shift[j] - (1 if j > i else 0)
                cap = min(cap_col, cap_row)
                if cap < 0 or rng.random() < 0.3:
                    row.append([])
                else:
                    row.append(field.poly([rng.randrange(field.p) for _ in range(cap + 1)]))
            rows.append(row)
        mat = PolyMatrix(field, rows)
        if polymat.is_popov(mat, shift):
            return mat


def unimodular_checks(pm, s, t, r, u):
    field = pm.field
    st = [a + b for a, b in zip(s, t)]
    assert polymat.naive_mul(u, pm) == r
    assert polymat.is_reduced(r, st)
    lhs = polymat.degree_sum(polymat.shifted_row_degree(r, st))
    rhs = polymat.degree_sum(polymat.shifted_row_degree(pm, s)) + sum(t)
    assert lhs == rhs
    # determinant of U is a nonzero constant: check degree and full rank at
    # one evaluation
    assert oracle.determinant_degree(u) == 0
    x0 = 5 % field.p
    pt = [[horner(field, e, x0) for e in row] for row in u.rows]
    assert modmat.row_rank_profile(pt, field.p)[0] == len(pt)


def test_zero_extra_shift_preserves_sorted_degrees():
    pm = PolyMatrix.from_entries(F97, REFERENCE_BASIS)
    r, u = change_shift(pm, [0, 0, 0], [0, 0, 0])
    unimodular_checks(pm, [0, 0, 0], [0, 0, 0], r, u)
    assert sorted(polymat.shifted_row_degree(r, [0, 0, 0])) == [0, 1, 2]


def test_identity_input():
    ident = PolyMatrix.identity(F97, 3)
    s = [0, 0, 0]
    t = [2, 0, 5]
    r, u = change_shift(ident, s, t)
    unimodular_checks(ident, s, t, r, u)
    st = [a + b for a, b in zip(s, t)]
    assert polymat.degree_sum(polymat.shifted_row_degree(r, st)) == sum(st)


def test_reference_basis_staircase_target():
    pm = PolyMatrix.from_entries(F97, REFERENCE_BASIS)
    r, u = change_shift(pm, [0, 0, 0], [0, 3, 6])
    unimodular_checks(pm, [0, 0, 0], [0, 3, 6], r, u)
    assert sorted(polymat.shifted_row_degree(r, [0, 3, 6])) == [3, 3, 6]


def test_random_instances():
    rng = random.Random(1)
    for _ in range(40):
        m = rng.randrange(1, 5)
        s = [rng.randrange(4) for _ in range(m)]
        t = [rng.randrange(4) for _ in range(m)]
        pm = rand_popov(rng, F97, m, s)
        r, u = change_shift(pm, s, t)
        unimodular_checks(pm, s, t, r, u)


def test_row_spaces_coincide():
    rng = random.Random(2)
    for _ in range(10):
        m = rng.randrange(1, 4)
        s = [rng.randrange(3) for _ in range(m)]
        t = [rng.randrange(3) for _ in range(m)]
        pm = rand_popov(rng, F7, m, s)
        r, _ = change_shift(pm, s, t)
        for row in r.rows:
            assert oracle.reduces_to_zero(row, pm, s)
        for row in pm.rows:
            assert oracle.reduces_to_zero(row, r, s)


def test_rejects_non_reduced_input():
    bad = PolyMatrix.from_entries(F7, [[[0, 1], []], [[0, 1], []]])
    with pytest.raises(ValueError):
        change_shift(bad, [0, 0], [0, 0])
