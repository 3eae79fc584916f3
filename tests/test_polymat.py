import random

import pytest

from mibasis.field import MINUS_INF, PrimeField
from mibasis import polymat
from mibasis.polymat import PolyMatrix

F97 = PrimeField(97)
F7 = PrimeField(7)


def reference_basis():
    # reduced order-3 approximant basis used as a worked fixture throughout
    return PolyMatrix.from_entries(
        F97,
        [
            [[0, 36, 1], [0, 31], []],
            [[13, 3], [57, 1], []],
            [[96], [96], [1]],
        ],
    )


def rand_matrix(rng, field, rows, cols, deg):
    return PolyMatrix.from_entries(
        field,
        [
            [[rng.randrange(field.p) for _ in range(rng.randrange(deg + 2))] for _ in range(cols)]
            for _ in range(rows)
        ],
    )


def test_row_degree_uniform_shift():
    assert polymat.shifted_row_degree(reference_basis(), [0, 0, 0]) == [2, 1, 0]


def test_row_degree_zero_row_is_minus_inf():
    m = PolyMatrix.from_entries(F7, [[[1], [2]], [[], []]])
    assert polymat.shifted_row_degree(m, [0, 0]) == [0, MINUS_INF]


def test_row_degree_with_shift():
    assert polymat.shifted_row_degree(reference_basis(), [0, 3, 6]) == [4, 4, 6]


def test_row_degree_shift_translation():
    rng = random.Random(1)
    m = rand_matrix(rng, F7, 3, 4, 3)
    s = [rng.randrange(4) for _ in range(4)]
    base = polymat.shifted_row_degree(m, s)
    shifted = polymat.shifted_row_degree(m, [x + 2 for x in s])
    for a, b in zip(base, shifted):
        assert b == (a + 2 if a != MINUS_INF else MINUS_INF)


def test_leading_matrix_identity():
    ident = PolyMatrix.identity(F7, 3)
    assert polymat.leading_matrix(ident, [1, 4, 2]) == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


def test_leading_matrix_reference_fixture():
    assert polymat.leading_matrix(reference_basis(), [0, 0, 0]) == [
        [1, 0, 0],
        [3, 1, 0],
        [96, 96, 1],
    ]


def test_leading_matrix_single_row():
    m = PolyMatrix.from_entries(F97, [[[13, 3], [57, 1], []]])
    assert polymat.leading_matrix(m, [0, 0, 0]) == [[3, 1, 0]]


def test_leading_matrix_rejects_zero_row():
    m = PolyMatrix.from_entries(F7, [[[], []]])
    with pytest.raises(ValueError):
        polymat.leading_matrix(m, [0, 0])


def test_is_reduced():
    assert polymat.is_reduced(reference_basis(), [0, 0, 0])
    assert polymat.is_reduced(PolyMatrix.identity(F7, 2), [5, 1])
    rank1 = PolyMatrix.from_entries(F7, [[[0, 1], []], [[0, 1], []]])
    assert not polymat.is_reduced(rank1, [0, 0])


def test_is_reduced_matches_x_power_scaling():
    rng = random.Random(2)
    for _ in range(25):
        m = rand_matrix(rng, F7, 2, 3, 2)
        if any(d == MINUS_INF for d in polymat.shifted_row_degree(m, [0, 0, 0])):
            continue
        s = [rng.randrange(3) for _ in range(3)]
        scaled = m.scale_columns_by_x_power(s)
        assert polymat.is_reduced(m, s) == polymat.is_reduced(scaled, [0, 0, 0])


def test_pivot_reference_rows():
    b = reference_basis()
    assert polymat.pivot(b.rows[0], [0, 0, 0]) == (0, 2)
    assert polymat.pivot(b.rows[1], [0, 0, 0]) == (1, 1)
    assert polymat.pivot(b.rows[2], [0, 0, 0]) == (2, 0)


def test_pivot_shifted():
    row = [[0, 0, 0, 1], [], []]
    assert polymat.pivot(row, [0, 3, 6]) == (0, 3)


def test_pivot_constant_tail():
    row = [[], [], [5]]
    assert polymat.pivot(row, [0, 0, 0]) == (2, 0)


def test_pivot_zero_row_raises():
    with pytest.raises(ValueError):
        polymat.pivot([[], []], [0, 0])


def test_weak_popov():
    assert polymat.is_weak_popov(reference_basis(), [0, 0, 0])
    assert polymat.is_weak_popov(PolyMatrix.identity(F7, 3), [1, 2, 3])
    dup = PolyMatrix.from_entries(F7, [[[1], []], [[2], []]])
    assert not polymat.is_weak_popov(dup, [0, 0])
    with_zero = PolyMatrix.from_entries(F7, [[[1], []], [[], []]])
    assert not polymat.is_weak_popov(with_zero, [0, 0])


def test_is_popov():
    assert polymat.is_popov(PolyMatrix.identity(F7, 3), [0, 1, 0])
    assert not polymat.is_popov(reference_basis(), [0, 0, 0])
    popov = PolyMatrix.from_entries(
        F97,
        [
            [[82, 40, 1], [76], []],
            [[13, 3], [57, 1], []],
            [[96], [96], [1]],
        ],
    )
    assert polymat.is_popov(popov, [0, 0, 0])


def test_popov_implies_weak_popov_implies_reduced():
    popov = PolyMatrix.from_entries(
        F97,
        [
            [[82, 40, 1], [76], []],
            [[13, 3], [57, 1], []],
            [[96], [96], [1]],
        ],
    )
    assert polymat.is_weak_popov(popov, [0, 0, 0])
    assert polymat.is_reduced(popov, [0, 0, 0])
    assert polymat.is_weak_popov(reference_basis(), [0, 0, 0])
    assert polymat.is_reduced(reference_basis(), [0, 0, 0])


def test_naive_mul_identity():
    rng = random.Random(3)
    a = rand_matrix(rng, F7, 3, 3, 4)
    ident = PolyMatrix.identity(F7, 3)
    assert polymat.naive_mul(ident, a) == a
    assert polymat.naive_mul(a, ident) == a


def test_naive_mul_two_by_two_by_hand():
    a = PolyMatrix.from_entries(F7, [[[1, 1], [2]], [[], [3]]])
    b = PolyMatrix.from_entries(F7, [[[1], [1, 1]], [[0, 1], []]])
    prod = polymat.naive_mul(b, a)
    # row 0: [1*(1+X) + (1+X)*0, 1*2 + (1+X)*3] = [1+X, 5+3X]
    assert prod.rows[0] == [[1, 1], [5, 3]]
    # row 1: [X*(1+X), 2X]
    assert prod.rows[1] == [[0, 1, 1], [0, 2]]


def test_mat_mul_matches_naive_balanced_and_unbalanced():
    rng = random.Random(4)
    big = PrimeField(65537)
    huge = PrimeField((1 << 61) - 1)
    # (field, degree, rows, inner, cols)
    cases = ((F7, 3, 4, 3, 2), (big, 40, 4, 3, 2), (huge, 40, 4, 3, 2), (big, 40, 4, 4, 4))
    for field, deg, r, k, c in cases:
        a = rand_matrix(rng, field, k, c, deg)
        b = rand_matrix(rng, field, r, k, deg)
        assert polymat.mat_mul(b, a) == polymat.naive_mul(b, a)
    # every coefficient p - 1: the inner sums reach the Kronecker digit bound
    for field in (big, huge):
        a = PolyMatrix.from_entries(field, [[[field.p - 1] * 41] * 2] * 3)
        b = PolyMatrix.from_entries(field, [[[field.p - 1] * 41] * 3] * 4)
        assert polymat.mat_mul(b, a) == polymat.naive_mul(b, a)
    # unbalanced operands: a row of degree 0 beside one of degree ~300, zero
    # entries and a zero row, as the residual products of dnc pass them
    def poly(d):
        return [rng.randrange(field.p) for _ in range(d)] + [rng.randrange(1, field.p)]

    for field in (F97, big, huge):
        b = PolyMatrix(field, [
            [poly(0), poly(0), poly(0)],
            [poly(300), [], poly(297)],
            [[], [], []],
        ])
        a = PolyMatrix(field, [
            [poly(0), poly(301), [], poly(2)],
            [poly(5), [], [], poly(0)],
            [[], poly(0), [], poly(7)],
        ])
        full = polymat.naive_mul(b, a)
        assert polymat.mat_mul(b, a) == full
        for k in (1, 7):
            want = [[field.poly_trunc(e, k) for e in row] for row in full.rows]
            assert polymat.mat_mul(b, a, trunc=k).rows == want


def test_mat_mul_truncated():
    rng = random.Random(5)
    deg = 5
    for field in (F7, PrimeField((1 << 61) - 1)):
        a = rand_matrix(rng, field, 2, 2, deg)
        b = rand_matrix(rng, field, 2, 2, deg)
        full = polymat.naive_mul(b, a)
        for k in (0, 1, 3, deg + 1):
            trunc = polymat.mat_mul(b, a, trunc=k)
            for ra, rb in zip(full.rows, trunc.rows):
                for ea, eb in zip(ra, rb):
                    assert field.poly_trunc(ea, k) == eb


def test_reduced_degree_sum_equals_det_degree():
    from mibasis.oracle import determinant_degree

    rng = random.Random(6)
    count = 0
    while count < 10:
        m = rand_matrix(rng, F7, 3, 3, 2)
        degs = polymat.shifted_row_degree(m, [0, 1, 2])
        if any(d == MINUS_INF for d in degs) or not polymat.is_reduced(m, [0, 1, 2]):
            continue
        count += 1
        assert polymat.degree_sum(degs) - 3 == determinant_degree(m)
