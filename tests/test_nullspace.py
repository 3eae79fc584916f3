import random

import pytest

from mibasis.field import MINUS_INF, PrimeField
from mibasis import dnc, oracle, polymat
from mibasis.nullspace import minimal_nullspace_basis
from mibasis.polymat import PolyMatrix

F97 = PrimeField(97)
F7 = PrimeField(7)


def rand_full_rank(rng, field, m, n, deg):
    while True:
        f = PolyMatrix.from_entries(
            field,
            [
                [[rng.randrange(field.p) for _ in range(rng.randrange(deg + 2))] for _ in range(n)]
                for _ in range(m)
            ],
        )
        try:
            oracle.rational_kernel(f)
        except ValueError:
            continue
        return f


def shift_bounding(f, extra=0):
    return [
        (int(d) if d != MINUS_INF else 0) + extra
        for d in polymat.plain_row_degree(f)
    ]


def oracle_minimal_degree_sum(f: PolyMatrix, shift):
    """Reference minimal nullspace degree mass via a high-order basis.

    Rows of an order basis at order sum(shift) + deg(F) + 1 that annihilate
    F exactly, picked greedily by shifted degree, realize the minimal sum.
    """
    field = f.field
    bound = sum(shift) + max(int(f.degree()), 0) + 1
    e_cols = []
    for j in range(f.ncols):
        for row in [f.rows[i][j] for i in range(f.nrows)]:
            pass
        e_cols.append(None)
    # coefficient packing of each column at uniform order `bound`
    e = []
    for row in f.rows:
        packed = []
        for e_poly in row:
            packed.extend((e_poly + [0] * bound)[:bound])
        e.append(packed)
    from mibasis import jordan

    rep = jordan.JordanRep(field, ((0, bound),) * f.ncols)
    popov, mindeg = oracle.oracle_popov(e, rep, shift, field)
    degs = polymat.shifted_row_degree(popov, shift)
    exact = []
    for i in range(popov.nrows):
        prod = polymat.naive_mul(
            PolyMatrix(field, [popov.rows[i]]), f
        )
        if prod.degree() == MINUS_INF:
            exact.append(int(degs[i]))
    return sum(sorted(exact)[: f.nrows - f.ncols])


def test_unit_column():
    f = PolyMatrix.from_entries(F7, [[[1]], [[]]])
    n, degs = minimal_nullspace_basis(f, [0, 0])
    assert n.nrows == 1
    assert polymat.naive_mul(n, f).degree() == MINUS_INF
    assert n.rows[0][0] == [] and n.rows[0][1] != []
    assert degs == [0]


def test_simple_syzygy():
    f = PolyMatrix.from_entries(F7, [[[1]], [[0, 1]]])
    n, degs = minimal_nullspace_basis(f, [0, 1])
    assert n.nrows == 1
    assert polymat.naive_mul(n, f).degree() == MINUS_INF
    # (-X, 1) up to a scalar
    row = n.rows[0]
    assert len(row[0]) == 2 and len(row[1]) == 1
    assert degs == [1]


def test_random_tall_matrices():
    rng = random.Random(1)
    for _ in range(25):
        m = rng.randrange(2, 7)
        n = rng.randrange(1, m)
        f = rand_full_rank(rng, F97, m, n, 3)
        s = shift_bounding(f, rng.randrange(3))
        basis, degs = minimal_nullspace_basis(f, s)
        assert basis.nrows == m - n
        assert polymat.naive_mul(basis, f).degree() == MINUS_INF
        assert polymat.is_reduced(basis, s)
        kernel = oracle.rational_kernel(f)
        for row in kernel.rows:
            assert oracle.reduces_to_zero(row, basis, s)
        assert degs == polymat.shifted_row_degree(basis, s)


def test_minimal_degree_sum_matches_oracle():
    rng = random.Random(2)
    for _ in range(8):
        m = rng.randrange(2, 5)
        n = rng.randrange(1, m)
        f = rand_full_rank(rng, F7, m, n, 2)
        s = shift_bounding(f, rng.randrange(2))
        basis, degs = minimal_nullspace_basis(f, s)
        assert polymat.degree_sum(degs) == oracle_minimal_degree_sum(f, s)


def test_order_basis_past_the_leaf_size(monkeypatch):
    # shift 50 on 6 rows and 2 columns: the order basis has order 150 per
    # column, 300 columns in all, more than a leaf of dnc takes
    rng = random.Random(6)
    f = PolyMatrix.from_entries(
        F97, [[[rng.randrange(97) for _ in range(51)] for _ in range(2)] for _ in range(6)]
    )
    s = shift_bounding(f)
    orders = []
    rec = dnc.interpolation_basis_rec

    def spy(*args):
        orders.append(args[1].order)
        return rec(*args)

    monkeypatch.setattr(dnc, "interpolation_basis_rec", spy)
    basis, degs = minimal_nullspace_basis(f, s)
    assert len(orders) > 1 and orders[0] == 300
    assert basis.nrows == 4
    assert polymat.naive_mul(basis, f).degree() == MINUS_INF
    assert polymat.is_reduced(basis, s)
    assert polymat.degree_sum(degs) == oracle_minimal_degree_sum(f, s)


def test_arbitrary_row_order_and_shift():
    rng = random.Random(3)
    f = rand_full_rank(rng, F97, 5, 2, 3)
    s = shift_bounding(f)
    # scramble: the wrapper must sort internally and unsort the output
    basis, _ = minimal_nullspace_basis(f, s)
    assert polymat.naive_mul(basis, f).degree() == MINUS_INF


def test_input_validation():
    f = PolyMatrix.from_entries(F7, [[[1], [1]]])
    with pytest.raises(ValueError):
        minimal_nullspace_basis(f, [0])  # wide matrix
    g = PolyMatrix.from_entries(F7, [[[1, 1]], [[1]]])
    with pytest.raises(ValueError):
        minimal_nullspace_basis(g, [0, 0])  # shift below row degree
    with pytest.raises(ValueError):
        minimal_nullspace_basis(g, [1])  # arity


def test_rank_deficient_detected():
    f = PolyMatrix.from_entries(F7, [[[]], [[]], [[]]])
    with pytest.raises(ValueError):
        minimal_nullspace_basis(f, [0, 0, 0])


def test_rank_deficient_with_several_columns_is_a_domain_error():
    # column 2 is (X + 3) times column 1: the order basis keeps more than
    # m - n rows that annihilate F exactly, which proves rank F < n
    col = [[1, 2], [5], [0, 0, 1], [7, 1]]
    f = PolyMatrix.from_entries(F97, [[c, F97.poly_mul([3, 1], c)] for c in col])
    with pytest.raises(ValueError, match="column rank deficient"):
        minimal_nullspace_basis(f, [2, 1, 3, 2])
