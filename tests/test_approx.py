import random

import pytest

from mibasis.field import MINUS_INF, PrimeField
from mibasis import approx, dnc, jordan, oracle, polymat
from mibasis.approx import ApproximantInstance
from mibasis.linearization import lin_interp_basis
from mibasis.polymat import PolyMatrix

F97 = PrimeField(97)
F7 = PrimeField(7)
F61 = PrimeField(2**61 - 1)


def hp_jordan_instance(f: PolyMatrix, orders):
    # coefficient packing of a truncated-product instance: one nilpotent
    # block per column, evaluation columns are the coefficient vectors
    field = f.field
    e = []
    for row in f.rows:
        packed = []
        for e_poly, o in zip(row, orders):
            packed.extend((e_poly + [0] * o)[:o])
        e.append(packed)
    return e, jordan.JordanRep(field, tuple((0, o) for o in orders))


def check_order_conditions(basis: PolyMatrix, f: PolyMatrix, orders):
    field = f.field
    for brow in basis.rows:
        for j, o in enumerate(orders):
            acc = []
            for e, frow in zip(brow, f.rows):
                acc = field.poly_add(acc, field.poly_mul(e, frow[j]))
            assert not field.poly_trunc(acc, o)


def rand_instance(rng, field, m, n, max_order, max_shift):
    orders = sorted((rng.randrange(1, max_order + 1) for _ in range(n)), reverse=True)
    f = PolyMatrix.from_entries(
        field,
        [
            [[rng.randrange(field.p) for _ in range(rng.randrange(o + 1))] for o in orders]
            for _ in range(m)
        ],
    )
    shift = [rng.randrange(max_shift + 1) for _ in range(m)]
    return ApproximantInstance(f, tuple(orders), tuple(shift))


def popov_basis(inst):
    e, rep = hp_jordan_instance(inst.f, inst.orders)
    delta = 1
    while delta < max(jordan.minpoly_degree(rep), 1):
        delta *= 2
    popov, _ = lin_interp_basis(e, rep, list(inst.shift), delta, inst.f.field)
    return popov


def test_mbasis_zero_input_gives_identity():
    inst = ApproximantInstance(PolyMatrix.zeros(F7, 3, 2), (4, 2), (0, 1, 0))
    assert approx.mbasis(inst) == PolyMatrix.identity(F7, 3)
    assert approx.pm_basis(inst) == PolyMatrix.identity(F7, 3)


def test_zero_rows_give_the_empty_basis():
    inst = ApproximantInstance(PolyMatrix(F7, [], 2), (3, 2), ())
    assert approx.mbasis(inst) == PolyMatrix(F7, [])
    assert approx.pm_basis(inst) == PolyMatrix(F7, [])


def test_mbasis_constant_column_kernel():
    inst = ApproximantInstance(
        PolyMatrix.from_entries(F7, [[[1]], [[2]], [[3]]]), (1,), (0, 0, 0)
    )
    expected = PolyMatrix.from_entries(F7, [[[0, 1], [], []], [[5], [1], []], [[4], [], [1]]])
    assert approx.mbasis(inst) == expected


def test_single_unit_column_gives_x_power():
    for sigma in (1, 3, 7):
        inst = ApproximantInstance(
            PolyMatrix.from_entries(F7, [[[1]]]), (sigma,), (0,)
        )
        expected = PolyMatrix.from_entries(F7, [[[0] * sigma + [1]]])
        assert approx.mbasis(inst) == expected
        assert approx.pm_basis(inst) == expected


REFERENCE_F = [[[27, 49, 29]], [[50, 58]], [[77, 10, 29]]]


def test_pm_basis_order_three_fixture():
    f = PolyMatrix.from_entries(F97, REFERENCE_F)
    inst = ApproximantInstance(f, (3,), (0, 0, 0))
    basis = approx.pm_basis(inst)
    degs = polymat.shifted_row_degree(basis, [0, 0, 0])
    assert sorted(degs) == [0, 1, 2]
    assert polymat.is_reduced(basis, [0, 0, 0])
    check_order_conditions(basis, f, (3,))
    e, rep = hp_jordan_instance(f, (3,))
    expected = PolyMatrix.from_entries(
        F97,
        [
            [[0, 36, 1], [0, 31], []],
            [[13, 3], [57, 1], []],
            [[96], [96], [1]],
        ],
    )
    assert oracle.module_equivalent(basis, expected, e, rep, [0, 0, 0])


def test_mbasis_and_pm_basis_are_module_equivalent():
    rng = random.Random(1)
    for _ in range(20):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 3)
        inst = rand_instance(rng, F97, m, n, 6, 3)
        b1 = approx.mbasis(inst)
        b2 = approx.pm_basis(inst)
        e, rep = hp_jordan_instance(inst.f, inst.orders)
        assert oracle.module_equivalent(b1, b2, e, rep, list(inst.shift))


def test_output_satisfies_order_conditions_and_reducedness():
    rng = random.Random(2)
    for _ in range(25):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 4)
        inst = rand_instance(rng, F7, m, n, 5, 4)
        for basis in (approx.mbasis(inst), approx.pm_basis(inst)):
            check_order_conditions(basis, inst.f, inst.orders)
            s = list(inst.shift)
            degs = polymat.shifted_row_degree(basis, s)
            assert all(d != MINUS_INF for d in degs)
            assert polymat.is_reduced(basis, s)
            detdeg = oracle.determinant_degree(basis)
            assert detdeg == polymat.degree_sum(degs) - sum(s)
            assert detdeg <= sum(inst.orders)


def test_agreement_with_linearization_engine():
    # the approximant module equals the interpolant module of the packed
    # nilpotent instance, so the Popov forms coincide
    rng = random.Random(3)
    for _ in range(15):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 3)
        inst = rand_instance(rng, F97, m, n, 8, 4)
        basis = approx.pm_basis(inst)
        e, rep = hp_jordan_instance(inst.f, inst.orders)
        assert oracle.module_equivalent(basis, popov_basis(inst), e, rep, list(inst.shift))


def test_unequal_orders_preserve_module():
    rng = random.Random(4)
    for _ in range(10):
        inst = rand_instance(rng, F97, 4, 2, 8, 3)
        if inst.orders[0] == inst.orders[1]:
            continue
        basis = approx.pm_basis(inst)
        check_order_conditions(basis, inst.f, inst.orders)
        e, rep = hp_jordan_instance(inst.f, inst.orders)
        assert all(
            not any(v for v in row)
            for row in oracle.naive_residual(rep, basis, e)
        )


@pytest.mark.parametrize("field", [F97, F61], ids=["p97", "p61"])
@pytest.mark.parametrize(
    "orders, shift", [((150, 90), (0, 0, 0)), ((120, 100, 40), (3, 0, 7, 1, 2))]
)
def test_orders_past_the_leaf_size(monkeypatch, field, orders, shift):
    # sum(orders) columns exceed a leaf of max(8m, 128), so pm_basis
    # cuts the instance and multiplies the halves
    rng = random.Random(sum(orders))
    f = PolyMatrix.from_entries(
        field, [[[rng.randrange(field.p) for _ in range(o)] for o in orders] for _ in shift]
    )
    inst = ApproximantInstance(f, orders, shift)
    calls = []
    rec = dnc.interpolation_basis_rec

    def spy(*args):
        calls.append(args[1].order)
        return rec(*args)

    monkeypatch.setattr(dnc, "interpolation_basis_rec", spy)
    basis = approx.pm_basis(inst)
    assert len(calls) > 1 and calls[0] == sum(orders)
    e, rep = hp_jordan_instance(f, orders)
    popov = popov_basis(inst)
    for b in (basis, approx.mbasis(inst)):
        check_order_conditions(b, f, orders)
        s = list(shift)
        degs = polymat.shifted_row_degree(b, s)
        assert all(d != MINUS_INF for d in degs)
        assert polymat.is_reduced(b, s)
        detdeg = oracle.determinant_degree(b)
        assert detdeg == polymat.degree_sum(degs) - sum(s) <= sum(orders)
        assert oracle.module_equivalent(b, popov, e, rep, s)


def test_instance_validation():
    f = PolyMatrix.from_entries(F7, [[[1, 1, 1]]])
    with pytest.raises(ValueError):
        ApproximantInstance(f, (2,), (0,))  # degree exceeds order
    with pytest.raises(ValueError):
        ApproximantInstance(f, (3, 1), (0,))  # wrong arity
    with pytest.raises(ValueError):
        ApproximantInstance(f, (0,), (0,))
    f2 = PolyMatrix.from_entries(F7, [[[1], [1]]])
    with pytest.raises(ValueError):
        ApproximantInstance(f2, (1, 2), (0,))  # orders must not increase
