import random

import pytest

from mibasis.field import PrimeField
from mibasis import polymat, unbalanced
from mibasis.polymat import PolyMatrix

F7 = PrimeField(7)
F97 = PrimeField(97)
F65537 = PrimeField(65537)
F_MERSENNE61 = PrimeField((1 << 61) - 1)


def rand_matrix_with_degrees(rng, field, degrees, cols):
    rows = []
    for d in degrees:
        if d < 0:
            rows.append([[] for _ in range(cols)])
            continue
        row = [
            [rng.randrange(field.p) for _ in range(rng.randrange(d + 2))]
            for _ in range(cols)
        ]
        # force the row degree to be exactly d somewhere
        j = rng.randrange(cols)
        row[j] = [rng.randrange(field.p) for _ in range(d)] + [rng.randrange(1, field.p)]
        rows.append([e[: d + 1] for e in row])
    return PolyMatrix.from_entries(field, rows)


def test_unbalanced_mul_identity_cases():
    rng = random.Random(3)
    a = rand_matrix_with_degrees(rng, F7, [0, 1, 4], 3)
    ident = PolyMatrix.identity(F7, 3)
    assert unbalanced.unbalanced_mul(ident, a, 16) == a
    b = rand_matrix_with_degrees(rng, F7, [2, 2, 1], 3)
    assert unbalanced.unbalanced_mul(b, ident, 16) == b


def test_unbalanced_mul_matches_naive_fixed_profile():
    rng = random.Random(4)
    a = rand_matrix_with_degrees(rng, F7, [0, 1, 4, 9], 4)
    # left operand shaped so its shifted row-degree mass stays within xi=16
    b = PolyMatrix.from_entries(
        F7,
        [
            [[rng.randrange(7) for _ in range(3)], [], [], []],
            [[rng.randrange(7), rng.randrange(7)], [rng.randrange(1, 7)], [], []],
            [[rng.randrange(7)], [rng.randrange(7), rng.randrange(1, 7)], [], []],
            [[], [], [], [rng.randrange(1, 7)]],
        ],
    )
    assert unbalanced.auto_xi(b, a) <= 16
    got = unbalanced.unbalanced_mul(b, a, 16)
    assert got == polymat.naive_mul(b, a)


def test_unbalanced_mul_precondition_violations():
    rng = random.Random(5)
    a = rand_matrix_with_degrees(rng, F7, [5, 5, 5], 3)
    b = rand_matrix_with_degrees(rng, F7, [0, 0, 0], 3)
    with pytest.raises(ValueError):
        unbalanced.unbalanced_mul(b, a, 2)  # xi below dimension
    with pytest.raises(ValueError):
        unbalanced.unbalanced_mul(b, a, 9)  # right operand mass 15 > 9


@pytest.mark.parametrize("field", [F97, F65537, F_MERSENNE61], ids=lambda f: str(f.p))
def test_unbalanced_mul_random_sweep(field):
    rng = random.Random(6)
    for trial in range(120):
        m = rng.randrange(1, 7)
        bdegs = [rng.choice([-1, 0, 1, 2, 4]) for _ in range(m)]
        profile_kind = trial % 5
        if profile_kind == 0:
            degs = [rng.randrange(5)] * m
        elif profile_kind == 1:
            degs = [0] * m
            degs[rng.randrange(m)] = rng.randrange(10, 25)
        elif profile_kind == 2:
            degs = [rng.choice([-1, 0, 1, 3]) for _ in range(m)]
        elif profile_kind == 3:
            degs = [rng.randrange(6) for _ in range(m)]
        else:
            m = 4
            degs = [rng.randrange(3), rng.randrange(4), rng.randrange(8), rng.randrange(12, 17)]
            bdegs = [rng.randrange(4, 12) for _ in range(m)]
        a = rand_matrix_with_degrees(rng, field, degs, m)
        b = rand_matrix_with_degrees(rng, field, bdegs, m)
        xi = max(unbalanced.auto_xi(b, a), m, rng.randrange(m, 41))
        assert unbalanced.unbalanced_mul(b, a, xi) == polymat.naive_mul(b, a)


def test_unbalanced_mul_rectangular():
    rng = random.Random(7)
    b = rand_matrix_with_degrees(rng, F7, [2, 0], 3)  # 2x3
    a = rand_matrix_with_degrees(rng, F7, [1, 0, 3], 5)  # 3x5
    got = unbalanced.unbalanced_mul_auto(b, a)
    assert got == polymat.naive_mul(b, a)


def test_bucket_partition_is_exhaustive_and_disjoint():
    # an identity left factor returns every row of a, zero rows included
    rng = random.Random(8)
    for _ in range(30):
        m = rng.randrange(1, 7)
        degs = [rng.choice([-1, 0, 1, 2, 5, 9, 17]) for _ in range(m)]
        a = rand_matrix_with_degrees(rng, F7, degs, m)
        b = PolyMatrix.identity(F7, m)
        xi = max(m, unbalanced.auto_xi(b, a))
        assert unbalanced.unbalanced_mul(b, a, xi) == a
