import random

import numpy as np
import pytest

from mibasis.field import MINUS_INF, PrimeField
from mibasis import cli, jordan, oracle, polymat
from mibasis.polymat import PolyMatrix

F97 = PrimeField(97)
F7 = PrimeField(7)

EVALS = [
    [27, 49, 29],
    [50, 58, 0],
    [77, 10, 29],
]

REFERENCE_BASIS = [
    [[0, 36, 1], [0, 31], []],
    [[13, 3], [57, 1], []],
    [[96], [96], [1]],
]


def nilpotent3():
    return jordan.JordanRep(F97, ((0, 3),))


def test_striped_krylov_uniform_display():
    kry = oracle.striped_krylov(EVALS, nilpotent3(), [0, 0, 0], 3, F97)
    assert kry == [
        [27, 49, 29],
        [50, 58, 0],
        [77, 10, 29],
        [0, 27, 49],
        [0, 50, 58],
        [0, 77, 10],
        [0, 0, 27],
        [0, 0, 50],
        [0, 0, 77],
        [0, 0, 0],
        [0, 0, 0],
        [0, 0, 0],
    ]


def test_striped_krylov_staircase_display():
    kry = oracle.striped_krylov(EVALS, nilpotent3(), [0, 3, 6], 3, F97)
    assert kry == [
        [27, 49, 29],
        [0, 27, 49],
        [0, 0, 27],
        [0, 0, 0],
        [50, 58, 0],
        [0, 50, 58],
        [0, 0, 50],
        [0, 0, 0],
        [77, 10, 29],
        [0, 77, 10],
        [0, 0, 77],
        [0, 0, 0],
    ]


def test_striped_krylov_zero_mulmat():
    kry = oracle.striped_krylov([[1, 2]], [[0, 0], [0, 0]], [0], 1, F97)
    assert kry == [[1, 2], [0, 0]]


def test_oracle_popov_matches_lin_engine():
    from mibasis.linearization import lin_interp_basis

    basis, mindeg = oracle.oracle_popov(EVALS, nilpotent3(), [0, 0, 0], F97)
    fast, fast_mindeg = lin_interp_basis(EVALS, nilpotent3(), [0, 0, 0], 4, F97)
    assert basis == fast and mindeg == fast_mindeg == [2, 1, 0]
    assert polymat.is_popov(basis, [0, 0, 0])


def test_oracle_order_and_assembly_match_lin_on_random_shifts():
    # the oracle keeps its own row order and Popov assembly, so that a bug in
    # the engine's copy cannot pass both
    from mibasis import linearization as lin

    rng = random.Random(12)
    for _ in range(30):
        m = rng.randrange(1, 5)
        sigma = rng.randrange(1, 12)
        s = [rng.choice([0, 1, 2, 5, 10**6]) for _ in range(m)]
        order = oracle._priority_pairs(s, m, sigma)
        assert [lin.priority_index(s, sigma, c, d) for c, d in order] == list(range(len(order)))
        pairs, left = [], sigma
        while left:
            size = rng.randrange(1, left + 1)
            pairs.append((rng.randrange(4), size))
            left -= size
        j = jordan.JordanRep(F97, tuple(pairs))
        e = [[rng.randrange(97) for _ in range(sigma)] for _ in range(m)]
        delta = 1 << (sigma - 1).bit_length()
        expected = lin.lin_interp_basis(e, j, s, delta, F97)
        assert oracle.oracle_popov(e, j, s, F97) == expected
        assert oracle.oracle_popov(e, jordan.to_dense(j), s, F97) == expected
        assert polymat.is_popov(expected[0], s)


@pytest.mark.parametrize("engine", ["dnc", "lin", "oracle"])
@pytest.mark.parametrize(
    "e, message, mulmat, shift",
    [
        ([], "at least one evaluation row is required", nilpotent3(), []),
        ([[1, 2]], "column count of E must match the order of M", nilpotent3(), [0]),
        ([[1, 2, 3, 4]], "column count of E must match the order of M", nilpotent3(), [0]),
        ([[1, 2, 3], [4, 5]], "column count of E must match the order of M", nilpotent3(), [0, 0]),
        # a Jordan matrix over F_7 under the field F_97
        ([[1, 2, 3]], "field does not match the Jordan matrix", jordan.JordanRep(F7, ((0, 3),)), [0]),
        ([[1, 2, 3], [4, 5, 6]], "a dense multiplication matrix must be square", [[0, 1, 0, 0]] * 3, [0, 0]),
        ([[1, 2, 3], [4, 5, 6]], "the shift needs 2 entries", nilpotent3(), [0]),
        ([[1, 2, 3], [4, 5, 6]], "the shift needs 2 entries", nilpotent3(), [0, 1, 2]),
        ([[1, 2, 3], [4, 5, 6]], "shift entries must be integers", nilpotent3(), [0, 0.5]),
        ([[1, 2, 3], [4, 5, 6]], "shift entries must be integers", nilpotent3(), ["1", 0]),
    ],
)
def test_engines_give_the_same_domain_errors(engine, e, message, mulmat, shift):
    from mibasis.dnc import interpolation_basis
    from mibasis.linearization import lin_interp_basis

    mulmats = [mulmat]
    # lin and the oracle take a dense M as well
    if engine != "dnc" and isinstance(mulmat, jordan.JordanRep) and mulmat.field == F97:
        mulmats.append(jordan.to_dense(mulmat))
    for mulmat in mulmats:
        with pytest.raises(ValueError, match=f"^{message}$"):
            if engine == "dnc":
                interpolation_basis(e, mulmat, shift, F97)
            elif engine == "lin":
                lin_interp_basis(e, mulmat, shift, 4, F97)
            else:
                oracle.oracle_popov(e, mulmat, shift, F97)


@pytest.mark.parametrize("engine", ["dnc", "lin", "oracle"])
@pytest.mark.parametrize("p", [97, 65537, (1 << 61) - 1])
def test_evaluations_beyond_int64_give_the_reduced_bytes(engine, p):
    # lists of Python integers past int64, and a uint64 array past 2^63,
    # which int64 words would wrap to negative values
    field = PrimeField(p)
    rng = random.Random(p)
    j = jordan.JordanRep(field, ((0, 4), (3, 2), (0, 1), (11, 3)))
    e = [[rng.randrange(p) for _ in range(j.order)] for _ in range(3)]
    shift = [0, 2, 1]
    for raw in (
        [[a + rng.randrange(1, 1 << 30) * 2**64 for a in row] for row in e],
        [[a - 2**70 for a in row] for row in e],
        np.array(e, dtype=np.uint64) + np.uint64(2**63 + 5),
        np.array(e, dtype=np.uint64),
    ):
        reduced = [[int(a) % p for a in row] for row in raw]
        expected = repr(cli._solve(engine, reduced, j, shift, field).rows)
        assert repr(cli._solve(engine, raw, j, shift, field).rows) == expected


@pytest.mark.parametrize("engine", ["dnc", "lin", "oracle"])
def test_shifts_offset_by_a_constant_give_the_normalized_bytes(engine):
    # s-Popov forms and s-reduced degrees do not change when a constant is
    # added to s, negative entries included
    rng = random.Random(5)
    j = jordan.JordanRep(F97, ((0, 3), (2, 2), (5, 3), (2, 1)))
    e = [[rng.randrange(97) for _ in range(j.order)] for _ in range(3)]
    for base in ([0, 3, 1], [2, 0, 0], [0, 0, 0]):
        expected = repr(cli._solve(engine, e, j, base, F97).rows)
        for c in (-9, -1, 4, 10**20):
            offset = [s + c for s in base]
            assert repr(cli._solve(engine, e, j, offset, F97).rows) == expected
        assert repr(cli._solve(engine, e, j, np.array(base) - 5, F97).rows) == expected


def test_dnc_rejects_a_dense_multiplication_matrix_after_the_shared_checks():
    from mibasis.dnc import interpolation_basis

    dense = jordan.to_dense(nilpotent3())
    with pytest.raises(ValueError, match="^dnc requires a Jordan multiplication matrix$"):
        interpolation_basis([[1, 2, 3]], dense, [0], F97)
    for e, message, mulmat in (
        ([], "at least one evaluation row is required", dense),
        ([[1, 2]], "column count of E must match the order of M", dense),
        ([[1, 2, 3]], "a dense multiplication matrix must be square", [[0, 1, 0, 0]] * 3),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            interpolation_basis(e, mulmat, [0] * len(e), F97)


def test_sigma_zero_gives_identity_on_every_engine():
    # no interpolation conditions: every row is an interpolant
    from mibasis.dnc import interpolation_basis
    from mibasis.linearization import lin_interp_basis

    for field in (F97, PrimeField((1 << 61) - 1)):
        j = jordan.JordanRep(field, ())
        e = [[], []]
        ident = PolyMatrix.identity(field, 2)
        for s in ([0, 0], [0, 3]):
            assert interpolation_basis(e, j, s, field) == ident
            assert lin_interp_basis(e, j, s, 1, field) == (ident, [0, 0])
            assert lin_interp_basis(e, [], s, 1, field) == (ident, [0, 0])
            assert oracle.oracle_popov(e, j, s, field) == (ident, [0, 0])
            assert oracle.oracle_popov(e, [], s, field) == (ident, [0, 0])


def test_oracle_popov_reduces_unreduced_dense_input():
    # entries x + k*p far beyond 2^53 after one product: the result must be
    # the basis of the reduced input, since the Popov form is unique
    field = PrimeField(65537)
    rng = random.Random(9)
    e = [[rng.randrange(field.p) for _ in range(12)] for _ in range(3)]
    dense = [[rng.randrange(field.p) for _ in range(12)] for _ in range(12)]

    def lift(rows):
        return [[x + rng.randrange(10**9) * field.p for x in row] for row in rows]

    expected = oracle.oracle_popov(e, dense, [0, 1, 2], field)
    assert oracle.oracle_popov(lift(e), lift(dense), [0, 1, 2], field) == expected


def test_oracle_popov_fixed_point():
    basis, _ = oracle.oracle_popov(EVALS, nilpotent3(), [0, 0, 0], F97)
    again, _ = oracle.oracle_popov(EVALS, nilpotent3(), [0, 0, 0], F97)
    assert basis == again


def test_naive_residual_reference_basis_vanishes():
    basis = PolyMatrix.from_entries(F97, REFERENCE_BASIS)
    res = oracle.naive_residual(nilpotent3(), basis, EVALS)
    assert res == [[0, 0, 0]] * 3


def test_naive_residual_identity():
    ident = PolyMatrix.identity(F97, 3)
    assert oracle.naive_residual(nilpotent3(), ident, EVALS) == EVALS


def test_naive_residual_single_row():
    row = PolyMatrix.from_entries(F97, [[[96], [96], [1]]])
    assert oracle.naive_residual(nilpotent3(), row, EVALS) == [[0, 0, 0]]


def test_module_equivalent_reflexive_and_popov():
    basis = PolyMatrix.from_entries(F97, REFERENCE_BASIS)
    popov, _ = oracle.oracle_popov(EVALS, nilpotent3(), [0, 0, 0], F97)
    assert oracle.module_equivalent(basis, basis, EVALS, nilpotent3(), [0, 0, 0])
    assert oracle.module_equivalent(basis, popov, EVALS, nilpotent3(), [0, 0, 0])
    ident = PolyMatrix.identity(F97, 3)
    assert not oracle.module_equivalent(basis, ident, EVALS, nilpotent3(), [0, 0, 0])


def test_determinant_degree():
    m = PolyMatrix.from_entries(F7, [[[0, 1], [1]], [[], [0, 0, 1]]])
    assert oracle.determinant_degree(m) == 3
    singular = PolyMatrix.from_entries(F7, [[[1], [1]], [[1], [1]]])
    assert oracle.determinant_degree(singular) == MINUS_INF


def test_rational_kernel_column_pair():
    f = PolyMatrix.from_entries(F7, [[[1]], [[0, 1]]])
    ker = oracle.rational_kernel(f)
    assert ker.nrows == 1
    # (-X, 1) up to normalization
    row = ker.rows[0]
    prod = polymat.naive_mul(ker, f)
    assert prod.is_zero()
    assert row[1] == [1] and row[0] == [0, 6]


def test_rational_kernel_block_elimination():
    rng = random.Random(1)
    a = PolyMatrix.from_entries(
        F7, [[[rng.randrange(7) for _ in range(3)] for _ in range(2)] for _ in range(2)]
    )
    stacked = PolyMatrix.identity(F7, 2).vstack(a)
    ker = oracle.rational_kernel(stacked)
    assert ker.nrows == 2
    assert polymat.naive_mul(ker, stacked).is_zero()


def test_rational_kernel_random_self_check():
    rng = random.Random(2)
    for _ in range(10):
        f = PolyMatrix.from_entries(
            F7,
            [
                [[rng.randrange(7) for _ in range(rng.randrange(1, 4))] for _ in range(2)]
                for _ in range(4)
            ],
        )
        try:
            ker = oracle.rational_kernel(f)
        except ValueError:
            continue
        assert ker.nrows == 2
        assert polymat.naive_mul(ker, f).is_zero()


def test_rational_kernel_rejects_rank_deficient():
    f = PolyMatrix.from_entries(F7, [[[1], [1]], [[1], [1]], [[2], [2]]])
    with pytest.raises(ValueError):
        oracle.rational_kernel(f)


def test_weak_popov_form_and_membership():
    basis = PolyMatrix.from_entries(F97, REFERENCE_BASIS)
    wp = oracle.weak_popov_form(basis, [0, 0, 0])
    assert polymat.is_weak_popov(wp, [0, 0, 0])
    # any polynomial combination of the rows reduces to zero
    f = F97
    combo = [
        f.poly_add(
            f.poly_mul([3, 1], basis.rows[0][j]),
            f.poly_mul([0, 0, 2], basis.rows[2][j]),
        )
        for j in range(3)
    ]
    assert oracle.reduces_to_zero(combo, basis, [0, 0, 0])
    assert not oracle.reduces_to_zero([[1], [], []], basis, [0, 0, 0])
