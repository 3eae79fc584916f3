import math
import random

import numpy as np
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


@pytest.mark.parametrize("engine", ["dnc", "lin", "oracle"])
def test_predicates_take_the_shifts_the_engines_take(engine):
    # at s + c, of any sign, the leading matrix and the predicates read as at
    # s, and the shifted row degrees move by c
    from mibasis import cli, jordan

    rng = random.Random(12)
    j = jordan.JordanRep(F97, ((0, 3), (2, 2), (5, 3)))
    for s in ([-1], [0, 3, 1], [2, 0, 0], [-1, -4, 2]):
        e = [[rng.randrange(97) for _ in range(j.order)] for _ in s]
        basis = cli._solve(engine, e, j, s, F97)
        degs = polymat.shifted_row_degree(basis, s)
        lead = polymat.leading_matrix(basis, s)
        preds = [f(basis, s) for f in (polymat.is_reduced, polymat.is_weak_popov, polymat.is_popov)]
        assert preds[0]
        for c in (-9, -1, 4, 10**20):
            t = [x + c for x in s]
            assert polymat.shifted_row_degree(basis, t) == [d + c for d in degs]
            assert polymat.leading_matrix(basis, t) == lead
            assert [f(basis, t) for f in (polymat.is_reduced, polymat.is_weak_popov, polymat.is_popov)] == preds


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


# p = 7, 65537, both sides of 2^31, 2^61 - 1 and the largest prime below 2^62
PRIMES = (7, 65537, 2**31 - 1, 2**31 + 11, 2**61 - 1, 2**62 - 57)


def _refuse(*args):
    raise AssertionError("the other product kernel ran")


@pytest.fixture(params=["fft", "kron"])
def kernel(request, monkeypatch):
    """mat_mul held to one kernel at every prime: the FFT kernel whatever
    the padding, or Kronecker substitution as when fft_limbs certifies no
    limbs."""
    if request.param == "fft":
        monkeypatch.setattr(polymat, "FFT_MAX_PADDING", math.inf)
        monkeypatch.setattr(polymat, "_mat_mul_kron", _refuse)
    else:
        monkeypatch.setattr(polymat, "fft_limbs", lambda *args: None)
        monkeypatch.setattr(polymat, "_mat_mul_fft", _refuse)
    return request.param


@pytest.mark.parametrize("p", PRIMES)
def test_mat_mul_matches_naive(p, kernel):
    field = PrimeField(p)
    rng = random.Random(p)

    def poly(d):
        return [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]

    def check(b, a):
        assert polymat.mat_mul(b, a) == polymat.naive_mul(b, a)

    # a row of degree 0 beside one of degree ~300, zero entries and a zero
    # row, as the residual products of dnc pass them
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
    check(b, a)
    # inner dimensions 1 and 33
    for inner in (1, 33):
        check(rand_matrix(rng, field, 2, inner, 12), rand_matrix(rng, field, inner, 3, 20))
    # product lengths 63, 64 and 65, around the transform length 64
    for lb, la in ((32, 32), (32, 33), (33, 33)):
        b = PolyMatrix(field, [[poly(lb - 1), poly(lb - 1)]])
        a = PolyMatrix(field, [[poly(la - 1)], [poly(la - 1)]])
        check(b, a)
    # every coefficient p - 1: the inner sums reach the Kronecker digit bound
    b = PolyMatrix(field, [[[p - 1] * 41] * 3] * 4)
    a = PolyMatrix(field, [[[p - 1] * 41] * 2] * 3)
    check(b, a)
    zero = PolyMatrix.zeros(field, 2, 3)
    assert polymat.mat_mul(zero, a) == PolyMatrix.zeros(field, 2, 2)


@pytest.mark.parametrize("p", PRIMES)
def test_fft_product_of_largest_coefficients(p, monkeypatch):
    # every coefficient p - 1, at the longest transform (up to 2^12) that the
    # fewest limbs admit, where the certified round-off is largest
    monkeypatch.setattr(polymat, "_mat_mul_kron", _refuse)
    field = PrimeField(p)
    for inner in (1, 4):
        fewest = polymat.fft_limbs(p, inner, 1, 2)[1]
        n = 2
        while n < 1 << 12 and polymat.fft_limbs(p, inner, n, 2 * n)[1] == fewest:
            n *= 2
        if polymat.fft_limbs(p, inner, n // 2, n)[1] == fewest:
            n //= 2
        b = PolyMatrix(field, [[[p - 1] * n] * inner])
        a = PolyMatrix(field, [[[p - 1] * n]] * inner)
        # coefficient t of the product: inner * (p-1)^2 times the pairs i + j = t
        want = [inner * (min(t, 2 * n - 2 - t) + 1) % p for t in range(2 * n - 1)]
        assert polymat.mat_mul(b, a).rows == [[field.normalize(want)]]


def test_fft_limbs_certify_round_off_below_one_half():
    from decimal import Decimal, getcontext

    getcontext().prec = 60
    eps = Decimal(2) ** -53

    def bound(width, count, inner, shorter, logn):
        """The bound of the fft_limbs docstring, in 60-digit decimals."""
        q = inner * count
        growth = (1 + eps) ** (6 * logn + q) * (1 + eps * Decimal(5).sqrt()) ** (3 * logn + 1) - 1
        return q * (2**width - 1) ** 2 * (Decimal(shorter) * 2**logn).sqrt() * growth

    refused = 0
    for p in PRIMES:
        bits = (p - 1).bit_length()
        for inner in (1, 4, 33, 1000):
            for logn in (0, 1, 5, 10, 16, 24):
                length = 1 << logn
                for shorter in {1, max(length // 2, 1), length}:
                    limbs = polymat.fft_limbs(p, inner, shorter, length)
                    if limbs is None:
                        # not even one-bit limbs are certified: Kronecker
                        assert bound(1, bits, inner, shorter, logn) >= Decimal("0.25")
                        refused += 1
                        continue
                    width, count = limbs
                    assert width * count >= bits
                    assert width * (count - 1) < bits
                    assert bound(width, count, inner, shorter, logn) < Decimal("0.25") < Decimal("0.5")
                    if count > 1:
                        fewer = -(-bits // (count - 1))
                        assert bound(fewer, count - 1, inner, shorter, logn) >= Decimal("0.25")
    assert refused


@pytest.mark.parametrize("p", PRIMES)
def test_shift_add_mod_matches_python_integers(p):
    rng = random.Random(p + 1)
    edge = [0, 1, p - 2, p - 1]
    acc = edge * 4 + [rng.randrange(p) for _ in range(200)]
    d = [x for x in edge for _ in range(4)] + [rng.randrange(p) for _ in range(200)]
    for width in (1, 9, 13, 16, 21, 31, 50):
        # acc * 2^width just above and just below multiples of p, where the
        # float64 quotient may round either way
        ks = [rng.randrange(1, 2**width) for _ in range(100)]
        near = [min(-(-k * p >> width), p - 1) for k in ks] + [k * p >> width for k in ks]
        xs, ys = acc + near, d + d[: len(near)]
        got = polymat._shift_add_mod(np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64), width, p)
        assert got.dtype == np.int64
        assert got.tolist() == [(x * 2**width + y) % p for x, y in zip(xs, ys)]


def test_mat_mul_leaves_padded_products_to_kronecker(monkeypatch):
    rng = random.Random(8)
    field = PrimeField(65537)
    # entries of one length: padding 1, the FFT kernel
    b = rand_matrix(rng, field, 3, 2, 9)
    a = rand_matrix(rng, field, 2, 2, 9)
    with monkeypatch.context() as m:
        m.setattr(polymat, "_mat_mul_kron", _refuse)
        assert polymat.mat_mul(b, a) == polymat.naive_mul(b, a)
    # one entry of length 64 beside seven constants: 8 * 64 padded against
    # 71 stored coefficients in b, and likewise in a
    b = PolyMatrix(field, [[[1] * 64] + [[2]] * 7])
    a = PolyMatrix(field, [[[3]]] * 7 + [[[4] * 64]])
    monkeypatch.setattr(polymat, "_mat_mul_fft", _refuse)
    assert polymat.mat_mul(b, a) == polymat.naive_mul(b, a)


def test_fft_kernel_raises_off_integer_outputs(monkeypatch):
    # the exactness check is a raise, not an assert, so it holds under -O
    rng = random.Random(9)
    b = rand_matrix(rng, F97, 2, 2, 6)
    a = rand_matrix(rng, F97, 2, 2, 6)
    irfft = polymat._np.fft.irfft
    monkeypatch.setattr(polymat._np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
    with pytest.raises(ArithmeticError):
        polymat.mat_mul(b, a)


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
