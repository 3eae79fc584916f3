import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from mibasis.field import MINUS_INF, PrimeField, is_prime

F97 = PrimeField(97)
F7 = PrimeField(7)


def schoolbook_reference(f, g, p):
    # independent convolution used as the multiplication oracle
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def long_division_reference(f, g, p):
    # plain long division, kept independent of PrimeField.poly_divmod
    r = f[:]
    dg = len(g) - 1
    inv = pow(g[-1], p - 2, p)
    while len(r) - 1 >= dg and r:
        c = r[-1] * inv % p
        shift = len(r) - 1 - dg
        for j, gc in enumerate(g):
            r[shift + j] = (r[shift + j] - c * gc) % p
        while r and r[-1] == 0:
            r.pop()
    return r


def rand_poly(rng, field, deg):
    return field.poly([rng.randrange(field.p) for _ in range(deg + 1)])


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(91)
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField((1 << 62) + 81)
    assert is_prime(2305843009213693951)  # 2**61 - 1


def test_mul_binomial_identity():
    assert F97.poly_mul([1, 1], [1, 1]) == [1, 2, 1]


def test_mul_by_one_is_identity():
    rng = random.Random(1)
    for _ in range(20):
        f = rand_poly(rng, F7, rng.randrange(9))
        assert F7.poly_mul(f, [1]) == f


def test_mul_matches_schoolbook_oracle():
    rng = random.Random(2)
    for _ in range(50):
        f = rand_poly(rng, F7, 7)
        g = rand_poly(rng, F7, 7)
        assert F7.poly_mul(f, g) == schoolbook_reference(f, g, 7)


@pytest.mark.parametrize("p", [65537, (1 << 61) - 1, 4611686018427322369])
def test_mul_kernels_match_schoolbook(p):
    # 65537 takes the numpy convolution, the 61- and 62-bit primes Kronecker
    # substitution
    fld = PrimeField(p)
    rng = random.Random(3)
    for n in (1, 31, 32, 100, 257):
        f = rand_poly(rng, fld, n - 1)
        g = rand_poly(rng, fld, n - 1)
        assert fld.poly_mul(f, g) == schoolbook_reference(f, g, p)
        assert fld.poly_mul(f, g[:5]) == schoolbook_reference(f, g[:5], p)
    top = [p - 1] * 257
    assert fld.poly_mul(top, top) == schoolbook_reference(top, top, p)


def test_long_product_small_field():
    # (p-1)^2 * 76 is far below 2^63: the int64 convolution path
    rng = random.Random(4)
    f = rand_poly(rng, F7, 90)
    g = rand_poly(rng, F7, 75)
    assert F7.poly_mul(f, g) == schoolbook_reference(f, g, 7)


def test_mul_large_prime_pure_python_path():
    p = (1 << 61) - 1
    fld = PrimeField(p)
    rng = random.Random(5)
    f = rand_poly(rng, fld, 40)
    g = rand_poly(rng, fld, 37)
    assert fld.poly_mul(f, g) == schoolbook_reference(f, g, p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    mk = st.lists(st.integers(min_value=0, max_value=6), max_size=8)
    f = F7.poly(data.draw(mk))
    g = F7.poly(data.draw(mk))
    h = F7.poly(data.draw(mk))
    assert F7.poly_mul(f, g) == F7.poly_mul(g, f)
    assert F7.poly_mul(F7.poly_mul(f, g), h) == F7.poly_mul(f, F7.poly_mul(g, h))
    assert F7.poly_mul(f, F7.poly_add(g, h)) == F7.poly_add(
        F7.poly_mul(f, g), F7.poly_mul(f, h)
    )
    if f and g:
        assert F7.deg(F7.poly_mul(f, g)) == F7.deg(f) + F7.deg(g)


def test_degree_of_zero_is_minus_inf():
    assert F7.deg([]) == MINUS_INF
    assert F7.deg([3]) == 0


def test_taylor_shift_square():
    assert F7.taylor_shift([0, 0, 1], 1) == [1, 2, 1]


def test_taylor_shift_at_zero():
    f = [3, 1, 4, 1]
    assert F7.taylor_shift(f, 0) == f


def test_taylor_shift_matches_binomial_expansion():
    rng = random.Random(6)
    f = rand_poly(rng, F97, 6)
    x = 3
    expected = []
    for i, c in enumerate(f):
        # c * (X + 3)^i expanded term by term
        term = [1]
        for _ in range(i):
            term = schoolbook_reference(term, [x, 1], 97)
        term = [c * t % 97 for t in term]
        n = max(len(expected), len(term))
        expected = [
            ((expected[k] if k < len(expected) else 0) + (term[k] if k < len(term) else 0)) % 97
            for k in range(n)
        ]
    while expected and expected[-1] == 0:
        expected.pop()
    assert F97.taylor_shift(f, x) == expected


def test_taylor_shift_round_trip_and_degree():
    rng = random.Random(7)
    for _ in range(10):
        f = rand_poly(rng, F97, rng.randrange(1, 40))
        x = rng.randrange(97)
        shifted = F97.taylor_shift(f, x)
        assert F97.deg(shifted) == F97.deg(f)
        assert F97.taylor_shift(shifted, (-x) % 97) == f


@pytest.mark.parametrize("p", [97, 65537, 2**61 - 1])
def test_taylor_shift_matches_horner_at_every_length(p):
    # Horner's rule on g from its top coefficient down holds, after n steps,
    # the shift of g[300 - n:]: one pass gives the reference for lengths
    # 1..300, every split point and base case of taylor_shift included;
    # runs of zeros make the low halves shorter than their split
    field = PrimeField(p)
    rng = random.Random(p)
    g = [rng.randrange(p) if rng.random() < 0.8 else 0 for _ in range(299)]
    g.append(1 + rng.randrange(p - 1))
    g[100:140] = [0] * 40
    for x in (1, p - 1, rng.randrange(2, p - 1)):
        ref: list[int] = []
        for n in range(1, 301):
            c = g[300 - n]
            ref = [(a + x * b) % p for a, b in zip([0] + ref, ref + [0])]
            ref[0] = (ref[0] + c) % p
            assert field.taylor_shift(g[300 - n :], x) == ref, (x, n)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_taylor_shift_is_ring_homomorphism(data):
    mk = st.lists(st.integers(min_value=0, max_value=96), max_size=10)
    f = F97.poly(data.draw(mk))
    g = F97.poly(data.draw(mk))
    x = data.draw(st.integers(min_value=0, max_value=96))
    assert F97.taylor_shift(F97.poly_mul(f, g), x) == F97.poly_mul(
        F97.taylor_shift(f, x), F97.taylor_shift(g, x)
    )


def test_multi_mod_examples():
    assert F7.multi_mod([0, 0, 0, 1], [[0, 0, 1], [6, 1]]) == [[], [1]]
    # moduli of the form X - a return evaluations
    f = [3, 2, 5]
    rems = F7.multi_mod(f, [[(-a) % 7, 1] for a in range(5)])
    assert [r[0] if r else 0 for r in rems] == [F7.poly_eval(f, a) for a in range(5)]


def test_multi_mod_matches_long_division():
    rng = random.Random(8)
    f = rand_poly(rng, F97, 20)
    moduli = [rand_poly(rng, F97, rng.randrange(1, 5)) for _ in range(4)]
    moduli = [m if m and len(m) > 1 else [1, 1] for m in moduli]
    assert F97.multi_mod(f, moduli) == [long_division_reference(f, m, 97) for m in moduli]


def test_multi_mod_rejects_zero_modulus():
    with pytest.raises(ValueError):
        F7.multi_mod([1, 1], [[1, 1], []])


def test_crt_degree_one_interpolation():
    # residues 3 at X=0 and 5 at X=1 give 3 + 2X
    assert F7.crt([[3], [5]], [[0, 1], [6, 1]]) == [3, 2]


def test_crt_single_modulus():
    assert F7.crt([[4, 2]], [[1, 0, 1]]) == [4, 2]


def test_crt_round_trip_with_multi_mod():
    # many rows against one set of moduli (X - a)^s; long division agrees
    rng = random.Random(9)
    for p, sizes in itertools.product(
        [97, (1 << 61) - 1], [[1, 2, 5, 1, 2], [2, 1, 3], [5]]
    ):
        fld = PrimeField(p)
        pts = rng.sample(range(min(p, 1 << 30)), len(sizes))
        moduli = [fld.poly_pow([(-a) % p, 1], s) for a, s in zip(pts, sizes)]
        for _ in range(6):
            f = rand_poly(rng, fld, sum(sizes) - 1)
            rems = fld.multi_mod(f, moduli)
            assert rems == [long_division_reference(f, m, p) for m in moduli]
            assert fld.crt(rems, moduli) == f
            assert fld.multi_mod(fld.crt(rems, moduli), moduli) == rems
            g = rand_poly(rng, fld, 3 * sum(sizes))
            assert fld.multi_mod(g, moduli) == [long_division_reference(g, m, p) for m in moduli]


def test_crt_rejects_non_coprime_moduli():
    with pytest.raises(ValueError):
        F7.crt([[1], [2]], [[0, 1], [0, 0, 1]])
    # X and X^2 share a factor, with X + 1 between them
    moduli = [[0, 1], [1, 1], [0, 0, 1]]
    with pytest.raises(ValueError):
        F7.crt([[1], [2], [3]], moduli)


def test_binomial_lucas():
    fld = F7
    for n in range(60):
        row = 1
        for k in range(n + 1):
            # reference via Pascal recurrence over the integers
            from math import comb

            assert fld.binomial(n, k) == comb(n, k) % 7
    big = PrimeField((1 << 61) - 1)
    from math import comb

    assert big.binomial(10**6, 3) == comb(10**6, 3) % ((1 << 61) - 1)
    # n < p: one inversion of the denominator product per binomial
    for n in range(64):
        for k in range(n + 1):
            assert big.binomial(n, k) == comb(n, k) % big.p


@pytest.mark.parametrize("p", [7, 65537])
def test_binomial_matches_comb_below_and_past_p(p):
    from math import comb

    fld = PrimeField(p)
    rng = random.Random(p)
    for n in [rng.randrange(p) for _ in range(30)] + [rng.randrange(p, 3 * p * p) for _ in range(30)]:
        for k in (0, 1, 2, n // 3, n % p, n - 1, n, rng.randrange(n + 1)):
            if 0 <= k <= n and (n < p or min(k, n - k) <= 2000):
                assert fld.binomial(n, k) == comb(n, k) % p
        assert fld.binomial(n, n + 1) == 0 and fld.binomial(n, -1) == 0


@pytest.mark.parametrize("p", [65537, (1 << 61) - 1, 4611686018427322369])
def test_inv_round_trip(p):
    field = PrimeField(p)
    rng = random.Random(p)
    for a in [1, 2, p - 1] + [rng.randrange(1, p) for _ in range(50)]:
        assert field.inv(a) * a % p == 1
        assert field.inv(a + 3 * p) == field.inv(a)
    for zero in (0, p):
        with pytest.raises(ZeroDivisionError):
            field.inv(zero)


@pytest.mark.parametrize("p", [7, 97, (1 << 31) - 1, (1 << 61) - 1])
def test_crt_and_multi_mod_are_inverse_bijections(p):
    # moduli (X - a)^s at distinct a, s = 0..5: s = 0 gives the constant
    # modulus 1, whose only residue is the zero polynomial
    fld = PrimeField(p)
    rng = random.Random(p)
    for sizes in ([0, 1, 2, 3, 4, 5], [5, 0], [3, 1, 0, 2], [0], [4]):
        pts = rng.sample(range(min(p, 1 << 30)), len(sizes))
        moduli = [fld.poly_pow([(-a) % p, 1], s) for a, s in zip(pts, sizes)]
        for _ in range(4):
            f = rand_poly(rng, fld, sum(sizes) - 1)
            assert fld.crt(fld.multi_mod(f, moduli), moduli) == f
            r = [rand_poly(rng, fld, s - 1) for s in sizes]
            assert fld.multi_mod(fld.crt(r, moduli), moduli) == r


def test_crt_and_multi_mod_of_no_moduli():
    assert F7.crt([], []) == []
    assert F7.multi_mod([1, 2, 3], []) == []


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: F7.crt([[1]], [[0, 1], [1, 1]]), "residue/modulus count mismatch"),
        (lambda: F7.crt([[1], [2], [3]], [[0, 1], [1, 1]]), "residue/modulus count mismatch"),
        (lambda: F7.crt([[1, 1]], [[0, 1]]), "residue degree not below modulus degree"),
        (lambda: F7.crt([[1], [2]], [[1], [0, 1]]), "residue degree not below modulus degree"),
        (lambda: F7.crt([[1], []], [[0, 1], []]), "zero modulus"),
        (lambda: F7.multi_mod([1, 1], [[1, 1], []]), "zero modulus"),
        (lambda: F7.crt([[1], [2]], [[0, 1], [0, 0, 1]]), "moduli are not pairwise coprime"),
        (lambda: F7.crt([[1], [2]], [[1, 1], [1, 1]]), "moduli are not pairwise coprime"),
    ],
)
def test_crt_and_multi_mod_error_texts(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
