import random

import numpy as np
import pytest

from mibasis.field import PrimeField
from mibasis import jordan, modmat

F7 = PrimeField(7)
F97 = PrimeField(97)


def rand_rep(rng, field, max_order=10):
    pairs = []
    total = 0
    while total < 1 or (rng.random() < 0.7 and total < max_order):
        s = rng.randrange(1, max_order - total + 1) if max_order - total else 1
        pairs.append((rng.randrange(field.p), s))
        total += s
    return pairs


def test_rep_keeps_blocks_in_given_order():
    # blocks of one eigenvalue need not be contiguous nor sorted by size
    rep = jordan.JordanRep(F7, ((1, 1), (0, 2), (1, 2)))
    assert rep.blocks == ((1, 1), (0, 2), (1, 2))
    assert rep.order == 5
    assert rep.offsets == (0, 1, 3)


def test_rep_empty():
    rep = jordan.JordanRep(F7, ())
    assert rep.order == 0 and rep.offsets == ()


def test_rep_rejects_bad_sizes():
    for s in (0, -1):
        with pytest.raises(ValueError, match="sizes"):
            jordan.JordanRep(F7, ((1, 2), (1, s)))


def test_rep_rejects_unreduced_eigenvalues():
    # act_power would invert x = 7 over F_7 as if it were nonzero
    for x in (7, -1, 100):
        with pytest.raises(ValueError, match="eigenvalues"):
            jordan.JordanRep(F7, ((x, 2),))
    assert jordan.JordanRep(F7, ((6, 2),)).blocks == ((6, 2),)


def test_rep_rejects_non_integers_and_stores_python_ints():
    # an int64 eigenvalue vector would truncate 1.5 to 1 without this check
    for blocks in (((1.5, 2),), ((1, 2.0),), (("3", 1),), ((None, 1),)):
        with pytest.raises(ValueError, match="integers"):
            jordan.JordanRep(F7, blocks)
    rep = jordan.JordanRep(F7, ((np.int64(3), np.int32(2)), (np.uint8(0), 1)))
    assert rep.blocks == ((3, 2), (0, 1)) and rep.order == 3
    assert all(type(v) is int for block in rep.blocks for v in block)
    assert rep == jordan.JordanRep(F7, ((3, 2), (0, 1)))


def test_act_nilpotent_shift():
    rep = jordan.JordanRep(F7, ((0, 3),))
    assert jordan.act([[1, 2, 3]], rep) == [[0, 1, 2]]


def test_act_diagonal():
    rep = jordan.JordanRep(F7, ((2, 1), (3, 1), (5, 1)))
    # one block per distinct eigenvalue: columns scale independently
    assert jordan.act([[1, 1, 1]], rep) == [[2, 3, 5]]


def test_act_two_by_two():
    rep = jordan.JordanRep(F7, ((4, 2),))
    a, b = 3, 5
    assert jordan.act([[a, b]], rep) == [[4 * a % 7, (a + 4 * b) % 7]]


def test_act_iterated_matches_dense_power():
    rng = random.Random(2)
    for _ in range(15):
        rep = jordan.JordanRep(F7, tuple(rand_rep(rng, F7, 8)))
        n = rep.order
        e = [[rng.randrange(7) for _ in range(n)] for _ in range(2)]
        dense = jordan.to_dense(rep)
        cur = [r[:] for r in e]
        dcur = [r[:] for r in e]
        for d in range(5):
            cur = jordan.act(cur, rep)
            dcur = modmat.mat_mul(dcur, dense, 7)
            assert cur == dcur.tolist()


def test_act_power_matches_repeated_act():
    rng = random.Random(3)
    # int64 columns at 97, object columns of Python integers at 61/62-bit primes
    for field in (F97, PrimeField((1 << 61) - 1), PrimeField(4611686018427322369)):
        for _ in range(15):
            rep = jordan.JordanRep(field, tuple(rand_rep(rng, field, 9)))
            n = rep.order
            e = [[rng.randrange(field.p) for _ in range(n)] for _ in range(rng.randrange(1, 6))]
            for power in (0, 1, 2, 3, 5, 8, 16):
                expected = [r[:] for r in e]
                for _ in range(power):
                    expected = jordan.act(expected, rep)
                assert jordan.act_power(e, rep, power).tolist() == expected
                assert jordan.act_power(np.array(e, dtype=object), rep, power).tolist() == expected
    # 64 rows x 256 columns: blocks of many sizes, nilpotent and not, and powers
    # below and above the largest block size
    f = PrimeField(65537)
    pairs = [(0, 40), (5, 30), (5, 2), (7, 64), (9, 1)] + [(x, 1) for x in range(10, 129)]
    rep = jordan.JordanRep(f, tuple(pairs))
    assert rep.order == 256
    e = [[rng.randrange(f.p) for _ in range(256)] for _ in range(64)]
    expected = [r[:] for r in e]
    done = 0
    for power in (1, 3, 37, 100):
        for _ in range(power - done):
            expected = jordan.act(expected, rep)
        done = power
        assert jordan.act_power(e, rep, power).tolist() == expected
    assert jordan.act_power([], rep, 3).shape == (0, 256)


def _act_repeated(e, rep, power):
    for _ in range(power):
        e = jordan.act(e, rep)
    return e


def test_act_power_past_the_characteristic():
    # n >= p takes the digit-product path of binomial; C(7, t) = 0 mod 7 for
    # 0 < t < 7, so J^7 acts on each block as x^7 = x plus the shift by 7
    rng = random.Random(5)
    rep = jordan.JordanRep(F7, ((3, 9), (0, 8), (1, 1), (6, 12), (2, 2), (0, 1)))
    e = [[rng.randrange(7) for _ in range(rep.order)] for _ in range(3)]
    for power in (7, 8, 13, 49, 50):
        assert jordan.act_power(e, rep, power).tolist() == _act_repeated(e, rep, power)
    # blocks below p take C(n, t) = C(n mod p, t) from one recurrence
    small = jordan.JordanRep(F7, ((3, 6), (0, 4), (5, 5), (1, 2)))
    e = [[rng.randrange(7) for _ in range(small.order)] for _ in range(3)]
    for power in (4, 7, 9, 12, 20, 51):
        assert jordan.act_power(e, small, power).tolist() == _act_repeated(e, small, power)


def test_act_power_dtype_boundary():
    # (p-1)^2 < 2^62 keeps int64 words; one prime above needs Python integers
    rng = random.Random(6)
    for p, dt in ((2**31 - 1, np.int64), (2147483659, object)):
        field = PrimeField(p)
        rep = jordan.JordanRep(field, ((p - 1, 3), (0, 2), (5, 1), (p - 2, 4)))
        e = [[rng.randrange(p) for _ in range(rep.order)] for _ in range(2)]
        for power in (1, 2, 5, 11):
            got = jordan.act_power(e, rep, power)
            assert got.dtype == dt
            assert got.tolist() == _act_repeated(e, rep, power)


def test_act_power_reuses_the_column_table():
    # one rep across rising and falling powers, interleaved with another rep;
    # the table filled on first use leaves ==, hash and repr as they were
    rng = random.Random(7)
    a = jordan.JordanRep(F97, ((4, 3), (0, 2), (9, 1), (4, 2)))
    b = jordan.JordanRep(F97, ((0, 5), (1, 4)))
    ea = [[rng.randrange(97) for _ in range(a.order)] for _ in range(2)]
    eb = [[rng.randrange(97) for _ in range(b.order)] for _ in range(3)]
    twin = jordan.JordanRep(F97, a.blocks)
    before = (hash(a), repr(a))
    for power in (1, 2, 6, 3, 0, 10, 1):
        assert jordan.act_power(ea, a, power).tolist() == _act_repeated(ea, a, power)
        assert jordan.act_power(eb, b, power + 1).tolist() == _act_repeated(eb, b, power + 1)
    assert "_columns" in vars(a) and "_columns" not in vars(twin)
    assert a == twin and hash(a) == hash(twin) and (hash(a), repr(a)) == before
    assert {a: 1}[twin] == 1


def test_act_power_order_zero():
    rep = jordan.JordanRep(F7, ())
    for power in (0, 1, 5):
        got = jordan.act_power([[], []], rep, power)
        assert got.shape == (2, 0)
    assert jordan.act_power([], rep, 3).shape == (0, 0)


def test_minpoly_degree():
    rep = jordan.JordanRep(F7, ((0, 3),))
    assert jordan.minpoly_degree(rep) == 3
    diag = jordan.JordanRep(F7, tuple((x, 1) for x in range(5)))
    assert jordan.minpoly_degree(diag) == 5
    mixed = jordan.JordanRep(F7, ((1, 2), (1, 1), (0, 2)))
    assert jordan.minpoly_degree(mixed) == 4


def test_split_nilpotent():
    rep = jordan.JordanRep(F7, ((0, 3),))
    j1, j2 = jordan.split(rep, 1)
    assert j1.blocks == ((0, 1),) and j2.blocks == ((0, 2),)


def test_split_on_block_boundary():
    rep = jordan.JordanRep(F7, ((2, 2), (3, 2)))
    j1, j2 = jordan.split(rep, 2)
    assert j1.blocks == ((2, 2),) and j2.blocks == ((3, 2),)


def test_split_inside_block():
    rep = jordan.JordanRep(F7, ((4, 4),))
    j1, j2 = jordan.split(rep, 3)
    assert j1.blocks == ((4, 3),) and j2.blocks == ((4, 1),)


def test_split_keeps_block_order():
    rep = jordan.JordanRep(F7, ((1, 1), (0, 2), (1, 3), (0, 1)))
    j1, j2 = jordan.split(rep, 4)
    assert j1.blocks == ((1, 1), (0, 2), (1, 1))
    assert j2.blocks == ((1, 2), (0, 1))


def test_split_out_of_range():
    rep = jordan.JordanRep(F7, ((0, 3),))
    with pytest.raises(ValueError):
        jordan.split(rep, 0)
    with pytest.raises(ValueError):
        jordan.split(rep, 3)


def test_split_halves_equal_checked_reps():
    # the halves are cut without the checks of the public constructor, and
    # still compare, hash and print as the checked reps of their blocks
    rng = random.Random(5)
    for _ in range(30):
        rep = jordan.JordanRep(F7, tuple(rand_rep(rng, F7, 12)))
        if rep.order < 2:
            continue
        k = rng.randrange(1, rep.order)
        j1, j2 = jordan.split(rep, k)
        assert (j1.order, j2.order) == (k, rep.order - k)
        for half in (j1, j2):
            twin = jordan.JordanRep(F7, half.blocks)
            assert half == twin and hash(half) == hash(twin) and repr(half) == repr(twin)
            assert half.offsets == twin.offsets
        assert "offsets" not in repr(rep)


def test_split_dense_reconstruction():
    # the dense matrix differs from the split-and-stitched block diagonal
    # only by the removed coupling entry at the cut
    rng = random.Random(4)
    for _ in range(20):
        rep = jordan.JordanRep(F7, tuple(rand_rep(rng, F7, 8)))
        n = rep.order
        if n < 2:
            continue
        k = rng.randrange(1, n)
        j1, j2 = jordan.split(rep, k)
        dense = jordan.to_dense(rep)
        d1 = jordan.to_dense(j1)
        d2 = jordan.to_dense(j2)
        stitched = [[0] * n for _ in range(n)]
        for i in range(k):
            stitched[i][:k] = d1[i]
        for i in range(n - k):
            stitched[k + i][k:] = d2[i]
        diffs = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if stitched[i][j] != dense[i][j]
        ]
        assert diffs in ([], [(k - 1, k)])
