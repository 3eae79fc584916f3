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


def test_normalize_single_block_identity_permutation():
    rep, perm = jordan.normalize(F7, [(0, 3)])
    assert rep.blocks == ((0, 3),)
    assert perm == [0, 1, 2]


def test_normalize_grouping_and_ordering():
    rep, perm = jordan.normalize(F7, [(1, 1), (0, 2), (1, 2)])
    assert rep.blocks == ((1, 2), (1, 1), (0, 2))
    assert perm == [3, 4, 0, 1, 2]


def test_normalize_empty():
    rep, perm = jordan.normalize(F7, [])
    assert rep.blocks == () and perm == []


def test_normalize_rejects_bad_sizes():
    with pytest.raises(ValueError):
        jordan.normalize(F7, [(1, 0)])


def test_rep_rejects_unreduced_eigenvalues():
    # act_power would invert x = 7 over F_7 as if it were nonzero
    for x in (7, -1, 100):
        with pytest.raises(ValueError, match="eigenvalues"):
            jordan.JordanRep(F7, ((x, 2),))
    assert jordan.JordanRep(F7, ((6, 2),)).blocks == ((6, 2),)
    assert jordan.normalize(F7, [(7, 2), (-1, 1)])[0].blocks == ((0, 2), (6, 1))


def test_normalize_idempotent_and_matches_dense_conjugation():
    rng = random.Random(1)
    for _ in range(20):
        pairs = rand_rep(rng, F7)
        rep, perm = jordan.normalize(F7, pairs)
        again, perm2 = jordan.normalize(F7, rep.blocks)
        assert again.blocks == rep.blocks
        assert perm2 == list(range(rep.order))
        # permuting the dense matrix of the input yields the normalized dense form
        loose = jordan.JordanRep.__new__(jordan.JordanRep)
        object.__setattr__(loose, "field", F7)
        object.__setattr__(loose, "blocks", tuple(pairs))
        dense = jordan.to_dense(loose)
        n = rep.order
        conj = [[dense[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert conj == jordan.to_dense(rep)


def test_act_nilpotent_shift():
    rep, _ = jordan.normalize(F7, [(0, 3)])
    assert jordan.act([[1, 2, 3]], rep) == [[0, 1, 2]]


def test_act_diagonal():
    rep, _ = jordan.normalize(F7, [(2, 1), (3, 1), (5, 1)])
    # one block per distinct eigenvalue: columns scale independently
    row = [1, 1, 1]
    out = jordan.act([row], rep)[0]
    assert sorted(out) == sorted([2, 3, 5])


def test_act_two_by_two():
    rep, _ = jordan.normalize(F7, [(4, 2)])
    a, b = 3, 5
    assert jordan.act([[a, b]], rep) == [[4 * a % 7, (a + 4 * b) % 7]]


def test_act_iterated_matches_dense_power():
    rng = random.Random(2)
    for _ in range(15):
        rep, _ = jordan.normalize(F7, rand_rep(rng, F7, 8))
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
            rep, _ = jordan.normalize(field, rand_rep(rng, field, 9))
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
    rep, _ = jordan.normalize(f, pairs)
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


def test_minpoly_degree():
    rep, _ = jordan.normalize(F7, [(0, 3)])
    assert jordan.minpoly_degree(rep) == 3
    diag, _ = jordan.normalize(F7, [(x, 1) for x in range(5)])
    assert jordan.minpoly_degree(diag) == 5
    mixed, _ = jordan.normalize(F7, [(1, 2), (1, 1), (0, 2)])
    assert jordan.minpoly_degree(mixed) == 4


def test_split_nilpotent():
    rep, _ = jordan.normalize(F7, [(0, 3)])
    j1, p1, j2, p2 = jordan.split(rep, 1)
    assert j1.blocks == ((0, 1),) and j2.blocks == ((0, 2),)
    assert p1 == [0] and p2 == [0, 1]


def test_split_on_block_boundary():
    rep, _ = jordan.normalize(F7, [(2, 2), (3, 2)])
    j1, _, j2, _ = jordan.split(rep, 2)
    assert j1.blocks == ((2, 2),) and j2.blocks == ((3, 2),)


def test_split_inside_block():
    rep, _ = jordan.normalize(F7, [(4, 4)])
    j1, _, j2, _ = jordan.split(rep, 3)
    assert j1.blocks == ((4, 3),) and j2.blocks == ((4, 1),)


def test_split_out_of_range():
    rep, _ = jordan.normalize(F7, [(0, 3)])
    with pytest.raises(ValueError):
        jordan.split(rep, 0)
    with pytest.raises(ValueError):
        jordan.split(rep, 3)


def test_split_dense_reconstruction():
    # the dense matrix differs from the split-and-stitched block diagonal
    # only by the removed coupling entry at the cut
    rng = random.Random(4)
    for _ in range(20):
        rep, _ = jordan.normalize(F7, rand_rep(rng, F7, 8))
        n = rep.order
        if n < 2:
            continue
        k = rng.randrange(1, n)
        j1, p1, j2, p2 = jordan.split(rep, k)
        dense = jordan.to_dense(rep)
        d1 = jordan.to_dense(j1)
        d2 = jordan.to_dense(j2)
        # undo the local normalization permutations
        lead = [[d1[p1.index(i)][p1.index(j)] for j in range(k)] for i in range(k)]
        trail = [
            [d2[p2.index(i)][p2.index(j)] for j in range(n - k)] for i in range(n - k)
        ]
        stitched = [[0] * n for _ in range(n)]
        for i in range(k):
            for j in range(k):
                stitched[i][j] = lead[i][j]
        for i in range(n - k):
            for j in range(n - k):
                stitched[k + i][k + j] = trail[i][j]
        diffs = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if stitched[i][j] != dense[i][j]
        ]
        assert diffs in ([], [(k - 1, k)])
