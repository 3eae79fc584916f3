import random

import pytest

from mibasis import modmat


def rank_profile_reference(mat, p):
    # independent O(n^3) elimination without any vectorization tricks
    rows = [r[:] for r in mat]
    pivots = []
    indices = []
    for idx, row in enumerate(rows):
        v = [x % p for x in row]
        for w, j in pivots:
            f = v[j]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, w)]
        j = next((k for k, x in enumerate(v) if x), -1)
        if j < 0:
            continue
        inv = pow(v[j], p - 2, p)
        pivots.append(([x * inv % p for x in v], j))
        indices.append(idx)
    return len(indices), indices


def test_row_rank_profile_identity():
    assert modmat.row_rank_profile(modmat.identity(4), 7) == (4, [0, 1, 2, 3])


def test_row_rank_profile_by_hand():
    rank, rows = modmat.row_rank_profile([[1, 1], [1, 1], [0, 1]], 7)
    assert (rank, rows) == (2, [0, 2])


def test_row_rank_profile_zero_matrix():
    assert modmat.row_rank_profile(modmat.zeros(3, 4), 7) == (0, [])


def test_col_rank_profile_by_hand():
    assert modmat.col_rank_profile([[0, 1, 1], [0, 1, 2]], 7) == (2, [1, 2])


@pytest.mark.parametrize("p", [7, 97, 65537, (1 << 61) - 1])
def test_rank_profile_matches_reference(p):
    rng = random.Random(p)
    for _ in range(15):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 7)
        mat = [
            [rng.randrange(min(p, 5)) for _ in range(cols)] for _ in range(rows)
        ]
        assert modmat.row_rank_profile(mat, p) == rank_profile_reference(mat, p)


def test_large_blocked_path_agrees_with_reference():
    rng = random.Random(11)
    mat = [[rng.randrange(97) for _ in range(60)] for _ in range(200)]
    # plant dependencies so the profile is nontrivial
    for i in range(0, 200, 3):
        mat[i] = [(2 * x) % 97 for x in mat[(i + 57) % 200]]
    assert modmat.row_rank_profile(mat, 97) == rank_profile_reference(mat, 97)


def test_mat_mul_against_naive():
    rng = random.Random(12)
    for p in (7, 65537, (1 << 61) - 1):
        a = [[rng.randrange(p) for _ in range(5)] for _ in range(3)]
        b = [[rng.randrange(p) for _ in range(4)] for _ in range(5)]
        expected = [
            [sum(a[i][k] * b[k][j] for k in range(5)) % p for j in range(4)]
            for i in range(3)
        ]
        assert modmat.mat_mul(a, b, p) == expected


def test_solve_right():
    rng = random.Random(13)
    p = 97
    for _ in range(20):
        r = rng.randrange(1, 6)
        while True:
            c = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
            if modmat.det(c, p) != 0:
                break
        x = [[rng.randrange(p) for _ in range(r)] for _ in range(4)]
        d = modmat.mat_mul(x, c, p)
        assert modmat.solve_right(c, d, p) == x


def test_solve_right_rejects_singular():
    with pytest.raises(ValueError):
        modmat.solve_right([[1, 1], [1, 1]], [[1, 0], [0, 1]], 7)


def test_det():
    assert modmat.det([[1, 2], [3, 4]], 97) == (4 - 6) % 97
    assert modmat.det([[1, 1], [1, 1]], 7) == 0
