import random

import numpy as np
import pytest

from mibasis import modmat


P61 = (1 << 61) - 1
P62 = 4611686018427322369  # 2**62 - 65535, next to the library's bound of 2**62
P30 = 998244353  # int64 products for inner dimensions up to 9, object beyond
P26 = 67108859  # float64 products for inner dimensions up to 2, int64 beyond


def rref_reference(mat, p):
    # independent row-by-row Gauss-Jordan on Python integers, no vectorization
    reduced = []
    pivcols = []
    pivrows = []
    for idx, row in enumerate(mat):
        v = [x % p for x in row]
        for w, j in zip(reduced, pivcols):
            f = v[j]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, w)]
        j = next((k for k, x in enumerate(v) if x), -1)
        if j < 0:
            continue
        inv = pow(v[j], p - 2, p)
        v = [x * inv % p for x in v]
        reduced = [[(a - w[j] * b) % p for a, b in zip(w, v)] for w in reduced]
        reduced.append(v)
        pivcols.append(j)
        pivrows.append(idx)
    return pivrows, pivcols, reduced


def rref_lists(mat, p):
    pivrows, pivcols, reduced = modmat.rref(mat, p)
    return pivrows, pivcols, reduced.tolist()


def rank_profile_reference(mat, p):
    pivrows, _, _ = rref_reference(mat, p)
    return len(pivrows), pivrows


def random_matrix(rng, p, rows, cols, small):
    # small entries make dependent rows likely; full-range ones get planted
    hi = min(p, 5) if small else p
    mat = [[rng.randrange(hi) for _ in range(cols)] for _ in range(rows)]
    for i in range(2, rows, 3):
        a, b = rng.randrange(p), rng.randrange(p)
        mat[i] = [(a * x + b * y) % p for x, y in zip(mat[i - 1], mat[i - 2])]
    return mat


def test_row_rank_profile_identity():
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    assert modmat.row_rank_profile(identity, 7) == (4, [0, 1, 2, 3])


def test_row_rank_profile_by_hand():
    rank, rows = modmat.row_rank_profile([[1, 1], [1, 1], [0, 1]], 7)
    assert (rank, rows) == (2, [0, 2])


def test_row_rank_profile_zero_matrix():
    assert modmat.row_rank_profile([[0] * 4 for _ in range(3)], 7) == (0, [])


@pytest.mark.parametrize("p", [7, 97, 65537, P26, P30, P61, P62])
def test_rank_profile_matches_reference(p):
    # every dtype regime of the one elimination kernel: float64 (7, 97,
    # 65537, P26 with min(rows, cols) <= 1), int64 (P26 beyond, P30 with
    # min(rows, cols) <= 8), object (P30 beyond, P61, P62)
    rng = random.Random(p)
    for trial in range(30):
        rows = rng.randrange(1, 13)
        cols = rng.randrange(1, 13)
        mat = random_matrix(rng, p, rows, cols, small=trial % 2 == 0)
        expected = rref_reference(mat, p)
        assert rref_lists(mat, p) == expected
        # an array gives the same result as the list of its rows
        assert rref_lists(np.array(mat, dtype=object), p) == expected
        assert modmat.row_rank_profile(mat, p) == rank_profile_reference(mat, p)
    # more rows than one elimination block: 7, 97 and 65537 run float64
    # words, P26 int64 and the others object.  Besides the planted rows of
    # random_matrix, rows 40 and 45 depend on a row of the first block and
    # on pivot rows found earlier in their own block.
    mat = random_matrix(rng, p, 60, 50, small=False)
    for i, (a, b) in ((40, (7, 36)), (45, (20, 43))):
        mat[i] = [(x + 3 * y) % p for x, y in zip(mat[a], mat[b])]
    expected = rref_reference(mat, p)
    assert len(expected[0]) > modmat._BLOCK
    assert 40 not in expected[0] and 45 not in expected[0]
    assert rref_lists(mat, p) == expected
    assert rref_lists(np.array(mat, dtype=object), p) == expected


def test_rank_profile_empty_matrix():
    assert rref_lists([], 7) == ([], [], [])
    assert rref_lists([[], []], P61) == ([], [], [])


def test_large_blocked_path_agrees_with_reference():
    rng = random.Random(11)
    mat = [[rng.randrange(97) for _ in range(60)] for _ in range(200)]
    # plant dependencies so the profile is nontrivial
    for i in range(0, 200, 3):
        mat[i] = [(2 * x) % 97 for x in mat[(i + 57) % 200]]
    assert modmat.row_rank_profile(mat, 97) == rank_profile_reference(mat, 97)
    assert rref_lists(mat, 97) == rref_reference(mat, 97)


def words_of_state(p, cols):
    """The dtype of an Echelon's buffer: that of the products of a full rank
    elimination of cols columns."""
    return modmat._dtype_for(p, cols + 1)


@pytest.mark.parametrize("p", [7, 65537, P26, P61])
@pytest.mark.parametrize("k", [5, 32, 40])
def test_rref_resumed_from_a_prefix_matches_a_fresh_call(p, k):
    # k independent rows, inside the first block or across the block size,
    # then a rank-deficient tail: planted combinations of earlier tail rows
    # and one combination of head rows; p runs float64, int64 and object.
    # The resumed call takes the tail alone and extends the head's state in
    # its own buffer, and its pivot indices index the tail
    rng = random.Random(k)
    cols = 48
    head = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
    tail = random_matrix(rng, p, 30, cols, small=True)
    tail[4] = [(3 * x + 5 * y) % p for x, y in zip(head[0], head[-1])]
    pivrows, state = modmat.rref(head, p, transform=True)
    assert pivrows == list(range(k))
    buf = state.buf
    fresh = modmat.rref(head + tail, p)
    resumed, same = modmat.rref(tail, p, state, transform=True)
    assert same is state and state.buf is buf
    assert [k + i for i in resumed] == fresh[0][k:]
    assert state.pivcols == fresh[1]
    assert state.rows.dtype == words_of_state(p, cols)
    assert np.array_equal(state.rows, fresh[2])
    assert fresh[:2] == rref_reference(head + tail, p)[:2]


def mod_product(a, b, p):
    """a b mod p on Python integers."""
    return ((np.array(a, dtype=object) @ np.array(b, dtype=object)) % p).tolist()


def check_transform(mat, p):
    """rref with T against rref without it, and T mat[pivrows] = R."""
    pivrows, state = modmat.rref(mat, p, transform=True)
    plain = modmat.rref(mat, p)
    red, t = state.rows, state.transform
    assert (pivrows, state.pivcols) == plain[:2]
    assert np.array_equal(red, plain[2])
    # R and T are views of the state's buffer, in the words of its products
    assert red.dtype == t.dtype == words_of_state(p, len(mat[0]))
    assert t.shape == (len(pivrows), len(pivrows))
    if pivrows:
        assert mod_product(t.astype(object).tolist(), [mat[i] for i in pivrows], p) == \
            red.astype(object).tolist()
    return pivrows, state


@pytest.mark.parametrize("p", [7, 65537, P26, P61])
def test_rref_transform_maps_pivot_rows_to_reduced_rows(p):
    # float64 words (7, 65537), int64 (P26) and object (P61); square and
    # rectangular, full rank and rank deficient, inside one block and across
    rng = random.Random(p + 1)
    deficient = 0
    for rows, cols, small in ((6, 6, False), (9, 5, False), (5, 9, True),
                              (12, 12, True), (70, 40, False), (45, 60, True)):
        mat = random_matrix(rng, p, rows, cols, small)
        deficient += len(check_transform(mat, p)[0]) < min(rows, cols)
    assert deficient >= 2
    full = [[rng.randrange(p) for _ in range(40)] for _ in range(40)]
    assert len(check_transform(full, p)[0]) == 40
    assert check_transform([[0] * 5] * 3, p)[1].transform.shape == (0, 0)


@pytest.mark.parametrize("p", [7, 65537, P26, P61])
@pytest.mark.parametrize("k", [5, 32, 40])
def test_rref_transform_resumed_from_a_prefix_matches_a_fresh_call(p, k):
    # k independent head rows, then a rank-deficient tail that also holds a
    # combination of head rows; the resumed call takes the tail alone, and
    # its T covers the head too
    rng = random.Random(1000 + k)
    cols = 48
    head = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
    tail = random_matrix(rng, p, 30, cols, small=True)
    tail[4] = [(3 * x + 5 * y) % p for x, y in zip(head[0], head[-1])]
    pivrows, state = check_transform(head, p)
    assert pivrows == list(range(k))
    fresh_rows, fresh = check_transform(head + tail, p)
    resumed, _ = modmat.rref(np.array(tail, dtype=object), p, state, transform=True)
    assert [k + i for i in resumed] == fresh_rows[k:]
    assert state.pivcols == fresh.pivcols
    for got, want in ((state.rows, fresh.rows), (state.transform, fresh.transform)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert len(fresh_rows) < len(head + tail)


@pytest.mark.parametrize("p", [7, 65537, P26, P61])
def test_rref_windows_resumed_in_place_match_a_fresh_call(p):
    # 100 rows of 40 columns in windows of 3, 33, 1, 40 and 23 rows, each
    # resumed in place from the last, against one fresh call on all rows:
    # windows and blocks that cross 32 rows, dependent rows (planted by
    # random_matrix, and rows 10 and 50 depend on rows of earlier windows),
    # zero rows (7 and 35, and row 0 of the first window), and rank 40 = ncols
    # reached in the middle of the window of 40 rows and of its first
    # block, so that the last window adds nothing.  float64 words at 7 and
    # 65537, int64 at P26, object at P61
    rng = random.Random(p + 5)
    cols = 40
    mat = random_matrix(rng, p, 100, cols, small=False)
    mat[10] = [(x + 2 * y) % p for x, y in zip(mat[0], mat[4])]
    mat[50] = [(5 * x + y) % p for x, y in zip(mat[12], mat[40])]
    for i in (0, 7, 35):
        mat[i] = [0] * cols
    cuts = [0, 3, 36, 37, 77, 100]
    fresh_rows, fresh = modmat.rref(mat, p, transform=True)
    assert fresh_rows == rref_reference(mat, p)[0]
    assert len(fresh_rows) == cols and 37 < fresh_rows[-1] < 69
    state, buf, got = None, None, []
    for lo, hi in zip(cuts, cuts[1:]):
        window = np.array(mat[lo:hi], dtype=object if p == P61 else np.int64)
        pivrows, state = modmat.rref(window, p, state, transform=True)
        buf = buf if buf is not None else state.buf
        assert state.buf is buf
        got += [lo + i for i in pivrows]
    assert got == fresh_rows
    assert state.pivcols == fresh.pivcols
    assert state.buf.shape == (cols, 2 * cols)
    for a, b in ((state.rows, fresh.rows), (state.transform, fresh.transform)):
        assert a.dtype == b.dtype == words_of_state(p, cols)
        assert np.array_equal(a, b)
    assert mod_product(state.transform.astype(object).tolist(), [mat[i] for i in got], p) == \
        state.rows.astype(object).tolist()


def test_rref_resume_rejects_a_foreign_state():
    # a ValueError, not an assert: the checks hold under python -O too
    _, state = modmat.rref([[1, 2, 3], [0, 1, 4]], 7, transform=True)
    with pytest.raises(ValueError, match="column count"):
        modmat.rref([[1, 2, 3, 4]], 7, state, transform=True)
    with pytest.raises(ValueError, match="column count"):
        modmat.rref([[1, 2]], 7, state, transform=True)
    with pytest.raises(ValueError, match="prime"):
        modmat.rref([[1, 2, 3]], 11, state, transform=True)
    with pytest.raises(ValueError, match="transform"):
        modmat.rref([[1, 2, 3]], 7, state)
    assert state.pivcols == [0, 1]


@pytest.mark.parametrize("p", [7, 65537, (1 << 31) - 1, P61])
def test_block_reduction_equals_remainder(p):
    # int64 words with negative entries and entries up to +-2^62, reduced in
    # place, object arrays of Python integers of any size, and float64 words
    # up to the bound of exact integers
    rng = np.random.default_rng(p)
    edges = [0, 1, -1, p - 1, p, -p, p + 1, -p - 1, 1 << 62, -(1 << 62), (1 << 62) - 1, 1 - (1 << 62)]
    x = np.concatenate([
        rng.integers(-(1 << 62), 1 << 62, size=300, endpoint=True),
        rng.integers(-3 * p, 3 * p, size=300),
        np.array(edges, dtype=np.int64),
    ]).reshape(-1, 3)
    want = x % p
    y = x.copy()
    assert modmat._rem(y, p) is y
    assert y.dtype == np.int64 and np.array_equal(y, want)
    big = np.array([[int(a) * (1 << 70) + int(b) for a, b in zip(r, r[::-1])] for r in x.tolist()],
                   dtype=object)
    want = [[a % p for a in r] for r in big.tolist()]
    assert modmat._rem(big.copy(), p).tolist() == want
    # float64 words, which rref takes only where (p - 1)^2 < 2^53: integers
    # with |x| + p < 2^53, multiples of p among them
    if modmat._dtype_for(p, 1) is not np.float64:
        return
    top = (1 << 53) - p - 1
    ints = [0, 1, -1, p, -p, 3 * p, -3 * p, top, -top, top - top % p, -(top - top % p)]
    ints += rng.integers(-top, top, size=300, endpoint=True).tolist()
    f = np.array(ints, dtype=np.float64)
    assert f.astype(np.int64).tolist() == ints
    assert modmat._rem(f, p).tolist() == [a % p for a in ints]


def test_mat_mul_against_naive():
    rng = random.Random(12)
    seen = set()
    for p in (7, 65537, P26, P30, P61, P62):
        for inner in range(1, 13):
            a = [[rng.randrange(p) for _ in range(inner)] for _ in range(3)]
            b = [[rng.randrange(p) for _ in range(4)] for _ in range(inner)]
            expected = [
                [sum(a[i][k] * b[k][j] for k in range(inner)) % p for j in range(4)]
                for i in range(3)
            ]
            assert modmat.mat_mul(a, b, p).tolist() == expected
            seen.add(modmat._dtype_for(p, inner))
    # the inner dimensions cross both bounds
    assert seen == {np.float64, np.int64, object}


def test_dtype_for_bounds():
    # float64 while (p-1)^2 * inner < 2^53, int64 while < 2^63, object beyond
    assert modmat._dtype_for(65537, (1 << 21) - 1) is np.float64
    assert modmat._dtype_for(65537, 1 << 21) is np.int64
    assert modmat._dtype_for(65537, (1 << 31) - 1) is np.int64
    assert modmat._dtype_for(65537, 1 << 31) is object
    # at p = 2 the worst sum equals the inner dimension: both bounds exactly
    assert modmat._dtype_for(2, (1 << 53) - 1) is np.float64
    assert modmat._dtype_for(2, 1 << 53) is np.int64
    assert modmat._dtype_for(2, (1 << 63) - 1) is np.int64
    assert modmat._dtype_for(2, 1 << 63) is object
    assert modmat._dtype_for(P61, 1) is object


def test_solve_right():
    rng = random.Random(13)
    for p in (97, P61):
        for _ in range(20):
            r = rng.randrange(1, 6)
            while True:
                c = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
                if modmat.row_rank_profile(c, p)[0] == r:
                    break
            x = [[rng.randrange(p) for _ in range(r)] for _ in range(4)]
            d = modmat.mat_mul(x, c, p)
            assert modmat.solve_right(c, d, p).tolist() == x


def test_solve_right_rejects_singular():
    with pytest.raises(ValueError):
        modmat.solve_right([[1, 1], [1, 1]], [[1, 0], [0, 1]], 7)


def test_solve_right_rectangular():
    # full row rank 3 x 7: X is unique and comes back from X*C
    rng = random.Random(17)
    for p in (97, P61):
        while True:
            c = [[rng.randrange(p) for _ in range(7)] for _ in range(3)]
            if modmat.row_rank_profile(c, p)[0] == 3:
                break
        x = [[rng.randrange(p) for _ in range(3)] for _ in range(4)]
        d = modmat.mat_mul(x, c, p)
        assert modmat.solve_right(c, d, p).tolist() == x
        assert modmat.solve_right(np.array(c, dtype=object), d, p).tolist() == x


def test_solve_right_rejects_inconsistent_and_rank_deficient_rectangular():
    # the contract's own error, not one from mismatched shapes
    c = [[1, 0, 2, 0, 1], [0, 1, 3, 0, 4], [0, 0, 0, 1, 5]]
    # a row outside the row space of C: no X solves X*C = D
    with pytest.raises(ValueError, match="row space"):
        modmat.solve_right(c, [[1, 0, 2, 0, 1], [0, 0, 1, 0, 0]], 7)
    # rank 2 with 3 rows: X would not be unique
    deficient = [c[0], c[1], [1, 1, 5, 0, 5]]
    with pytest.raises(ValueError, match="rank deficient"):
        modmat.solve_right(deficient, [[1, 1, 5, 0, 5]], 7)
    # no rows in C: only D = 0 lies in its row space
    empty = np.zeros((0, 5), dtype=np.int64)
    assert modmat.solve_right(empty, [[0, 7, 0, 0, 0]], 7).shape == (1, 0)
    with pytest.raises(ValueError, match="row space"):
        modmat.solve_right(empty, [[0, 1, 0, 0, 0]], 7)
