import random
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mibasis.field import PrimeField
from mibasis import jordan, oracle, residual
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


def rand_jordan(rng, field, sigma, few_eigs=True):
    pool = range(min(field.p, 5)) if few_eigs else range(field.p)
    pairs = []
    left = sigma
    while left:
        s = rng.randrange(1, left + 1)
        pairs.append((rng.choice(list(pool)), s))
        left -= s
    return jordan.JordanRep(field, tuple(pairs))


def rand_pmat(rng, field, rows, cols, deg):
    return PolyMatrix.from_entries(
        field,
        [
            [[rng.randrange(field.p) for _ in range(rng.randrange(deg + 2))] for _ in range(cols)]
            for _ in range(rows)
        ],
    )


def test_reference_basis_residual_is_zero():
    basis = PolyMatrix.from_entries(F97, REFERENCE_BASIS)
    assert residual.compute_residuals(nilpotent3(), basis, np.array(EVALS)).tolist() == [[0, 0, 0]] * 3


def test_identity_residual_returns_evals():
    ident = PolyMatrix.identity(F97, 3)
    assert residual.compute_residuals(nilpotent3(), ident, np.array(EVALS)).tolist() == EVALS


def test_single_row_dependency_vanishes():
    row = PolyMatrix.from_entries(F97, [[[96], [96], [1]]])
    assert residual.compute_residuals(nilpotent3(), row, np.array(EVALS)).tolist() == [[0, 0, 0]]


def spy_paths(mp):
    """Record the entries that compute_residuals hands to each path."""
    seen = {"krylov": [], "tail": []}
    krylov, tail = residual._residual_by_krylov, residual.residual_by_crt

    def spy_krylov(entries, *args):
        seen["krylov"].append(list(entries))
        return krylov(entries, *args)

    def spy_tail(entries, *args):
        seen["tail"].append(list(entries))
        return tail(entries, *args)

    mp.setattr(residual, "_residual_by_krylov", spy_krylov)
    mp.setattr(residual, "residual_by_crt", spy_tail)
    return seen


def test_paths_partition_all_columns():
    # every block goes to exactly one path, each path in offset order, and
    # a block goes to the tail exactly when it is longer than sigma/m
    rng = random.Random(1)
    for _ in range(40):
        sigma = rng.randrange(1, 16)
        m = rng.randrange(1, 5)
        j = rand_jordan(rng, F7, sigma)
        sigma = j.order
        e = [[rng.randrange(7) for _ in range(sigma)] for _ in range(m)]
        p = rand_pmat(rng, F7, m, m, 2)
        if p.is_zero():
            continue
        with pytest.MonkeyPatch.context() as mp:
            seen = spy_paths(mp)
            got = residual.compute_residuals(j, p, np.array(e)).tolist()
        assert got == oracle.naive_residual(j, p, e)
        krylov = [entry for call in seen["krylov"] for entry in call]
        tail = [entry for call in seen["tail"] for entry in call]
        assert len(seen["krylov"]) <= 1 and len(seen["tail"]) <= 1
        assert krylov == sorted(krylov, key=lambda entry: entry[2])
        assert tail == sorted(tail, key=lambda entry: entry[2])
        cols = sorted(off + t for _, s, off in krylov + tail for t in range(s))
        assert cols == list(range(sigma))
        k_max = (sigma // m).bit_length() - 1 if sigma >= m else -1
        assert all(s.bit_length() - 1 > k_max for _, s, _ in tail)
        assert all(s.bit_length() - 1 <= k_max for _, s, _ in krylov)


def test_shift_strategy_single_eigenvalue_zero():
    # one repeated nilpotent eigenvalue reduces to truncated products
    rng = random.Random(2)
    j = jordan.JordanRep(F7, ((0, 2),) * 3)
    e = [[rng.randrange(7) for _ in range(6)] for _ in range(2)]
    p = rand_pmat(rng, F7, 2, 2, 2)
    out = np.zeros((2, 6), dtype=np.int64)
    residual.residual_by_shifting([(0, 2, 0), (0, 2, 2), (0, 2, 4)], p, np.array(e), out)
    assert out.tolist() == oracle.naive_residual(j, p, e)


def test_shift_strategy_constant_p():
    rng = random.Random(3)
    j = jordan.JordanRep(F7, ((3, 2),) * 4)
    e = [[rng.randrange(7) for _ in range(8)] for _ in range(2)]
    p = PolyMatrix.from_entries(F7, [[[2], [1]], [[0], [5]]])
    out = np.zeros((2, 8), dtype=np.int64)
    residual.residual_by_shifting(list(zip([3] * 4, [2] * 4, [0, 2, 4, 6])), p, np.array(e), out)
    assert out.tolist() == oracle.naive_residual(j, p, e)


def test_crt_strategy_distinct_points_constant_p():
    rng = random.Random(4)
    pts = [1, 2, 4, 5]
    j = jordan.JordanRep(F7, tuple((x, 1) for x in pts))
    e = [[rng.randrange(7) for _ in range(4)] for _ in range(3)]
    p = PolyMatrix.from_entries(F7, [[[2], [0], [1]], [[3], [1], []], [[], [], [4]]])
    out = np.zeros((3, 4), dtype=np.int64)
    residual.residual_by_crt(
        [(x, 1, i) for i, x in enumerate(j.blocks and [b[0] for b in j.blocks])], p, np.array(e), out
    )
    assert out.tolist() == oracle.naive_residual(j, p, e)


def test_crt_equals_shift_on_single_nilpotent_block():
    rng = random.Random(5)
    j = jordan.JordanRep(F7, ((0, 5),))
    e = [[rng.randrange(7) for _ in range(5)] for _ in range(2)]
    p = rand_pmat(rng, F7, 2, 2, 3)
    expected = oracle.naive_residual(j, p, e)
    for path in (residual.residual_by_shifting, residual.residual_by_crt):
        out = np.zeros((2, 5), dtype=np.int64)
        path([(0, 5, 0)], p, np.array(e), out)
        assert out.tolist() == expected


@pytest.mark.parametrize("p", [7, 65537, 2**61 - 1])
def test_tail_of_distinct_nonzero_eigenvalues_one_repeated(p):
    # three tail blocks of unequal sizes at eigenvalues 3, 5 and 3 again,
    # and one small block; at 2**61 - 1 the Taylor shifts take the
    # Kronecker path of poly_mul
    field = PrimeField(p)
    rng = random.Random(9)
    blocks = ((3, 9), (6, 1), (5, 12), (3, 8))
    j = jordan.JordanRep(field, blocks)
    m, sigma = 4, j.order
    e = [[rng.randrange(p) for _ in range(sigma)] for _ in range(m)]
    pmat = rand_pmat(rng, field, 3, m, 4)
    expected = oracle.naive_residual(j, pmat, e)
    tail = [(3, 9, 0), (5, 12, 10), (3, 8, 22)]
    for path in (residual.residual_by_crt, residual.residual_by_shifting):
        out = np.array(expected)
        for _, s, off in tail:
            out[:, off : off + s] = 0
        path(tail, pmat, np.array(e), out)
        assert out.tolist() == expected
    with pytest.MonkeyPatch.context() as mp:
        seen = spy_paths(mp)
        assert residual.compute_residuals(j, pmat, np.array(e)).tolist() == expected
    assert seen == {"krylov": [[(6, 1, 9)]], "tail": [tail]}


def test_crt_strategy_mixed_bucket():
    rng = random.Random(6)
    j = jordan.JordanRep(F97, ((3, 2), (3, 2), (11, 2), (20, 1)))
    e = [[rng.randrange(97) for _ in range(7)] for _ in range(2)]
    p = rand_pmat(rng, F97, 2, 2, 3)
    got = residual.compute_residuals(j, p, np.array(e)).tolist()
    assert got == oracle.naive_residual(j, p, e)


@pytest.mark.parametrize("p", [7, 65537, 2**61 - 1])
def test_dispatcher_covers_both_paths_and_matches_naive(p):
    # 2**61 - 1 takes the object arrays of act_power and mat_mul
    field = PrimeField(p)
    rng = random.Random(7)
    for trial in range(80):
        m = rng.randrange(1, 4)
        kind = trial % 4
        if kind == 0:  # all size-1 blocks, eigenvalues may repeat a lot
            sigma = rng.randrange(1, 12)
            pairs = [(rng.randrange(3), 1) for _ in range(sigma)]
        elif kind == 1:  # one big block
            sigma = rng.randrange(1, 12)
            pairs = [(rng.randrange(5), sigma)]
        elif kind == 2:  # heavy repetition above the m threshold
            reps = m + 1 + rng.randrange(3)
            size = rng.randrange(1, 3)
            pairs = [(2, size)] * reps + [(4, 1)]
            sigma = reps * size + 1
        else:
            sigma = rng.randrange(1, 14)
            pairs = []
            left = sigma
            while left:
                s = rng.randrange(1, left + 1)
                pairs.append((rng.randrange(4), s))
                left -= s
        j = jordan.JordanRep(field, tuple(pairs))
        sigma = j.order
        e = [[rng.randrange(p) for _ in range(sigma)] for _ in range(m)]
        pmat = rand_pmat(rng, field, m, m, 3)
        assert residual.compute_residuals(j, pmat, np.array(e)).tolist() == oracle.naive_residual(j, pmat, e)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_krylov_chunks_match_naive(data):
    # blocks in any order, an eigenvalue's blocks apart; P zero, constant or
    # of any degree; chunks of at most `width` columns, so that a solve spans
    # several chunks and wider small blocks join the tail
    p = data.draw(st.sampled_from([7, 65537, 2**31 - 1, 2**61 - 1]))
    field = PrimeField(p)
    m = data.draw(st.integers(1, 3))
    blocks = data.draw(
        st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4)), min_size=1, max_size=12)
    )
    j = jordan.JordanRep(field, tuple(blocks))
    coeff = st.integers(0, p - 1)
    e_row = st.lists(coeff, min_size=j.order, max_size=j.order)
    e = data.draw(st.lists(e_row, min_size=m, max_size=m))
    top = data.draw(st.integers(-1, 6))
    nrows = data.draw(st.integers(0, 3))
    entries = [
        [data.draw(st.lists(coeff, max_size=top + 1)) for _ in range(m)] for _ in range(nrows)
    ]
    if top >= 0 and nrows:
        entries[0][0] = entries[0][0] + [0] * (top + 1 - len(entries[0][0]))
        entries[0][0][top] = data.draw(st.integers(1, p - 1))
    pmat = PolyMatrix(field, [[field.poly(c) for c in row] for row in entries], m)
    width = data.draw(st.integers(1, 6))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residual, "_CHUNK_WORDS", m * (isqrt(max(top, 0)) + 1) * width)
        got = residual.compute_residuals(j, pmat, np.array(e)).tolist()
    assert got == oracle.naive_residual(j, pmat, e)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_paterson_stockmeyer_matches_naive(data):
    # deg P a perfect square or not, b = isqrt(D) + 1 dividing D + 1 or not;
    # blocks of mixed sizes at eigenvalue 0 and nonzero; chunks of at most
    # `width` columns, so that a residual spans several; the spy fails a
    # kernel that asks for any other number of baby steps than b
    p = data.draw(st.sampled_from([7, 65537, 2**31 - 1, 2**61 - 1, 4611686018427322369]))
    field = PrimeField(p)
    top = data.draw(st.sampled_from([0, 1, 2, 3, 4, 8, 9, 15, 16, 24, 35, 63]))
    m = data.draw(st.integers(1, 3))
    nrows = data.draw(st.integers(1, 3))
    eig = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    blocks = data.draw(st.lists(st.tuples(eig, st.integers(1, 5)), min_size=2, max_size=12))
    j = jordan.JordanRep(field, tuple(blocks))
    sigma = j.order
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    e = [[rng.randrange(p) for _ in range(sigma)] for _ in range(m)]
    pmat = rand_pmat(rng, field, nrows, m, top)
    lead = pmat.rows[0][0] + [0] * (top + 1 - len(pmat.rows[0][0]))
    pmat.rows[0][0] = lead[:top] + [1 + rng.randrange(p - 1)]
    assert pmat.degree() == top
    width = data.draw(st.integers(max(s for _, s in blocks), 2 * max(s for _, s in blocks)))
    b = isqrt(top) + 1
    asked = []
    krylov = residual._striped_krylov

    def spy(e, j, stripes):
        asked.append(stripes)
        return krylov(e, j, stripes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residual, "_CHUNK_WORDS", m * b * width)
        mp.setattr(residual, "_striped_krylov", spy)
        got = residual.compute_residuals(j, pmat, np.array(e)).tolist()
    assert got == oracle.naive_residual(j, pmat, e)
    assert set(asked) <= {b}
    small = sum(s for _, s in blocks if s.bit_length() <= (sigma // m).bit_length())
    assert len(asked) >= -(-small // width)


def test_linearity_in_p():
    rng = random.Random(8)
    for _ in range(15):
        m = rng.randrange(1, 4)
        j = rand_jordan(rng, F97, rng.randrange(1, 10))
        sigma = j.order
        e = [[rng.randrange(97) for _ in range(sigma)] for _ in range(m)]
        p1 = rand_pmat(rng, F97, m, m, 2)
        p2 = rand_pmat(rng, F97, m, m, 2)
        r1 = residual.compute_residuals(j, p1, np.array(e)).tolist()
        r2 = residual.compute_residuals(j, p2, np.array(e)).tolist()
        psum = PolyMatrix(
            F97, [list(map(F97.poly_add, ra, rb)) for ra, rb in zip(p1.rows, p2.rows)]
        )
        rsum = residual.compute_residuals(j, psum, np.array(e)).tolist()
        assert rsum == [
            [(a + b) % 97 for a, b in zip(ra, rb)] for ra, rb in zip(r1, r2)
        ]


def test_dimension_mismatch_rejected():
    p = PolyMatrix.identity(F97, 2)
    with pytest.raises(ValueError):
        residual.compute_residuals(nilpotent3(), p, np.array(EVALS))
