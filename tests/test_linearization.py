import random

import pytest
from hypothesis import given, settings, strategies as st

from mibasis.field import PrimeField
from mibasis import jordan, linearization as lin, modmat, oracle, polymat
from mibasis.polymat import PolyMatrix

F97 = PrimeField(97)
F7 = PrimeField(7)

EVALS = [
    [27, 49, 29],
    [50, 58, 0],
    [77, 10, 29],
]


def nilpotent3():
    return jordan.JordanRep(F97, ((0, 3),))


def rand_jordan(rng, field, sigma):
    pairs = []
    left = sigma
    while left:
        s = rng.randrange(1, left + 1)
        pairs.append((rng.randrange(min(field.p, 6)), s))
        left -= s
    return jordan.JordanRep(field, tuple(pairs))


def priority_order(shift, delta):
    """Reference row order: all pairs (c, d), sorted by (shift[c] + d, c)."""
    pairs = [(c, d) for d in range(delta + 1) for c in range(len(shift))]
    return sorted(pairs, key=lambda cd: (shift[cd[0]] + cd[1], cd[0]))


def test_priority_uniform_shift_formula():
    for d in range(4):
        for c in range(3):
            assert lin.priority_index([0, 0, 0], 3, c, d) == c + 3 * d


def test_priority_row_order_for_staircase_shift():
    expected = [
        (0, 0), (0, 1), (0, 2), (0, 3),
        (1, 0), (1, 1), (1, 2), (1, 3),
        (2, 0), (2, 1), (2, 2), (2, 3),
    ]
    assert priority_order([0, 3, 6], 3) == expected
    for i, (c, d) in enumerate(expected):
        assert lin.priority_index([0, 3, 6], 3, c, d) == i


def test_priority_single_column():
    assert [lin.priority_index([5], 4, 0, d) for d in range(5)] == list(range(5))


def test_priority_invariants():
    rng = random.Random(1)
    for _ in range(200):
        m = rng.randrange(1, 5)
        delta = rng.randrange(1, 6)
        s = [rng.choice([0, 1, 2, 3, 4, 40]) for _ in range(m)]
        order = priority_order(s, delta)
        assert [lin.priority_index(s, delta, c, d) for c, d in order] == list(range(len(order)))
        for c in range(m):
            ranks = [lin.priority_index(s, delta, c, d) for d in range(delta + 1)]
            assert ranks == sorted(ranks)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_pivot_matches_rightmost_expansion_column(data):
    m = data.draw(st.integers(min_value=1, max_value=4))
    delta = data.draw(st.integers(min_value=1, max_value=4))
    s = data.draw(st.lists(st.integers(min_value=0, max_value=4), min_size=m, max_size=m))
    row = [
        data.draw(st.lists(st.integers(min_value=0, max_value=6), max_size=delta + 1))
        for _ in range(m)
    ]
    mat = PolyMatrix.from_entries(F7, [row])
    if all(not e for e in mat.rows[0]):
        return
    index_of = {cd: i for i, cd in enumerate(priority_order(s, delta))}
    # the rightmost nonzero column of the row's scalar expansion, in
    # priority order, is the leading coefficient of some entry
    rightmost = max(index_of[c, len(e) - 1] for c, e in enumerate(mat.rows[0]) if e)
    c, d = polymat.pivot(mat.rows[0], s)
    assert index_of[c, d] == rightmost
    assert lin.priority_index(s, delta, c, d) == rightmost


def test_krylov_rank_profile_reference_instance():
    j = nilpotent3()
    prof = lin.krylov_rank_profile(EVALS, j, [0, 0, 0], 4, F97)
    assert prof.row_indices == [0, 1, 3]
    assert prof.decoded == [(0, 0), (1, 0), (0, 1)]
    prof_s = lin.krylov_rank_profile(EVALS, j, [0, 3, 6], 4, F97)
    assert prof_s.row_indices == [0, 1, 2]
    assert prof_s.decoded == [(0, 0), (0, 1), (0, 2)]
    prof_t = lin.krylov_rank_profile(EVALS, j, [3, 0, 2], 4, F97)
    assert prof_t.row_indices == [0, 1, 2]
    assert prof_t.decoded == [(1, 0), (1, 1), (1, 2)]


def test_krylov_rank_profile_zero_matrix():
    j = nilpotent3()
    prof = lin.krylov_rank_profile([[0, 0, 0]] * 2, j, [0, 0], 4, F97)
    assert prof.rank == 0 and prof.row_indices == []


def test_krylov_rejects_bad_delta():
    j = nilpotent3()
    with pytest.raises(ValueError):
        lin.krylov_rank_profile(EVALS, j, [0, 0, 0], 3, F97)
    with pytest.raises(ValueError):
        lin.krylov_rank_profile(EVALS, j, [0, 0, 0], 8, F97)


def test_minimal_degree_reference_values():
    j = nilpotent3()
    for shift, expected in (
        ([0, 0, 0], [2, 1, 0]),
        ([0, 3, 6], [3, 0, 0]),
        ([3, 0, 2], [0, 3, 0]),
    ):
        prof = lin.krylov_rank_profile(EVALS, j, shift, 4, F97)
        assert lin.minimal_degree(prof, 3) == expected


def test_minimal_degree_rank_zero():
    j = nilpotent3()
    prof = lin.krylov_rank_profile([[0, 0, 0]], j, [0], 4, F97)
    assert lin.minimal_degree(prof, 1) == [0]


def _dense_rank_profile_reference(e_rows, mulmat, shift, delta, field):
    kry = oracle.striped_krylov(e_rows, mulmat, shift, delta, field)
    return modmat.row_rank_profile(kry, field.p)[1]


def test_krylov_matches_dense_reference_jordan_and_dense():
    rng = random.Random(3)
    for _ in range(30):
        m = rng.randrange(1, 5)
        sigma = rng.randrange(1, 13)
        j = rand_jordan(rng, F7, sigma)
        e = [[rng.randrange(7) for _ in range(sigma)] for _ in range(m)]
        s = [rng.randrange(6) for _ in range(m)]
        delta = 1
        while delta < jordan.minpoly_degree(j):
            delta *= 2
        prof = lin.krylov_rank_profile(e, j, s, delta, F7)
        assert prof.row_indices == _dense_rank_profile_reference(e, j, s, delta, F7)
        dense = jordan.to_dense(j)
        prof_d = lin.krylov_rank_profile(e, dense, s, delta, F7)
        assert prof_d.row_indices == prof.row_indices
    for _ in range(15):
        m = rng.randrange(1, 4)
        sigma = rng.randrange(1, 8)
        dense = [[rng.randrange(7) for _ in range(sigma)] for _ in range(sigma)]
        e = [[rng.randrange(7) for _ in range(sigma)] for _ in range(m)]
        s = [rng.randrange(5) for _ in range(m)]
        delta = 1
        while delta < sigma:
            delta *= 2
        prof = lin.krylov_rank_profile(e, dense, s, delta, F7)
        assert prof.row_indices == _dense_rank_profile_reference(e, dense, s, delta, F7)


def _profile_and_eliminations(monkeypatch, *args):
    """krylov_rank_profile, and for each elimination whether it resumed."""
    resumed = []
    rref = modmat.rref

    def spy(mat, p, reduced=None, **kwargs):
        resumed.append(reduced is not None)
        return rref(mat, p, reduced, **kwargs)

    monkeypatch.setattr(modmat, "rref", spy)
    return lin.krylov_rank_profile(*args), resumed


def test_krylov_stops_once_the_kept_rows_span(monkeypatch):
    # uniform shift: every step after the first resumes, and the 6 rows of E
    # reach rank sigma = 48 at the step by M^4; the steps by M^8, M^16 and
    # M^32 that delta = 64 asks for are skipped
    field = PrimeField(65537)
    rng = random.Random(11)
    sigma = 48
    e = [[rng.randrange(field.p) for _ in range(sigma)] for _ in range(6)]
    dense = [[rng.randrange(field.p) for _ in range(sigma)] for _ in range(sigma)]
    expected = _dense_rank_profile_reference(e, dense, [0] * 6, 64, field)
    prof, resumed = _profile_and_eliminations(monkeypatch, e, dense, [0] * 6, 64, field)
    assert resumed == [False, True, True]
    assert prof.rank == sigma
    assert prof.row_indices == expected


def test_krylov_interleaving_rows_neither_resume_nor_stop(monkeypatch):
    # a shift spread of 5 exceeds every step below delta = 8, so the new
    # rows of column 0 sort before kept rows of column 1: each step
    # eliminates from scratch, and rank sigma after the step by M^2 does
    # not end the loop, as rows (0, 4), (0, 5), (0, 6) still enter the profile
    rng = random.Random(12)
    sigma = 8
    e = [[rng.randrange(97) for _ in range(sigma)] for _ in range(2)]
    dense = [[rng.randrange(97) for _ in range(sigma)] for _ in range(sigma)]
    expected = _dense_rank_profile_reference(e, dense, [0, 5], 8, F97)
    prof, resumed = _profile_and_eliminations(monkeypatch, e, dense, [0, 5], 8, F97)
    assert resumed == [False, False, False]
    assert prof.row_indices == expected
    assert (0, 6) in prof.decoded


def test_krylov_rank_below_sigma_runs_every_step(monkeypatch):
    # M = diag(A, B) and E supported on A's coordinates: the Krylov space
    # has rank 6 < sigma = 12, so the loop must not stop before delta = 16
    big = PrimeField((1 << 61) - 1)
    rng = random.Random(13)
    sigma, half = 12, 6
    e = [[rng.randrange(big.p) for _ in range(half)] + [0] * half for _ in range(2)]
    dense = [[0] * sigma for _ in range(sigma)]
    for lo in (0, half):
        for i in range(lo, lo + half):
            for j in range(lo, lo + half):
                dense[i][j] = rng.randrange(big.p)
    expected = _dense_rank_profile_reference(e, dense, [0, 0], 16, big)
    prof, resumed = _profile_and_eliminations(monkeypatch, e, dense, [0, 0], 16, big)
    assert resumed == [False, True, True, True]
    assert prof.rank == half
    assert prof.row_indices == expected


def _eliminations(monkeypatch, *args):
    """krylov_rank_profile, and for each elimination its input rows, whether
    it resumed, and the indices of the rows it kept."""
    calls = []
    rref = modmat.rref

    def spy(mat, p, reduced=None, **kwargs):
        out = rref(mat, p, reduced, **kwargs)
        calls.append((mat.tolist(), reduced is not None, out[0]))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(modmat, "rref", spy)
        return lin.krylov_rank_profile(*args), calls


def _check_new_rows(calls, e, dense, shift, delta, p):
    """Replay the eliminations on (column, degree) labels.  The step by
    M^step must add exactly the rows of degrees step..2*step-1 of the
    columns that kept the degrees 0..step-1, with the bytes of E*M^d, and
    must resume exactly when the kept rows are a prefix of the kept rows
    merged with all their images under M^step.  Returns how many of those
    images belong to finished columns and so were never made."""
    def key(cd):
        return (shift[cd[0]] + cd[1], cd[0])

    krylov = [[[x % p for x in row] for row in e]]
    for _ in range(delta):
        krylov.append([[sum(a * b for a, b in zip(row, col)) % p for col in zip(*dense)]
                       for row in krylov[-1]])
    kept = sorted(((c, 0) for c in range(len(e))), key=key)
    step, spared = 1, 0
    for i, (mat, resumed, pivrows) in enumerate(calls):
        assert step < delta
        images = [(c, d + step) for c, d in kept]
        live = [c for c, d in kept if d == step - 1]
        spared += len(images) - step * len(live)
        assert resumed == (i > 0 and sorted(kept + images, key=key)[: len(kept)] == kept)
        labels = sorted(kept + [(c, d) for c in live for d in range(step, 2 * step)], key=key)
        assert mat == [krylov[d][c] for c, d in labels]
        kept = [labels[k] for k in pivrows]
        step *= 2
    return spared


def _finished_column_cases(field, rng):
    """(name, E, M, dense M, delta, spares) with columns that finish at
    different degrees; spares tells whether some column finishes after
    keeping rows, so that images of its kept rows are never made.  The
    repeated and the zero row of E finish before keeping any."""
    p = field.p

    def rand_rows(rows, cols):
        return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]

    sigma = 10
    r, s = rand_rows(2, sigma)
    dense = rand_rows(sigma, sigma)
    yield "equal and zero rows of E", [r, list(r), [0] * sigma, s], dense, dense, 16, False
    sigma, a = 12, 5
    dense = [row + [0] * (sigma - a) for row in rand_rows(a, a)]
    dense += [[0] * a + row for row in rand_rows(sigma - a, sigma - a)]
    e = [row + [0] * (sigma - a) for row in rand_rows(2, a)]
    yield "diag(A, B), E on A", e, dense, dense, 16, True
    # two rows of E span 6 + 3 of the 10 dimensions, so no step stops early
    j = jordan.JordanRep(field, ((0, 6), (0, 3), (0, 1)))
    dense = jordan.to_dense(j)
    e = rand_rows(2, j.order)
    yield "dense nilpotent M", e, dense, dense, 16, True
    yield "Jordan nilpotent M", e, j, dense, 16, True
    # row 1 of E is an eigenvector: column 1 finishes at degree 0 while
    # column 0 stays live, so steps mix live and finished columns
    j = jordan.JordanRep(field, ((0, 7), (2, 1)))
    dense = jordan.to_dense(j)
    e = [rand_rows(1, 8)[0], [0] * 7 + [1 + rng.randrange(p - 1)]]
    yield "eigenvector row of E, dense M", e, dense, dense, 8, True
    yield "eigenvector row of E, Jordan M", e, j, dense, 8, True


@pytest.mark.parametrize("p", [7, 65537, 268435399, (1 << 61) - 1])
def test_krylov_finished_columns_get_no_rows(monkeypatch, p):
    # products in float64 words at p = 7 and 65537, in int64 at
    # p = 268435399 and in object words at 2^61 - 1.  Uniform shifts resume
    # every step; the spread ones make new rows sort among the kept ones
    field = PrimeField(p)
    rng = random.Random(p)
    for name, e, mulmat, dense, delta, spares in _finished_column_cases(field, rng):
        m = len(e)
        for shift in ([0] * m, [0, 3, 1, 5][:m]):
            prof, calls = _eliminations(monkeypatch, e, mulmat, shift, delta, field)
            expected = _dense_rank_profile_reference(e, mulmat, shift, delta, field)
            assert prof.row_indices == expected, (name, shift)
            spared = _check_new_rows(calls, e, dense, shift, delta, p)
            assert (spared > 0) == spares, (name, shift)
            basis, mindeg = lin.lin_interp_basis(e, mulmat, shift, delta, field)
            popov, oracle_mindeg = oracle.oracle_popov(e, mulmat, shift, field)
            assert basis == popov and mindeg == oracle_mindeg, (name, shift)


EXPECTED_POPOV = [
    [[82, 40, 1], [76], []],
    [[13, 3], [57, 1], []],
    [[96], [96], [1]],
]


def test_lin_interp_basis_reference_uniform():
    j = nilpotent3()
    basis, mindeg = lin.lin_interp_basis(EVALS, j, [0, 0, 0], 4, F97)
    assert mindeg == [2, 1, 0]
    assert basis == PolyMatrix.from_entries(F97, EXPECTED_POPOV)
    assert polymat.is_popov(basis, [0, 0, 0])


def test_lin_interp_basis_staircase_shift():
    j = nilpotent3()
    basis, mindeg = lin.lin_interp_basis(EVALS, j, [0, 3, 6], 4, F97)
    assert mindeg == [3, 0, 0]
    assert basis.rows[0][0] == [0, 0, 0, 1]
    assert polymat.is_popov(basis, [0, 3, 6])
    ob, om = oracle.oracle_popov(EVALS, j, [0, 3, 6], F97)
    assert basis == ob and mindeg == om


def test_lin_interp_basis_field_mismatch_rejected():
    with pytest.raises(ValueError, match="field"):
        lin.lin_interp_basis(EVALS, nilpotent3(), [0, 0, 0], 4, F7)
    # the profile alone too: it would multiply mod 7 and eliminate mod 97
    with pytest.raises(ValueError, match="field"):
        lin.krylov_rank_profile([[1, 2, 3]], jordan.JordanRep(F7, ((1, 3),)), [0], 4, F97)


def test_lin_interp_basis_zero_evals():
    j = nilpotent3()
    basis, mindeg = lin.lin_interp_basis([[0, 0, 0]] * 3, j, [0, 1, 2], 4, F97)
    assert basis == PolyMatrix.identity(F97, 3)
    assert mindeg == [0, 0, 0]


def test_lin_interp_basis_properties_random():
    rng = random.Random(4)
    for _ in range(25):
        m = rng.randrange(1, 5)
        sigma = rng.randrange(1, 10)
        j = rand_jordan(rng, F97, sigma)
        e = [[rng.randrange(97) for _ in range(sigma)] for _ in range(m)]
        s = [rng.randrange(5) for _ in range(m)]
        delta = 1
        while delta < jordan.minpoly_degree(j):
            delta *= 2
        basis, mindeg = lin.lin_interp_basis(e, j, s, delta, F97)
        assert polymat.is_popov(basis, s)
        res = oracle.naive_residual(j, basis, e)
        assert all(not any(row) for row in res)
        assert basis.degree() <= delta
        colsum = sum(
            max((len(basis.rows[i][c]) - 1 for i in range(m) if basis.rows[i][c]), default=0)
            for c in range(m)
        )
        assert colsum <= sigma
        # full dense rank equals the minimal degree sum
        kry = oracle.striped_krylov(e, j, s, max(sigma, 1), F97)
        assert sum(mindeg) == modmat.row_rank_profile(kry, 97)[0]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lin_dense_differential_fuzz_against_oracle(data):
    # both engines return the shifted Popov form, which is unique
    field = PrimeField(data.draw(st.sampled_from([7, 97, 65537, (1 << 61) - 1])))
    m = data.draw(st.integers(min_value=1, max_value=4))
    sigma = data.draw(st.integers(min_value=1, max_value=10))
    coeff = st.integers(min_value=0, max_value=field.p - 1)
    square = st.lists(coeff, min_size=sigma, max_size=sigma)
    dense = data.draw(st.lists(square, min_size=sigma, max_size=sigma))
    e = data.draw(st.lists(square, min_size=m, max_size=m))
    s = data.draw(st.lists(st.sampled_from([0, 1, 2, 5, 10**6]), min_size=m, max_size=m))
    delta = 1
    while delta < sigma:
        delta *= 2
    basis, mindeg = lin.lin_interp_basis(e, dense, s, delta, field)
    popov, oracle_mindeg = oracle.oracle_popov(e, dense, s, field)
    assert basis == popov
    assert mindeg == oracle_mindeg


@pytest.mark.parametrize("p", [97, 65537, (1 << 61) - 1])
def test_lin_relations_read_off_the_transform_match_oracle_bytes(monkeypatch, p):
    # Shift spreads wider than the first doubling steps make new rows
    # interleave the kept ones, so steps after the first eliminate from
    # scratch; a block-diagonal M with E on one block, or a Jordan M with
    # dependent rows of E, gives a profile of rank below sigma.  The Popov
    # basis is unique, so the relations must give the oracle's exact bytes.
    field = PrimeField(p)
    rng = random.Random(p)
    resumed = []
    rref = modmat.rref

    def spy(mat, q, reduced=None, **kwargs):
        resumed.append(reduced is not None)
        return rref(mat, q, reduced, **kwargs)

    monkeypatch.setattr(modmat, "rref", spy)
    from_scratch, deficient = [], []
    for trial in range(12):
        m = 2 + trial % 3
        sigma = 6 + 2 * (trial % 4)
        s = [rng.choice([0, 3, 7, 12]) for _ in range(m)]
        s[trial % m] = 0
        s[(trial + 1) % m] = 9
        if trial % 3 == 0:
            j = rand_jordan(rng, field, sigma)
            e = [[rng.randrange(p) for _ in range(sigma)] for _ in range(m)]
            e[-1] = [(2 * x + 3 * y) % p for x, y in zip(e[0], e[1])]
            mulmat, delta = j, 1
            while delta < jordan.minpoly_degree(j):
                delta *= 2
        else:
            half = sigma // 2 if trial % 3 == 1 else sigma
            mulmat = [[0] * sigma for _ in range(sigma)]
            for lo in sorted({0, half} - {sigma}):
                hi = half if lo == 0 else sigma
                for i in range(lo, hi):
                    mulmat[i][lo:hi] = [rng.randrange(p) for _ in range(lo, hi)]
            e = [[rng.randrange(p) for _ in range(half)] + [0] * (sigma - half) for _ in range(m)]
            delta = 1
            while delta < sigma:
                delta *= 2
        del resumed[:]
        basis, mindeg = lin.lin_interp_basis(e, mulmat, s, delta, field)
        from_scratch.append(not all(resumed[1:]))
        popov, oracle_mindeg = oracle.oracle_popov(e, mulmat, s, field)
        assert repr(basis.rows) == repr(popov.rows)
        assert mindeg == oracle_mindeg
        deficient.append(sum(mindeg) < sigma)
    assert sum(from_scratch) >= 6 and sum(deficient) >= 4


def test_lin_interp_basis_rejects_delta_below_the_minimal_polynomial():
    # one nilpotent block of order 4 and delta = 2: the profile rows have
    # degrees 0 and 1, and the target row E*M^2 is not in their span
    j = jordan.JordanRep(F97, ((0, 4),))
    with pytest.raises(ValueError, match="span"):
        lin.lin_interp_basis([[1, 2, 3, 4]], j, [0], 2, F97)


def test_lin_interp_basis_shift_translation_invariance():
    rng = random.Random(5)
    for _ in range(10):
        m = rng.randrange(1, 4)
        sigma = rng.randrange(1, 8)
        j = rand_jordan(rng, F97, sigma)
        e = [[rng.randrange(97) for _ in range(sigma)] for _ in range(m)]
        s = [rng.randrange(4) for _ in range(m)]
        delta = 1
        while delta < jordan.minpoly_degree(j):
            delta *= 2
        b1, _ = lin.lin_interp_basis(e, j, s, delta, F97)
        b2, _ = lin.lin_interp_basis(e, j, [x + 3 for x in s], delta, F97)
        assert b1 == b2


def test_lin_interp_basis_large_prime_object_kernel():
    # a 61-bit prime runs the scalar kernels on object arrays of Python
    # integers end to end
    big = PrimeField((1 << 61) - 1)
    rng = random.Random(6)
    j = jordan.JordanRep(big, ((rng.randrange(big.p), 2), (rng.randrange(big.p), 2)))
    e = [[rng.randrange(big.p) for _ in range(4)] for _ in range(2)]
    s = [1, 0]
    basis, mindeg = lin.lin_interp_basis(e, j, s, 4, big)
    assert polymat.is_popov(basis, s)
    res = oracle.naive_residual(j, basis, e)
    assert all(not any(row) for row in res)
    ob, om = oracle.oracle_popov(e, j, s, big)
    assert ob == basis and om == mindeg


def test_lin_interp_basis_wide_matrix():
    # more rows than columns: constant relations appear explicitly
    j = jordan.JordanRep(F97, ((5, 1), (9, 1)))
    e = [[1, 1], [2, 3], [3, 4]]
    basis, mindeg = lin.lin_interp_basis(e, j, [0, 0, 0], 2, F97)
    assert sum(mindeg) == 2
    assert polymat.is_popov(basis, [0, 0, 0])
    res = oracle.naive_residual(j, basis, e)
    assert all(not any(row) for row in res)


def test_lin_interp_basis_reduces_unreduced_dense_input():
    # entries x + k*p far beyond 2^53 after one product: the result must be
    # the basis of the reduced input, since the Popov form is unique
    field = PrimeField(65537)
    rng = random.Random(9)
    e = [[rng.randrange(field.p) for _ in range(12)] for _ in range(3)]
    dense = [[rng.randrange(field.p) for _ in range(12)] for _ in range(12)]

    def lift(rows):
        return [[x + rng.randrange(10**9) * field.p for x in row] for row in rows]

    expected = lin.lin_interp_basis(e, dense, [0, 1, 2], 16, field)
    assert lin.lin_interp_basis(lift(e), lift(dense), [0, 1, 2], 16, field) == expected

