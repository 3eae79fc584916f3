import random

import numpy as np
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


def rows_at(shift, delta, indices):
    """The (column, degree) pairs at the given indices of the degree-delta
    priority order."""
    pairs = oracle._priority_pairs(shift, len(shift), delta)
    return [pairs[i] for i in indices]


def test_krylov_rank_profile_reference_instance():
    j = nilpotent3()
    prof = lin.krylov_rank_profile(EVALS, j, [0, 0, 0], 4, F97)
    assert prof.decoded == rows_at([0, 0, 0], 4, [0, 1, 3])
    assert prof.decoded == [(0, 0), (1, 0), (0, 1)]
    prof_s = lin.krylov_rank_profile(EVALS, j, [0, 3, 6], 4, F97)
    assert prof_s.decoded == rows_at([0, 3, 6], 4, [0, 1, 2])
    assert prof_s.decoded == [(0, 0), (0, 1), (0, 2)]
    prof_t = lin.krylov_rank_profile(EVALS, j, [3, 0, 2], 4, F97)
    assert prof_t.decoded == rows_at([3, 0, 2], 4, [0, 1, 2])
    assert prof_t.decoded == [(1, 0), (1, 1), (1, 2)]


def test_krylov_rank_profile_zero_matrix():
    j = nilpotent3()
    prof = lin.krylov_rank_profile([[0, 0, 0]] * 2, j, [0, 0], 4, F97)
    assert prof.rank == 0 and prof.decoded == []


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
    """The profile's (column, degree) pairs, by elimination of the whole
    priority-ordered striped Krylov matrix."""
    kry = oracle.striped_krylov(e_rows, mulmat, shift, delta, field)
    return rows_at(shift, delta, modmat.row_rank_profile(kry, field.p)[1])


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
        assert prof.decoded == _dense_rank_profile_reference(e, j, s, delta, F7)
        dense = jordan.to_dense(j)
        prof_d = lin.krylov_rank_profile(e, dense, s, delta, F7)
        assert prof_d.decoded == prof.decoded
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
        assert prof.decoded == _dense_rank_profile_reference(e, dense, s, delta, F7)


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
    assert prof.decoded == expected


def test_krylov_interleaving_rows_resume_in_priority_order(monkeypatch):
    # shift (0, 5): the windows [0, 2) and [2, 4) hold column 0's rows
    # alone, and [4, 7), cut at 5 + 2 by column 1's first two rows, holds
    # (0, 4), (0, 5), (1, 0), (0, 6), (1, 1).  Each window follows the kept
    # rows, so both later eliminations resume, and rank sigma = 8 is
    # reached in the third, with row (0, 6) in the profile
    rng = random.Random(12)
    sigma = 8
    e = [[rng.randrange(97) for _ in range(sigma)] for _ in range(2)]
    dense = [[rng.randrange(97) for _ in range(sigma)] for _ in range(sigma)]
    expected = _dense_rank_profile_reference(e, dense, [0, 5], 8, F97)
    prof, resumed = _profile_and_eliminations(monkeypatch, e, dense, [0, 5], 8, F97)
    assert resumed == [False, True, True]
    assert prof.decoded == expected
    assert (0, 6) in prof.decoded


def test_krylov_rank_below_sigma_stops_with_no_live_column(monkeypatch):
    # M = diag(A, B) and E supported on A's coordinates: the Krylov space
    # has rank 6 < sigma = 12.  The window [2, 4) keeps rows (0, 2) and
    # (1, 2) and drops (0, 3) and (1, 3); no column is live after it, so
    # the loop ends there, well before delta = 16, without reaching sigma
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
    assert resumed == [False, True]
    assert prof.rank == half
    assert prof.decoded == expected


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
    """Replay the eliminations on (column, degree) labels.  Each must take
    only new rows: in priority order, every row below degree delta
    of the live columns, those that have dropped no row, whose key s_c + d
    lies in [start, end): start is the least s_c + kept_c and end the least
    s_c + 2 max(kept_c, 1) over the live columns, kept_c the rows column c
    has kept.  The rows must have the bytes of E*M^d, no column may get
    more than max(2, kept_c) of them, every elimination after the first
    must resume, and the loop must end at rank sigma or with no live
    column.  Returns how many eliminations ran after a column that had
    kept rows dropped one."""
    def key(cd):
        return (shift[cd[0]] + cd[1], cd[0])

    krylov = [[[x % p for x in row] for row in e]]
    for _ in range(delta):
        krylov.append([[sum(a * b for a, b in zip(row, col)) % p for col in zip(*dense)]
                       for row in krylov[-1]])
    m, sigma = len(e), len(e[0])
    kept, dropped = [0] * m, [False] * m
    labels, after_drop = [], 0

    def live():
        return [c for c in range(m) if not dropped[c] and kept[c] < delta]

    for i, (mat, resumed, pivrows) in enumerate(calls):
        assert resumed == (i > 0)
        cols = live()
        assert cols and len(labels) < sigma
        after_drop += any(dropped[c] and kept[c] for c in range(m))
        start = min(shift[c] + kept[c] for c in cols)
        end = min(shift[c] + 2 * max(kept[c], 1) for c in cols)
        new = [(c, d) for c in cols for d in range(kept[c], delta) if start <= shift[c] + d < end]
        offered = {c: sum(1 for k, _ in new if k == c) for c in cols}
        assert all(offered[c] <= max(2, kept[c]) for c in cols)
        new.sort(key=key)
        assert mat == [krylov[d][c] for c, d in new]
        labels += [new[k] for k in pivrows]
        for c in cols:
            now = sum(1 for k, _ in labels if k == c)
            dropped[c] = now - kept[c] < offered[c]
            kept[c] = now
    assert len(labels) == sigma or not live()
    return after_drop


def _finished_column_cases(field, rng):
    """(name, E, M, dense M, delta, outlived) with columns that finish at
    different degrees; outlived tells whether a column drops a row after
    keeping some while another stays live, so that eliminations follow
    without it.  The repeated and the zero row of E finish before keeping
    any."""
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
    yield "diag(A, B), E on A", e, dense, dense, 16, False
    # two rows of E span 6 + 3 of the 10 dimensions, so no step stops early
    j = jordan.JordanRep(field, ((0, 6), (0, 3), (0, 1)))
    dense = jordan.to_dense(j)
    e = rand_rows(2, j.order)
    yield "dense nilpotent M", e, dense, dense, 16, False
    yield "Jordan nilpotent M", e, j, dense, 16, False
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
    # p = 268435399 and in object words at 2^61 - 1.  The spread shift
    # makes the columns enter the windows at different degrees
    field = PrimeField(p)
    rng = random.Random(p)
    for name, e, mulmat, dense, delta, outlived in _finished_column_cases(field, rng):
        m = len(e)
        for shift in ([0] * m, [0, 3, 1, 5][:m]):
            prof, calls = _eliminations(monkeypatch, e, mulmat, shift, delta, field)
            expected = _dense_rank_profile_reference(e, mulmat, shift, delta, field)
            assert prof.decoded == expected, (name, shift)
            after_drop = _check_new_rows(calls, e, dense, shift, delta, p)
            assert (after_drop > 0) == outlived, (name, shift)
            basis, mindeg = lin.lin_interp_basis(e, mulmat, shift, delta, field)
            popov, oracle_mindeg = oracle.oracle_popov(e, mulmat, shift, field)
            assert basis == popov and mindeg == oracle_mindeg, (name, shift)


@pytest.mark.parametrize("p", [7, 65537, 268435399, (1 << 61) - 1])
def test_krylov_column_starts_after_another_finished(monkeypatch, p):
    # shift (0, 10^6) and M = diag(N, J), N nilpotent of order 5 and J of
    # eigenvalue 1 and order 7.  Row 0 of E lies on N's coordinates: column 0
    # keeps its degrees 0..4 and drops degree 5 in the window [4, 8).  Only
    # column 1 is live then, and the windows [10^6, 10^6 + 2),
    # [10^6 + 2, 10^6 + 4) and [10^6 + 4, 10^6 + 8) hold its rows alone,
    # until its degrees 0..6 reach rank sigma = 12
    field = PrimeField(p)
    rng = random.Random(p + 1)
    j = jordan.JordanRep(field, ((0, 5), (1, 7)))
    dense = jordan.to_dense(j)
    e = [
        [1 + rng.randrange(p - 1)] + [rng.randrange(p) for _ in range(4)] + [0] * 7,
        [rng.randrange(p) for _ in range(5)] + [1 + rng.randrange(p - 1)]
        + [rng.randrange(p) for _ in range(6)],
    ]
    shift = [0, 10**6]
    for mulmat in (j, dense):
        prof, calls = _eliminations(monkeypatch, e, mulmat, shift, 16, field)
        assert prof.decoded == [(0, d) for d in range(5)] + [(1, d) for d in range(7)]
        assert prof.decoded == _dense_rank_profile_reference(e, mulmat, shift, 16, field)
        assert len(calls) == 6
        assert _check_new_rows(calls, e, dense, shift, 16, p) == 3
        basis, mindeg = lin.lin_interp_basis(e, mulmat, shift, 16, field)
        popov, oracle_mindeg = oracle.oracle_popov(e, mulmat, shift, field)
        assert basis == popov and mindeg == oracle_mindeg == [5, 7]


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


def test_krylov_rank_profile_checks_an_array_e():
    # an array E is converted and checked as a list is
    e = np.array([[1, 2, 3]], dtype=np.int64)
    with pytest.raises(ValueError, match="field does not match the Jordan matrix"):
        lin.krylov_rank_profile(e, jordan.JordanRep(F7, ((1, 3),)), [0], 4, F97)
    with pytest.raises(ValueError, match="column count"):
        lin.krylov_rank_profile(e, jordan.JordanRep(F97, ((0, 4),)), [0], 4, F97)
    with pytest.raises(ValueError, match="square"):
        lin.krylov_rank_profile(e, [[1, 2, 3], [4, 5, 6]], [0], 4, F97)
    expected = lin.krylov_rank_profile(EVALS, nilpotent3(), [3, 0, 2], 4, F97)
    prof = lin.krylov_rank_profile(np.array(EVALS, dtype=np.int64), nilpotent3(), [3, 0, 2], 4, F97)
    assert prof.decoded == expected.decoded == [(1, 0), (1, 1), (1, 2)]


def _counted_solve(monkeypatch, *args):
    """lin_interp_basis, with its calls of check_evaluations, rref and mat_mul."""
    calls = {}

    def count(owner, name):
        fn = getattr(owner, name)

        def spy(*a, **kw):
            calls[name] = calls.get(name, 0) + 1
            return fn(*a, **kw)

        patch.setattr(owner, name, spy)

    with monkeypatch.context() as patch:
        count(jordan, "check_evaluations")
        count(modmat, "rref")
        count(modmat, "mat_mul")
        return lin.lin_interp_basis(*args), calls


@pytest.mark.parametrize("p", [97, 65537, (1 << 61) - 1])
def test_lin_interp_basis_takes_arrays_as_lists_with_one_check(monkeypatch, p):
    # E and a dense M as arrays give the bytes and the schedule of their
    # lists, and each solve checks its inputs once
    field = PrimeField(p)
    rng = random.Random(p + 2)
    sigma = 20
    e = [[rng.randrange(p) for _ in range(sigma)] for _ in range(3)]
    dense = [[rng.randrange(p) for _ in range(sigma)] for _ in range(sigma)]
    dt = np.int64 if p < 1 << 62 else object
    j = rand_jordan(rng, field, sigma)
    for mulmat, array_m in ((dense, np.array(dense, dtype=dt)), (j, j)):
        expected, calls = _counted_solve(monkeypatch, e, mulmat, [0, 2, 1], 32, field)
        got, array_calls = _counted_solve(monkeypatch, np.array(e, dtype=dt), array_m, [0, 2, 1], 32, field)
        assert repr(got[0].rows) == repr(expected[0].rows) and got[1] == expected[1]
        assert array_calls == calls
        assert calls["check_evaluations"] == 1


def test_rank_profile_targets_are_the_next_krylov_rows():
    # row c of the targets is row c of E*M^d_c, d_c the profile rows of
    # column c: rank-deficient E and M, columns with no profile row, and
    # spread shifts, on Jordan and dense M
    rng = random.Random(14)
    for trial in range(20):
        field = (F7, F97, PrimeField((1 << 61) - 1))[trial % 3]
        p = field.p
        m = rng.randrange(1, 5)
        sigma = rng.randrange(1, 11)
        j = rand_jordan(rng, field, sigma)
        e = [[rng.randrange(p) for _ in range(sigma)] for _ in range(m)]
        if m > 1:
            e[-1] = list(e[0]) if trial % 2 else [0] * sigma
        s = [rng.choice([0, 1, 3, 8]) for _ in range(m)]
        delta = 1
        while delta < sigma:
            delta *= 2
        for mulmat in (j, jordan.to_dense(j)):
            prof = lin.krylov_rank_profile(e, mulmat, s, delta, field)
            mindeg = lin.minimal_degree(prof, m)
            kry = oracle.striped_krylov(e, mulmat, s, delta, field)
            index = {cd: i for i, cd in enumerate(oracle._priority_pairs(s, m, delta))}
            assert prof.targets.tolist() == [kry[index[c, d]] for c, d in enumerate(mindeg)]


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
    # Shift spreads wider than the first windows make the columns enter the
    # profile at different degrees, and every elimination after the first
    # still resumes; a block-diagonal M with E on one block, or a Jordan M
    # with dependent rows of E, gives a profile of rank below sigma.  The
    # Popov basis is unique, so the relations must give the oracle's exact
    # bytes.
    field = PrimeField(p)
    rng = random.Random(p)
    resumed = []
    rref = modmat.rref

    def spy(mat, q, reduced=None, **kwargs):
        resumed.append(reduced is not None)
        return rref(mat, q, reduced, **kwargs)

    monkeypatch.setattr(modmat, "rref", spy)
    restarted, deficient = [], []
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
        restarted.append(not all(resumed[1:]))
        popov, oracle_mindeg = oracle.oracle_popov(e, mulmat, s, field)
        assert repr(basis.rows) == repr(popov.rows)
        assert mindeg == oracle_mindeg
        deficient.append(sum(mindeg) < sigma)
    assert not any(restarted) and sum(deficient) >= 4


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

