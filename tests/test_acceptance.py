"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The benchmark criterion writes bench_report.csv under its pytest
temporary directory, so a test run leaves the checkout as it was.
"""

import contextlib
import io
import random
import time

import numpy as np
import pytest

from mibasis.field import MINUS_INF, PrimeField
from mibasis import jordan, oracle, polymat, reductions, residual, unbalanced
from mibasis.cli import main as cli_main
from mibasis.dnc import interpolation_basis
from mibasis.linearization import krylov_rank_profile, lin_interp_basis, minimal_degree
from mibasis.approx import ApproximantInstance, pm_basis
from mibasis.nullspace import minimal_nullspace_basis
from mibasis.polymat import PolyMatrix
from mibasis.shift_change import change_shift

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

EXPECTED_POPOV = [
    [[82, 40, 1], [76], []],
    [[13, 3], [57, 1], []],
    [[96], [96], [1]],
]


def nilpotent3():
    return jordan.JordanRep(F97, ((0, 3),))


@contextlib.contextmanager
def criterion(num: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [{label}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:2d} [{label}]: PASS ({elapsed:.2f}s)")


def rand_jordan(rng, field, sigma, eig_pool):
    pairs = []
    left = sigma
    while left:
        s = rng.randrange(1, left + 1)
        pairs.append((rng.randrange(eig_pool) % field.p, s))
        left -= s
    return jordan.JordanRep(field, tuple(pairs))


def test_criterion_1_golden_linearization():
    with criterion(1, "golden Popov basis"):
        start = time.perf_counter()
        basis, mindeg = lin_interp_basis(EVALS, nilpotent3(), [0, 0, 0], 4, F97)
        expected = PolyMatrix.from_entries(F97, EXPECTED_POPOV)
        assert mindeg == [2, 1, 0]
        assert polymat.is_popov(basis, [0, 0, 0])
        assert basis == expected
        ob, _ = oracle.oracle_popov(EVALS, nilpotent3(), [0, 0, 0], F97)
        assert ob == basis
        reference = PolyMatrix.from_entries(F97, REFERENCE_BASIS)
        assert oracle.module_equivalent(basis, reference, EVALS, nilpotent3(), [0, 0, 0])
        assert time.perf_counter() - start < 1.0


def test_criterion_2_golden_minimal_degrees():
    with criterion(2, "golden degrees/profiles"):
        start = time.perf_counter()
        cases = [
            ([0, 0, 0], [2, 1, 0], [0, 1, 3]),
            ([0, 3, 6], [3, 0, 0], [0, 1, 2]),
            ([3, 0, 2], [0, 3, 0], [0, 1, 2]),
        ]
        for shift, want_mindeg, want_rows in cases:
            prof = krylov_rank_profile(EVALS, nilpotent3(), shift, 4, F97)
            assert prof.row_indices == want_rows
            assert minimal_degree(prof, 3) == want_mindeg
        assert time.perf_counter() - start < 1.0


def _random_instances(count):
    rng = random.Random(20240)
    out = []
    for k in range(count):
        field = F97 if k % 2 == 0 else F7
        m = rng.randrange(1, 7)
        sigma = rng.randrange(1, 25)
        j = rand_jordan(rng, field, sigma, eig_pool=min(field.p, 6))
        e = [[rng.randrange(field.p) for _ in range(sigma)] for _ in range(m)]
        while True:
            s = [rng.randrange(8) for _ in range(m)]
            if sum(s) <= 30:
                break
        out.append((field, m, sigma, j, e, s))
    return out


def test_criteria_3_and_4_cross_engine_and_degree_bounds():
    instances = _random_instances(200)
    with criterion(3, "cross-engine equivalence x200"):
        start = time.perf_counter()
        results = []
        for field, m, sigma, j, e, s in instances:
            basis = interpolation_basis(e, j, s, field)
            res = oracle.naive_residual(j, basis, e)
            assert all(not any(row) for row in res)
            degs = polymat.shifted_row_degree(basis, s)
            assert all(d != MINUS_INF for d in degs)
            assert polymat.is_reduced(basis, s)
            _, mindeg = oracle.oracle_popov(e, j, s, field)
            assert polymat.degree_sum(degs) - sum(s) == sum(mindeg)
            results.append((basis, degs))
        assert time.perf_counter() - start < 30.0
    with criterion(4, "degree bounds"):
        for (field, m, sigma, j, e, s), (basis, degs) in zip(instances, results):
            smin = min(s)
            # min-normalized shifted degree mass is at most sigma + mass of
            # the normalized shift; unnormalized, the shift mass adds on top
            assert polymat.degree_sum(degs) - m * smin <= sigma + sum(x - smin for x in s)
            assert polymat.degree_sum(degs) <= sigma + sum(s)
            if all(x == s[0] for x in s):
                plain = polymat.shifted_row_degree(basis, [0] * m)
                assert oracle.determinant_degree(basis) == polymat.degree_sum(plain)
                assert polymat.degree_sum(plain) <= sigma


def test_criterion_5_popov_uniqueness_dense_mulmat():
    with criterion(5, "dense-M Popov uniqueness x50"):
        rng = random.Random(5050)
        for k in range(50):
            m = rng.randrange(1, 5)
            sigma = rng.randrange(1, 11)
            if k % 2 == 0:
                mul = [
                    [rng.randrange(97) if c >= r else 0 for c in range(sigma)]
                    for r in range(sigma)
                ]
            else:
                mul = [[rng.randrange(97) for _ in range(sigma)] for _ in range(sigma)]
            e = [[rng.randrange(97) for _ in range(sigma)] for _ in range(m)]
            s = [rng.randrange(5) for _ in range(m)]
            delta = 1
            while delta < sigma:
                delta *= 2
            fast, _ = lin_interp_basis(e, mul, s, delta, F97)
            slow, _ = oracle.oracle_popov(e, mul, s, F97)
            assert fast == slow
            assert polymat.is_popov(fast, s)
            colsum = sum(
                max((len(fast.rows[i][c]) - 1 for i in range(m) if fast.rows[i][c]), default=0)
                for c in range(m)
            )
            assert colsum <= sigma


def _rand_matrix_with_degrees(rng, field, degrees, cols):
    rows = []
    for d in degrees:
        if d < 0:
            rows.append([[] for _ in range(cols)])
            continue
        row = []
        for _ in range(cols):
            deg = rng.randrange(d + 1)
            row.append(field.poly([rng.randrange(field.p) for _ in range(deg + 1)]))
        rows.append(row)
    return PolyMatrix(field, rows, cols)


def test_criterion_6_unbalanced_multiplication():
    with criterion(6, "unbalanced product x500"):
        start = time.perf_counter()
        rng = random.Random(6006)
        for trial in range(500):
            m = rng.randrange(1, 7)
            kind = trial % 5
            if kind == 0:
                degs = [rng.randrange(5)] * m
            elif kind == 1:  # one dominant row
                degs = [0] * m
                degs[rng.randrange(m)] = rng.randrange(10, 30)
            elif kind == 2:  # zero rows present
                degs = [rng.choice([-1, -1, 0, 2]) for _ in range(m)]
            elif kind == 3:
                degs = [rng.choice([-1, 0, 1, 3, 7]) for _ in range(m)]
            else:
                degs = [rng.randrange(7) for _ in range(m)]
            a = _rand_matrix_with_degrees(rng, F7, degs, m)
            bdegs = [rng.choice([-1, 0, 1, 2, 5]) for _ in range(m)]
            b = _rand_matrix_with_degrees(rng, F7, bdegs, m)
            xi = max(unbalanced.auto_xi(b, a), m, min(rng.randrange(m, 41), 40))
            got = unbalanced.unbalanced_mul(b, a, xi)
            assert got == polymat.naive_mul(b, a)
        assert time.perf_counter() - start < 10.0


def test_criterion_7_residual_dispatcher():
    with criterion(7, "residuals vs naive x300"):
        start = time.perf_counter()
        rng = random.Random(7007)
        krylov_calls, tails = 0, []
        krylov, tail = residual._residual_by_krylov, residual.residual_by_crt

        def spy_krylov(*args):
            nonlocal krylov_calls
            krylov_calls += 1
            return krylov(*args)

        def spy_tail(entries, *args):
            tails.append(list(entries))
            return tail(entries, *args)

        for trial in range(300):
            m = rng.randrange(1, 5)
            kind = trial % 4
            if kind == 0:  # all blocks size 1
                sigma = rng.randrange(1, 13)
                pairs = [(rng.randrange(4), 1) for _ in range(sigma)]
            elif kind == 1:  # one block of full size
                sigma = rng.randrange(1, 13)
                pairs = [(rng.randrange(5), sigma)]
            elif kind == 2:  # repetition above the m threshold
                reps = m + 1 + rng.randrange(4)
                size = rng.randrange(1, 3)
                pairs = [(2, size)] * reps + [(4, 1)]
            else:
                pairs = []
                left = rng.randrange(1, 15)
                while left:
                    s = rng.randrange(1, left + 1)
                    pairs.append((rng.randrange(4), s))
                    left -= s
            field = F7 if trial % 2 else F97
            pairs = [(x % field.p, s) for x, s in pairs]
            j = jordan.JordanRep(field, tuple(pairs))
            sigma = j.order
            e = [[rng.randrange(field.p) for _ in range(sigma)] for _ in range(m)]
            p = PolyMatrix.from_entries(
                field,
                [
                    [
                        [rng.randrange(field.p) for _ in range(rng.randrange(5))]
                        for _ in range(m)
                    ]
                    for _ in range(m)
                ],
            )
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(residual, "_residual_by_krylov", spy_krylov)
                mp.setattr(residual, "residual_by_crt", spy_tail)
                got = residual.compute_residuals(j, p, np.array(e)).tolist()
            assert got == oracle.naive_residual(j, p, e)
        # both paths exercised, and a tail of two distinct nonzero eigenvalues
        assert krylov_calls and tails
        assert any(len({x for x, _, _ in entries} - {0}) >= 2 for entries in tails)
        assert time.perf_counter() - start < 10.0


def _oracle_min_nullspace_degree_sum(f: PolyMatrix, shift):
    field = f.field
    bound = sum(shift) + max(int(f.degree()), 0) + 1
    e = []
    for row in f.rows:
        packed = []
        for e_poly in row:
            packed.extend((e_poly + [0] * bound)[:bound])
        e.append(packed)
    rep = jordan.JordanRep(field, ((0, bound),) * f.ncols)
    popov, _ = oracle.oracle_popov(e, rep, shift, field)
    degs = polymat.shifted_row_degree(popov, shift)
    exact = []
    for i in range(popov.nrows):
        if polymat.naive_mul(PolyMatrix(field, [popov.rows[i]]), f).is_zero():
            exact.append(int(degs[i]))
    return sum(sorted(exact)[: f.nrows - f.ncols])


def test_criterion_8_nullspace():
    with criterion(8, "minimal nullspace x100"):
        rng = random.Random(8008)
        done = 0
        while done < 100:
            m = rng.randrange(2, 7)
            n = rng.randrange(1, m)
            f = PolyMatrix.from_entries(
                F97,
                [
                    [
                        [rng.randrange(97) for _ in range(rng.randrange(5))]
                        for _ in range(n)
                    ]
                    for _ in range(m)
                ],
            )
            try:
                kernel = oracle.rational_kernel(f)
            except ValueError:
                continue
            done += 1
            s = [
                (int(d) if d != MINUS_INF else 0) + rng.randrange(3)
                for d in polymat.plain_row_degree(f)
            ]
            basis, degs = minimal_nullspace_basis(f, s)
            assert basis.nrows == m - n
            assert polymat.naive_mul(basis, f).is_zero()
            assert polymat.is_reduced(basis, s)
            for row in kernel.rows:
                assert oracle.reduces_to_zero(row, basis, s)
            assert polymat.degree_sum(degs) == _oracle_min_nullspace_degree_sum(f, s)


def _rand_popov(rng, field, m, shift, max_deg=3):
    while True:
        diag = [rng.randrange(max_deg + 1) for _ in range(m)]
        rows = []
        for i in range(m):
            row = []
            for j in range(m):
                if j == i:
                    row.append(field.poly([rng.randrange(field.p) for _ in range(diag[i])] + [1]))
                    continue
                cap = min(diag[j] - 1, shift[i] + diag[i] - shift[j] - (1 if j > i else 0))
                if cap < 0 or rng.random() < 0.3:
                    row.append([])
                else:
                    row.append(field.poly([rng.randrange(field.p) for _ in range(cap + 1)]))
            rows.append(row)
        mat = PolyMatrix(field, rows)
        if polymat.is_popov(mat, shift):
            return mat


def test_criterion_9_change_of_shift():
    with criterion(9, "change of shift x100"):
        rng = random.Random(9009)
        for _ in range(100):
            m = rng.randrange(1, 6)
            s = [rng.randrange(4) for _ in range(m)]
            t = [rng.randrange(5) for _ in range(m)]
            pmat = _rand_popov(rng, F97, m, s)
            r, u = change_shift(pmat, s, t)
            assert polymat.naive_mul(u, pmat) == r
            st = [a + b for a, b in zip(s, t)]
            assert polymat.is_reduced(r, st)
            lhs = polymat.degree_sum(polymat.shifted_row_degree(r, st))
            rhs = polymat.degree_sum(polymat.shifted_row_degree(pmat, s)) + sum(t)
            assert lhs == rhs


def test_criterion_10_hermite_pade_golden():
    with criterion(10, "order-basis golden"):
        start = time.perf_counter()
        f = PolyMatrix.from_entries(F97, [[[27, 49, 29]], [[50, 58]], [[77, 10, 29]]])
        basis = pm_basis(ApproximantInstance(f, (3,), (0, 0, 0)))
        degs = polymat.shifted_row_degree(basis, [0, 0, 0])
        assert sorted(degs) == [0, 1, 2]
        reference = PolyMatrix.from_entries(F97, REFERENCE_BASIS)
        inst = reductions.hermite_pade_instance(f, [3])
        assert oracle.module_equivalent(basis, reference, inst.evals, inst.mulmat, [0, 0, 0])
        assert time.perf_counter() - start < 1.0


def test_criterion_11_reed_solomon_interpolation():
    with criterion(11, "list-decoding end to end"):
        start = time.perf_counter()
        rng = random.Random(1111)
        n, w, nerr = 16, 3, 2
        xs = rng.sample(range(97), n)
        message = [rng.randrange(97) for _ in range(w)] + [rng.randrange(1, 97)]
        ys = [F97.poly_eval(message, x) for x in xs]
        for i in rng.sample(range(n), nerr):
            ys[i] = (ys[i] + rng.randrange(1, 97)) % 97
        sigma = n * 3  # sum of binom(b+1, 2) at b = 2
        m = reductions.guruswami_sudan_list_size(sigma, w)
        assert m == 6
        res = reductions.rs_interpolation(F97, list(zip(xs, ys)), [2] * n, w, m)
        q = res.q_row
        assert any(q)
        # vanishing with multiplicity two at every point
        for x, y in zip(xs, ys):
            for i in range(2):
                for jj in range(2 - i):
                    c_total = 0
                    for g, poly in enumerate(q):
                        if g < jj:
                            continue
                        coeff_y = F97.binomial(g, jj) * pow(y, g - jj, 97) % 97
                        if coeff_y:
                            shifted = F97.taylor_shift(poly, x)
                            c_total = (
                                c_total + coeff_y * (shifted[i] if i < len(shifted) else 0)
                            ) % 97
                    assert c_total == 0
        # (Y - message) divides Q: synthetic division in the list variable
        quotient = [None] * (len(q) - 1)
        carry = q[-1]
        for g in range(len(q) - 2, -1, -1):
            quotient[g] = carry
            carry = F97.poly_add(q[g], F97.poly_mul(carry, message))
        assert carry == []
        assert time.perf_counter() - start < 5.0


def test_criterion_12_benchmark_smoke(tmp_path):
    with criterion(12, "benchmark report"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(
                ["bench", "--sizes", "256,512,1024,2048", "--m", "4", "--seed", "0"]
            )
        assert rc == 0
        text = buf.getvalue()
        lines = [ln for ln in text.strip().splitlines() if ln]
        assert lines[0] == "engine,m,sigma,seconds"
        assert len(lines) == 1 + 3 * 4
        for ln in lines[1:]:
            engine, m, sigma, seconds = ln.split(",")
            assert engine in ("dnc", "lin", "oracle")
            assert int(m) == 4 and int(sigma) in (256, 512, 1024, 2048)
            float(seconds)
        (tmp_path / "bench_report.csv").write_text(text)
