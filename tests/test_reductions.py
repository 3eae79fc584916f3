import random

import pytest
from hypothesis import given, settings, strategies as st

from mibasis.field import PrimeField
from mibasis import oracle, reductions
from mibasis.cli import main
from mibasis.dnc import interpolation_basis
from mibasis.jordan import JordanRep
from mibasis.polymat import PolyMatrix, shifted_row_degree

F97 = PrimeField(97)
F7 = PrimeField(7)


def bivariate_shift_coefficient(fld, q_row, x, y, i, j):
    """Coefficient of X^i Y^j in Q(X+x, Y+y), by direct expansion."""
    acc = 0
    for g, poly in enumerate(q_row):
        if g < j:
            continue
        c_yj = fld.binomial(g, j) * pow(y % fld.p, g - j, fld.p) % fld.p
        if not c_yj:
            continue
        shifted = fld.taylor_shift(poly, x)
        coeff = shifted[i] if i < len(shifted) else 0
        acc = (acc + c_yj * coeff) % fld.p
    return acc


def test_hermite_pade_instance_fixture():
    f = PolyMatrix.from_entries(F97, [[[27, 49, 29]], [[50, 58]], [[77, 10, 29]]])
    inst = reductions.hermite_pade_instance(f, [3])
    assert inst.evals == [[27, 49, 29], [50, 58, 0], [77, 10, 29]]
    assert inst.mulmat.blocks == ((0, 3),)


def test_hermite_pade_of_zero_rows_is_a_domain_error(tmp_path, capsys):
    inp = tmp_path / "hp.txt"
    inp.write_text("field p=97\npolymat 0 2\nshift 2\n3 2\n")
    assert main(["hermite-pade", str(inp)]) == 1
    assert capsys.readouterr() == ("", "error: at least one evaluation row is required\n")


def test_instances_take_the_engines_domain_checks():
    j = JordanRep(F97, ((0, 3),))
    for evals, mulmat, message in (
        ([[1, 2]], j, "column count of E must match the order of M"),
        ([], j, "at least one evaluation row is required"),
        ([[1, 2, 3]], JordanRep(F7, ((0, 3),)), "field does not match the Jordan matrix"),
        ([[]], JordanRep(F97, ()), "instance order must be at least 1"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            reductions.InterpolationInstance(F97, evals, mulmat)


def test_hermite_pade_zero_input():
    f = PolyMatrix.zeros(F7, 2, 2)
    inst = reductions.hermite_pade_instance(f, [2, 1])
    assert inst.evals == [[0, 0, 0]] * 2


def test_hermite_pade_block_packing_two_columns():
    f = PolyMatrix.from_entries(F7, [[[1, 2], [3]], [[4], [5]]])
    inst = reductions.hermite_pade_instance(f, [2, 1])
    assert inst.mulmat.blocks == ((0, 2), (0, 1))
    assert inst.evals == [[1, 2, 3], [4, 0, 5]]


def test_hermite_pade_degree_overflow():
    f = PolyMatrix.from_entries(F7, [[[1, 1, 1]]])
    with pytest.raises(ValueError):
        reductions.hermite_pade_instance(f, [2])


def test_mpade_zero_points_match_hermite_pade():
    rng = random.Random(1)
    f = PolyMatrix.from_entries(
        F7, [[[rng.randrange(7) for _ in range(2)] for _ in range(2)] for _ in range(3)]
    )
    a = reductions.hermite_pade_instance(f, [2, 2])
    b = reductions.mpade_instance(f, [0, 0], [2, 2])
    assert a.evals == b.evals and a.mulmat.blocks == b.mulmat.blocks


def test_mpade_size_one_blocks_are_evaluations():
    rng = random.Random(2)
    pts = [5, 1, 6, 3]
    f = PolyMatrix.from_entries(
        F7, [[[rng.randrange(7)] for _ in range(4)] for _ in range(2)]
    )
    # wait: columns must have degree < 1, i.e. constants; use varied constants
    inst = reductions.mpade_instance(f, pts, [1, 1, 1, 1])
    # the blocks, and so the evaluation columns, follow the points as given
    assert inst.mulmat.blocks == tuple((x, 1) for x in pts)
    for i, row in enumerate(f.rows):
        for jcol, x in enumerate(pts):
            assert inst.evals[i][jcol] == F7.poly_eval(row[jcol], x)


def test_mpade_congruence_conditions():
    rng = random.Random(3)
    pts = [1, 2]
    orders = [2, 2]
    f = PolyMatrix.from_entries(
        F7, [[[rng.randrange(7), rng.randrange(7)] for _ in range(2)] for _ in range(2)]
    )
    inst = reductions.mpade_instance(f, pts, orders)
    basis = interpolation_basis(inst.evals, inst.mulmat, [0, 0], F7)
    for row in basis.rows:
        for jcol, (x, o) in enumerate(zip(pts, orders)):
            acc = []
            for e, frow in zip(row, f.rows):
                acc = F7.poly_add(acc, F7.poly_mul(e, frow[jcol]))
            modulus = F7.poly_pow([(-x) % 7, 1], o)
            assert not F7.poly_mod(acc, modulus)


def test_multivariate_power_basis_rows():
    # one support point per abscissa, plain vanishing: rows are y powers
    pts = [(1, (2,)), (3, (4,)), (5, (6,))]
    inst = reductions.MultivariateInstance(
        F7, 1, ((0,), (1,)), tuple(pts), tuple(frozenset({(0, (0,))}) for _ in pts), (0,)
    )
    interp, shift = reductions.multivariate_instance(inst)
    assert shift == [0, 0]
    perm_eigs = [x for x, _ in interp.mulmat.blocks]
    ones = interp.evals[0]
    ys = interp.evals[1]
    assert ones == [1, 1, 1]
    expected = {1: 2, 3: 4, 5: 6}
    assert ys == [expected[x] for x in perm_eigs]


def test_multivariate_gamma_zero_row_is_indicator():
    inst = reductions.MultivariateInstance(
        F7,
        1,
        ((0,),),
        ((2, (3,)),),
        (frozenset({(0, (0,)), (1, (0,)), (0, (1,))}),),
        (1,),
    )
    interp, _ = reductions.multivariate_instance(inst)
    assert interp.mulmat.blocks == ((2, 2), (2, 1))
    assert interp.evals[0] == [1, 0, 0]


def test_multivariate_single_point_mixed_support():
    x, y = 2, 3
    inst = reductions.MultivariateInstance(
        F7,
        1,
        ((0,), (1,)),
        ((x, (y,)),),
        (frozenset({(0, (0,)), (1, (0,)), (0, (1,))}),),
        (1,),
    )
    interp, shift = reductions.multivariate_instance(inst)
    assert interp.mulmat.blocks == ((x, 2), (x, 1))
    assert shift == [0, 1]
    # direct expansion check of every entry
    for g in (0, 1):
        q_row = [[], []]
        q_row[g] = [1]
        row = interp.evals[g]
        # layout as built: block (x,2) is columns 0..1 (j=0, i=0..1),
        # block (x,1) is column 2 (j=1, i=0)
        cells = [(0, 0, 0), (1, 1, 0), (2, 0, 1)]
        for col, i, j in cells:
            assert row[col] == bivariate_shift_coefficient(F7, q_row, x, y, i, j)


def test_multivariate_matches_brute_force_expansion():
    rng = random.Random(4)
    for _ in range(10):
        npts = rng.randrange(1, 4)
        pts = []
        seen = set()
        while len(pts) < npts:
            cand = (rng.randrange(97), (rng.randrange(97),))
            if cand not in seen:
                seen.add(cand)
                pts.append(cand)
        supports = []
        for _ in pts:
            b = rng.randrange(1, 4)
            supports.append(frozenset((i, (j,)) for i in range(b) for j in range(b - i)))
        mm = rng.randrange(1, 4)
        inst = reductions.MultivariateInstance(
            F97, 1, tuple((t,) for t in range(mm)), tuple(pts), tuple(supports), (2,)
        )
        interp, shift = reductions.multivariate_instance(inst)
        sigma = interp.mulmat.order
        assert sigma == sum(len(mu) for mu in supports)
        assert shift == [2 * t for t in range(mm)]
        # every evaluation entry, in the builder's layout: per point, per
        # auxiliary exponent j ascending, per X-exponent i
        for g in range(mm):
            q_row = [[] for _ in range(mm)]
            q_row[g] = [1]
            expected = [
                bivariate_shift_coefficient(F97, q_row, x, y, i, j)
                for (x, (y,)), mu in zip(pts, supports)
                for j in sorted({j for _, (j,) in mu})
                for i in range(max(i for i, (jj,) in mu if jj == j) + 1)
            ]
            assert interp.evals[g] == expected


def test_multivariate_validation():
    with pytest.raises(ValueError):
        reductions.MultivariateInstance(
            F7, 1, ((1,),), ((0, (0,)),), (frozenset({(0, (0,))}),), (0,)
        )  # gamma not division-closed
    with pytest.raises(ValueError):
        reductions.MultivariateInstance(
            F7, 1, ((0,),), ((0, (0,)), (0, (0,))),
            (frozenset({(0, (0,))}),) * 2, (0,)
        )  # duplicate points
    with pytest.raises(ValueError):
        reductions.MultivariateInstance(
            F7, 1, ((0,),), ((0, (0,)),), (frozenset({(1, (0,))}),), (0,)
        )  # support not division-closed


def test_rs_interpolation_simple_vanishing():
    # multiplicity 1, list bound 2: Q = p1 + p2*Y vanishes at every point
    rng = random.Random(5)
    pts = []
    xs = rng.sample(range(97), 6)
    for x in xs:
        pts.append((x, rng.randrange(97)))
    res = reductions.rs_interpolation(F97, pts, [1] * 6, 2, 2)
    q = res.q_row
    assert any(q)
    for x, y in pts:
        val = (F97.poly_eval(q[0], x) + F97.poly_eval(q[1], x) * y) % 97
        assert val == 0


def test_rs_interpolation_single_point_minimal_annihilator():
    res = reductions.rs_interpolation(F97, [(5, 9)], [1], 0, 1)
    q = res.q_row
    # the best weight-0 row of the basis for one evaluation is X - 5 (monic)
    assert q == [[(-5) % 97, 1]]


def test_guruswami_sudan_list_size_rule():
    # 16 points at multiplicity 2 cost 48; weight 3 forces list bound 6
    assert reductions.guruswami_sudan_list_size(48, 3) == 6


def test_soft_decoding_shift_mass_stays_linear():
    # repeated abscissas with per-point multiplicities: the shift mass of
    # the rule-chosen list bound stays within a small multiple of the cost
    # (measured with C = 4, not assumed)
    rng = random.Random(7)
    ratios = []
    for _ in range(10):
        w = rng.randrange(1, 6)
        npts = rng.randrange(4, 12)
        pts = []
        seen = set()
        while len(pts) < npts:
            cand = (rng.randrange(8), rng.randrange(97))
            if cand not in seen:
                seen.add(cand)
                pts.append(cand)
        mults = [rng.randrange(1, 4) for _ in range(npts)]
        sigma = sum(b * (b + 1) // 2 for b in mults)
        m = reductions.guruswami_sudan_list_size(sigma, w)
        shift = [w * t for t in range(m)]
        ratios.append(sum(shift) / sigma)
        assert sum(shift) <= 4 * sigma
    assert max(ratios) <= 4


def test_rs_instance_builds_with_repeated_abscissas():
    pts = [(3, 5), (3, 9), (10, 2)]
    res = reductions.rs_interpolation(F97, pts, [2, 1, 1], 1, 3)
    q = res.q_row
    for x, y in pts:
        val = 0
        for g, poly in enumerate(q):
            val = (val + F97.poly_eval(poly, x) * pow(y, g, 97)) % 97
        assert val == 0


def test_rs_interpolation_decodes_with_multiplicity_two():
    rng = random.Random(6)
    n, w = 16, 3
    xs = rng.sample(range(97), n)
    msg = [rng.randrange(97) for _ in range(w + 1)]
    ys = [F97.poly_eval(msg, x) for x in xs]
    corrupted = rng.sample(range(n), 2)
    for i in corrupted:
        ys[i] = (ys[i] + rng.randrange(1, 97)) % 97
    sigma = n * 3  # sum of C(b+1, 2) with b = 2
    m = reductions.guruswami_sudan_list_size(sigma, w)
    res = reductions.rs_interpolation(F97, list(zip(xs, ys)), [2] * n, w, m)
    q = res.q_row
    # vanishing with multiplicity: all support coefficients are zero
    for x, y in zip(xs, ys):
        for i in range(2):
            for j in range(2 - i):
                assert bivariate_shift_coefficient(F97, q, x, y, i, j) == 0
    # divisibility: Q(X, msg(X)) == 0
    acc = []
    ypow = [1]
    for poly in q:
        acc = F97.poly_add(acc, F97.poly_mul(poly, ypow))
        ypow = F97.poly_mul(ypow, msg)
    assert acc == []


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rs_interpolation_differential_fuzz_against_oracle(data):
    # the builder's shift (0, w, 2w, ...) is non-uniform for w >= 1, so the
    # divide-and-conquer nodes multiply bases of unbalanced row degrees
    fld = PrimeField(data.draw(st.sampled_from([7, 11, 97])))
    coord = st.integers(min_value=0, max_value=fld.p - 1)
    pts = data.draw(
        st.lists(st.tuples(coord, coord), min_size=2, max_size=6, unique=True)
    )
    mults = data.draw(
        st.lists(st.integers(1, 2), min_size=len(pts), max_size=len(pts))
    )
    weight = data.draw(st.integers(1, 4))
    list_bound = data.draw(st.integers(1, 4))
    res = reductions.rs_interpolation(fld, pts, mults, weight, list_bound)
    inst = res.instance
    popov, _ = oracle.oracle_popov(inst.evals, inst.mulmat, res.shift, fld)
    assert oracle.module_equivalent(res.basis, popov, inst.evals, inst.mulmat, res.shift)
    assert sorted(shifted_row_degree(res.basis, res.shift)) == sorted(
        shifted_row_degree(popov, res.shift)
    )
