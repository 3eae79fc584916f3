import itertools
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mibasis.field import MINUS_INF, PrimeField
from mibasis import cli, dnc, jordan, modmat, oracle, polymat, residual
from mibasis.dnc import interpolation_basis, interpolation_basis_rec, right_residual
from mibasis.linearization import lin_interp_basis
from mibasis.polymat import PolyMatrix

F97 = PrimeField(97)
F7 = PrimeField(7)
SRC = pathlib.Path(__file__).parents[1] / "src"

EVALS = [
    [27, 49, 29],
    [50, 58, 0],
    [77, 10, 29],
]


def nilpotent3():
    return jordan.JordanRep(F97, ((0, 3),))


def rand_jordan(rng, field, sigma, eig_pool=5):
    pairs = []
    left = sigma
    while left:
        s = rng.randrange(1, left + 1)
        pairs.append((rng.randrange(min(field.p, eig_pool)), s))
        left -= s
    return jordan.JordanRep(field, tuple(pairs))


def certify_output(basis, e, j, s, field):
    """Interpolant rows + reducedness + determinant degree pins the module."""
    res = oracle.naive_residual(j, basis, e)
    assert all(not any(row) for row in res)
    degs = polymat.shifted_row_degree(basis, s)
    assert all(d != MINUS_INF for d in degs)
    assert polymat.is_reduced(basis, s)
    popov, mindeg = oracle.oracle_popov(e, j, s, field)
    assert polymat.degree_sum(degs) - sum(s) == sum(mindeg)
    # degree bounds
    smin = min(s)
    assert polymat.degree_sum(degs) <= j.order + sum(x - smin for x in s) + sum(s)
    return popov


def reference_leaf(e, j, shift, field):
    """The leaf kernel's step on lists, with jordan.act and no numpy.

    Per column in block order: pivot on the row of least (shifted degree,
    index) with a nonzero residual there, clear the column from the other
    rows, then multiply the pivot row by X - x: its residual becomes
    R J - x R, its entries X P_c - x P_c.
    """
    p = field.p
    m = len(e)
    basis = [[[1] if c == i else [] for c in range(m)] for i in range(m)]
    res = [[a % p for a in row] for row in e]
    u = list(shift)
    col = 0
    for x, size in j.blocks:
        for _ in range(size):
            live = [i for i in range(m) if res[i][col]]
            if live:
                piv = min(live, key=lambda i: (u[i], i))
                inv = pow(res[piv][col], -1, p)
                for i in live:
                    if i != piv:
                        f = res[i][col] * inv % p
                        res[i] = [(a - f * b) % p for a, b in zip(res[i], res[piv])]
                        basis[i] = [
                            field.poly_sub(a, field.poly_scale(b, f))
                            for a, b in zip(basis[i], basis[piv])
                        ]
                acted = jordan.act([res[piv]], j)[0]
                res[piv] = [(a - x * b) % p for a, b in zip(acted, res[piv])]
                basis[piv] = [
                    field.poly_sub(field.poly_shift_up(a, 1), field.poly_scale(a, x))
                    for a in basis[piv]
                ]
                u[piv] += 1
            col += 1
    assert not any(any(row) for row in res)
    return PolyMatrix(field, basis)


LEAF_PRIMES = (97, 65537, (1 << 61) - 1, (1 << 62) - 57)


@pytest.mark.parametrize("p", LEAF_PRIMES)
def test_leaf_matches_list_reference(p):
    # blocks of several sizes, eigenvalues repeating and zero among them,
    # shifts up to [0, 10^6]; a leaf is one kernel call, so the dnc output
    # is the reference's bytes
    field = PrimeField(p)
    rng = random.Random(p)
    for m, shift in ((1, [0]), (2, [0, 10**6]), (3, [4, 0, 1]), (4, [0, 0, 0, 0])):
        x = rng.randrange(1, p)
        blocks = [(x, 3), (0, 2), (rng.randrange(p), 1), (x, 5), (p - 1, 4), (0, 1)]
        j = jordan.JordanRep(field, tuple(rng.sample(blocks, len(blocks))))
        e = [[rng.randrange(p) for _ in range(j.order)] for _ in range(m)]
        assert j.order <= leaf_size(m)
        basis = interpolation_basis(e, j, shift, field)
        assert basis == reference_leaf(e, j, shift, field)
        assert dnc.mbasis_jordan(e, j, shift, field) == basis
        popov = certify_output(basis, e, j, shift, field)
        assert oracle.module_equivalent(basis, popov, e, j, shift)


def leaf_case(e, j, shift, field):
    """The kernel, and interpolation_basis on a leaf, give the reference's bytes."""
    basis = reference_leaf(e, j, shift, field)
    assert j.order <= leaf_size(len(e))
    assert dnc.mbasis_jordan(e, j, shift, field) == basis
    assert interpolation_basis(e, j, shift, field) == basis
    return polymat.degree_sum(polymat.shifted_row_degree(basis, shift)) - sum(shift)


@pytest.mark.parametrize("p", LEAF_PRIMES)
def test_leaf_edge_cases(p):
    # the ends of the kernel's shift table: block starts and the first m
    # coefficient columns read its zero sentinel, and a column without a
    # live row leaves every row as it is
    field = PrimeField(p)
    rng = random.Random(p + 1)
    x, y = rng.randrange(1, p), rng.randrange(p)

    def rand_e(m, order):
        return [[rng.randrange(p) for _ in range(order)] for _ in range(m)]

    # E vanishes on the first two columns of a block, so the residual does
    # at every step: no live row at its block start and at the column after;
    # the whole last block is zero as well
    j = jordan.JordanRep(field, ((x, 3), (y, 4), (0, 2), (x, 2)))
    e = rand_e(3, j.order)
    for row in e:
        row[3] = row[4] = row[9] = row[10] = 0
        row[1] = 0  # a zero column of E in a block's middle, not dead
    assert leaf_case(e, j, [0, 2, 1], field) <= j.order - 4

    # adjacent blocks of one eigenvalue: the block start must cut the shift
    j = jordan.JordanRep(field, ((x, 3), (x, 2), (x, 1), (y, 2), (y, 3)))
    leaf_case(rand_e(2, j.order), j, [0, 0], field)
    leaf_case(rand_e(3, j.order), j, [1, 0, 5], field)

    # m = 8 at equal shifts: the least index wins every tie, with rows
    # repeated and a zero row among them
    j = jordan.JordanRep(field, ((x, 4), (0, 3), (y, 5), (x, 1)))
    e = rand_e(8, j.order)
    e[5] = list(e[2])
    e[6] = [0] * j.order
    leaf_case(e, j, [3] * 8, field)

    # m = 1 reaching degree sigma: distinct eigenvalues and E nonzero at each
    # block start make E cyclic, so every column is a pivot and the work row
    # is used to its end
    eigs = rng.sample(range(min(p, 10**6)), 5)
    j = jordan.JordanRep(field, tuple(zip(eigs, (4, 1, 6, 2, 3))))
    e = rand_e(1, j.order)
    for off in j.offsets:
        e[0][off] = rng.randrange(1, p)
    assert leaf_case(e, j, [0], field) == j.order

    # unreduced and negative entries give the bytes of their residues
    j = jordan.JordanRep(field, ((y, 3), (0, 2), (x, 4)))
    e = rand_e(3, j.order)
    raw = [[a + rng.randrange(-3, 4) * p for a in row] for row in e]
    raw[0][0], raw[1][1] = -1, -p
    e[0][0], e[1][1] = p - 1, 0
    basis = reference_leaf(e, j, [0, 1, 0], field)
    assert interpolation_basis(raw, j, [0, 1, 0], field) == basis
    assert reference_leaf(raw, j, [0, 1, 0], field) == basis


# The leaf keeps int64 words while (p-1)^2 (sigma + 2) < 2^63 and object
# words beyond; these primes are the last below and the first above that
# bound at sigma = 64.
BELOW_WORD_BOUND, ABOVE_WORD_BOUND = 373828909, 373828957


@pytest.mark.parametrize(
    "p, words", [(BELOW_WORD_BOUND, np.int64), (ABOVE_WORD_BOUND, object)]
)
def test_leaf_word_bound(p, words, monkeypatch):
    # One block of eigenvalue 5: row 0 is the pivot at every column, with
    # residual p - 1 from the column on, and E1[t] = t + 1 makes every
    # multiplier of row 1 p - 1, so that row 1, never reduced, reaches
    # 63 (p-1)^2 in magnitude at column 63, next to the 64 (p-1)^2 + p
    # that 64 columns allow at most.
    field = PrimeField(p)
    assert ((p - 1) ** 2 * 66 < 1 << 63) == (words is np.int64)
    j = jordan.JordanRep(field, ((5, 64),))
    e = [[p - 1] * 64, [t + 1 for t in range(64)]]
    seen = []
    words_for = modmat.words

    def spy(q, terms):
        seen.append(words_for(q, terms))
        return seen[-1]

    monkeypatch.setattr(modmat, "words", spy)
    basis = dnc.mbasis_jordan(e, j, [0, 10**6], field)
    assert seen == [words]
    assert basis == reference_leaf(e, j, [0, 10**6], field)
    assert list(polymat.shifted_row_degree(basis, [0, 0])) == [64, 63]


def test_zero_evals_gives_identity():
    j = jordan.JordanRep(F97, ((3, 2), (1, 2)))
    basis = interpolation_basis([[0, 0, 0, 0]] * 2, j, [0, 5], F97)
    assert basis == PolyMatrix.identity(F97, 2)


def test_recursive_path_small_uniform():
    rng = random.Random(1)
    for _ in range(20):
        m = rng.randrange(1, 4)
        sigma = rng.randrange(m + 1, 16)
        j = rand_jordan(rng, F7, sigma)
        e = [[rng.randrange(7) for _ in range(sigma)] for _ in range(m)]
        basis = interpolation_basis_rec(e, j, [0] * m, F7)
        certify_output(basis, e, j, [0] * m, F7)
        # uniform-shift degree sum obeys the determinant bound
        degs = polymat.shifted_row_degree(basis, [0] * m)
        assert polymat.degree_sum(degs) <= sigma


def test_shifted_instances_match_oracle_module():
    rng = random.Random(2)
    for _ in range(15):
        m = rng.randrange(1, 4)
        sigma = rng.randrange(1, 20)
        j = rand_jordan(rng, F97, sigma)
        e = [[rng.randrange(97) for _ in range(sigma)] for _ in range(m)]
        s = [rng.randrange(6) for _ in range(m)]
        basis = interpolation_basis(e, j, s, F97)
        certify_output(basis, e, j, s, F97)
        popov, _ = oracle.oracle_popov(e, j, s, F97)
        assert oracle.module_equivalent(basis, popov, e, j, s)
        # both reduced for s: identical sorted shifted row degrees
        assert sorted(polymat.shifted_row_degree(basis, s)) == sorted(
            polymat.shifted_row_degree(popov, s)
        )


def test_m3_sigma16_specific_shift():
    rng = random.Random(3)
    j = rand_jordan(rng, F97, 16)
    e = [[rng.randrange(97) for _ in range(16)] for _ in range(3)]
    s = [0, 5, 1]
    basis = interpolation_basis(e, j, s, F97)
    certify_output(basis, e, j, s, F97)


def test_m2_sigma32_small_field():
    rng = random.Random(4)
    j = rand_jordan(rng, F7, 32, eig_pool=7)
    e = [[rng.randrange(7) for _ in range(32)] for _ in range(2)]
    basis = interpolation_basis_rec(e, j, [0, 0], F7)
    certify_output(basis, e, j, [0, 0], F7)


@pytest.mark.parametrize("shift", [[0, 10**6], [10**6, 0, 0]])
@pytest.mark.parametrize("points", ["nilpotent", "distinct"])
def test_extreme_shifts(points, shift):
    rng = random.Random(6)
    m, sigma = len(shift), 32
    blocks = [(0, sigma)] if points == "nilpotent" else [(x, 1) for x in range(sigma)]
    j = jordan.JordanRep(F97, tuple(blocks))
    e = [[rng.randrange(97) for _ in range(sigma)] for _ in range(m)]
    basis = interpolation_basis(e, j, shift, F97)
    certify_output(basis, e, j, shift, F97)
    popov, _ = oracle.oracle_popov(e, j, shift, F97)
    assert oracle.module_equivalent(basis, popov, e, j, shift)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_differential_fuzz_against_oracle(data):
    field = PrimeField(data.draw(st.sampled_from([7, 97, 65537, (1 << 61) - 1])))
    m = data.draw(st.integers(min_value=1, max_value=4))
    eig = st.integers(min_value=0, max_value=field.p - 1)
    shape = data.draw(st.sampled_from(["one block", "distinct", "repeated"]))
    if shape == "one block":
        blocks = [(data.draw(eig), data.draw(st.integers(min_value=1, max_value=24)))]
    elif shape == "distinct":
        points = data.draw(st.lists(eig, min_size=1, max_size=min(24, field.p), unique=True))
        blocks = [(x, 1) for x in points]
    else:
        x = data.draw(eig)
        more = st.tuples(st.sampled_from([x, (x + 1) % field.p]), st.integers(1, 4))
        blocks = [(x, 1), (x, 2)] + data.draw(st.lists(more, max_size=5))
    j = jordan.JordanRep(field, tuple(data.draw(st.permutations(blocks))))
    sigma = j.order
    s = data.draw(
        st.lists(st.sampled_from([0, 1, 2, 5, 10**6]), min_size=m, max_size=m)
    )
    e = [
        data.draw(st.lists(eig, min_size=sigma, max_size=sigma)) for _ in range(m)
    ]
    basis = interpolation_basis(e, j, s, field)
    popov, _ = oracle.oracle_popov(e, j, s, field)
    assert oracle.module_equivalent(basis, popov, e, j, s)
    assert sorted(polymat.shifted_row_degree(basis, s)) == sorted(
        polymat.shifted_row_degree(popov, s)
    )


def test_blocks_of_one_eigenvalue_apart_and_growing():
    # eigenvalue 3 has blocks of sizes 1, 2, 4 with blocks of 5 between them;
    # the basis must span the same module as the oracle's on this layout
    rng = random.Random(9)
    j = jordan.JordanRep(F97, ((3, 1), (5, 2), (3, 2), (5, 1), (3, 4), (0, 3)))
    for m, s in ((2, [0, 0]), (3, [0, 4, 1])):
        e = [[rng.randrange(97) for _ in range(j.order)] for _ in range(m)]
        basis = interpolation_basis(e, j, s, F97)
        certify_output(basis, e, j, s, F97)
        popov, _ = oracle.oracle_popov(e, j, s, F97)
        assert oracle.module_equivalent(basis, popov, e, j, s)


def leaf_size(m):
    return max(dnc._LEAF_PER_ROW * m, dnc._LEAF)


def past_leaf_blocks(shape, sigma, p, rng):
    """Jordan blocks of order sigma: one nilpotent block, distinct points
    (blocks of the same small size when F_p has fewer than sigma points), or
    one eigenvalue in blocks of 7, 5 and 11 with blocks of another between."""
    if shape == "nilpotent":
        return [(0, sigma)]
    if shape == "distinct":
        size = -(-sigma // p)
        count = -(-sigma // size)
        points = rng.sample(range(p), count)
        return [(x, min(size, sigma - i * size)) for i, x in enumerate(points)]
    x = rng.randrange(p)
    blocks, left = [], sigma
    for size, y in itertools.cycle([(7, x), (5, x), (3, (x + 1) % p), (11, x)]):
        if not left:
            return blocks
        blocks.append((y, min(size, left)))
        left -= blocks[-1][1]


# p = 2^61 - 1 runs object words, where the oracle is slow: those cases stay
# just past the leaf, and m = 16 takes one shape there.
PAST_LEAF_CASES = [
    (p, m, shape, shift)
    for p in (97, (1 << 61) - 1)
    for m in (1, 4, 16)
    for shape in ("nilpotent", "distinct", "repeated")
    for shift in ("uniform", "extreme")
    if p == 97 or m < 16 or (shape, shift) == ("repeated", "extreme")
]


@pytest.mark.parametrize("p, m, shape, shift", PAST_LEAF_CASES)
def test_recursion_past_the_leaf_matches_oracle(p, m, shape, shift):
    # sigma from leaf + 1 to 3 * leaf, so that at least one node is cut and
    # its halves multiplied; the repeated eigenvalue's blocks straddle cuts
    field = PrimeField(p)
    rng = random.Random(f"{p} {m} {shape} {shift}")
    leaf = leaf_size(m)
    span = 2 * leaf if p == 97 else leaf // 4
    sigma = leaf + 1 + rng.randrange(span)
    j = jordan.JordanRep(field, tuple(past_leaf_blocks(shape, sigma, p, rng)))
    while shape == "repeated" and sigma // 2 in j.offsets:
        sigma += 1  # let a block straddle the first cut
        j = jordan.JordanRep(field, tuple(past_leaf_blocks(shape, sigma, p, rng)))
    assert j.order == sigma > leaf
    s = [0] * m if shift == "uniform" else [(0, 10**6, 5)[i % 3] for i in range(m)]
    e = [[rng.randrange(p) for _ in range(sigma)] for _ in range(m)]
    basis = interpolation_basis(e, j, s, field)
    popov = certify_output(basis, e, j, s, field)
    assert oracle.module_equivalent(basis, popov, e, j, s)
    assert sorted(polymat.shifted_row_degree(basis, s)) == sorted(
        polymat.shifted_row_degree(popov, s)
    )


def test_dimension_validation():
    with pytest.raises(ValueError):
        interpolation_basis([[1, 2]], nilpotent3(), [0], F97)
    with pytest.raises(ValueError):
        interpolation_basis(EVALS, nilpotent3(), [0, 0], F97)


@pytest.mark.parametrize("sigma", [8, 300])
@pytest.mark.parametrize("shift", [[0, 0.5], [0, "1"], [1.0, 0]])
def test_non_integer_shift_rejected_at_every_order(sigma, shift):
    # a leaf (sigma = 8) and a recursion past the leaf (sigma = 300) alike
    rng = random.Random(sigma)
    j = jordan.JordanRep(F97, ((0, sigma),))
    e = [[rng.randrange(97) for _ in range(sigma)] for _ in range(2)]
    with pytest.raises(ValueError, match="integers"):
        interpolation_basis(e, j, shift, F97)


# hermite-pade's one nilpotent block (m = 2) is a tail block of every
# residual; multipoint's blocks are all small, and it needs sigma < p
# distinct points.  5p passes 2^63 at p = 2^61 - 1.
UNREDUCED_CASES = [
    (p, shape, sigma)
    for p in (97, 65537, 2**31 - 1, 2**61 - 1)
    for shape, sigma in (("hermite-pade", 300), ("multipoint", 128))
    if shape == "hermite-pade" or sigma < p
]


@pytest.mark.parametrize("p, shape, sigma", UNREDUCED_CASES)
def test_unreduced_and_ndarray_evaluations_give_the_reduced_bytes(p, shape, sigma):
    field = PrimeField(p)
    e, j, shift = cli._bench_instance(field, 2, sigma, random.Random(sigma), shape)
    expected = repr(interpolation_basis(e, j, shift, field).rows)
    for raw in ([[a + 5 * p for a in row] for row in e], [[a - p for a in row] for row in e], np.array(e)):
        assert repr(interpolation_basis(raw, j, shift, field).rows) == expected


def test_numpy_integer_shift_entries_are_integers():
    j, shift = nilpotent3(), [np.int64(1), 0, np.int32(2)]
    assert polymat.check_shift(shift, 3) == [1, 0, 2]
    assert all(type(s) is int for s in polymat.check_shift(shift, 3))
    assert interpolation_basis(EVALS, j, shift, F97) == interpolation_basis(EVALS, j, [1, 0, 2], F97)
    assert lin_interp_basis(EVALS, j, shift, 4, F97) == lin_interp_basis(EVALS, j, [1, 0, 2], 4, F97)
    assert oracle.oracle_popov(EVALS, j, shift, F97) == oracle.oracle_popov(EVALS, j, [1, 0, 2], F97)
    for bad in ([0, 0.5, 0], [0, "1", 0], [0, -1, 0]):
        with pytest.raises(ValueError, match="integers"):
            polymat.check_shift(bad, 3)


def test_field_mismatch_rejected():
    # rows that interpolate over F_7 would not interpolate under nilpotent3
    with pytest.raises(ValueError, match="field"):
        interpolation_basis(EVALS, nilpotent3(), [0, 0, 0], F7)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_right_residual_equals_right_half_of_full_residual(data):
    # One eigenvalue with more than m equal blocks, rare ones with one block
    # each and a block of at least 2*sigma/m columns (a tail block, longer
    # than sigma/m); most cuts fall inside that block.
    field = PrimeField(data.draw(st.sampled_from([97, 65537, (1 << 61) - 1])))
    m = data.draw(st.integers(min_value=3, max_value=4))
    eig = st.integers(min_value=0, max_value=field.p - 1)
    x0 = data.draw(eig)
    size = data.draw(st.integers(min_value=1, max_value=2))
    blocks = [(x0, size)] * data.draw(st.integers(min_value=m + 1, max_value=m + 3))
    rare = data.draw(st.lists(eig.filter(lambda x: x != x0), min_size=1, max_size=4, unique=True))
    blocks += [(x, data.draw(st.integers(min_value=1, max_value=4))) for x in rare]
    rest = sum(s for _, s in blocks)
    blocks.append((data.draw(eig), 2 * rest + data.draw(st.integers(min_value=0, max_value=6))))
    j = jordan.JordanRep(field, tuple(data.draw(st.permutations(blocks))))
    sigma = j.order
    k = data.draw(st.integers(min_value=1, max_value=sigma - 1))
    e = [data.draw(st.lists(eig, min_size=sigma, max_size=sigma)) for _ in range(m)]
    rows = data.draw(st.integers(min_value=1, max_value=3))
    pmat = PolyMatrix.from_entries(
        field, [[data.draw(st.lists(eig, max_size=5)) for _ in range(m)] for _ in range(rows)]
    )
    full = residual.compute_residuals(j, pmat, np.array(e))
    lead, right = right_residual(j, k, pmat, np.array(e))
    start = max(off for off in j.offsets if off <= k)
    assert np.array_equal(right, full[:, k:])
    assert np.array_equal(lead, full[:, start:k])


@pytest.mark.parametrize("shape, size", [("multipoint", 1024), ("rs-list", 512), ("hermite-pade", 512)])
def test_solve_checks_no_derived_rep(monkeypatch, shape, size):
    # the split halves, the right-residual suffixes and the residual's chunk
    # reps are cut from the checked input rep: none goes through the checks
    # of JordanRep again, and each equals the checked rep of its blocks
    field = PrimeField(65537)
    e, j, s = cli._bench_instance(field, 4, size, random.Random(0), shape)
    checked, derived = [], []
    post_init = jordan.JordanRep.__post_init__
    cut = jordan.JordanRep._derived.__func__

    def spy_post_init(rep):
        checked.append(rep.blocks)
        post_init(rep)

    def spy_derived(cls, fld, blocks):
        derived.append(cut(cls, fld, blocks))
        return derived[-1]

    monkeypatch.setattr(jordan.JordanRep, "__post_init__", spy_post_init)
    monkeypatch.setattr(jordan.JordanRep, "_derived", classmethod(spy_derived))
    interpolation_basis(e, j, s, field)
    assert checked == []
    monkeypatch.undo()
    assert len(derived) > 2
    for rep in derived:
        twin = jordan.JordanRep(field, rep.blocks)
        assert rep == twin and hash(rep) == hash(twin) and repr(rep) == repr(twin)
        assert rep.offsets == twin.offsets and rep.order == twin.order


# Corrupts one coefficient of every output of the dnc function named in
# argv[1]: the product of two halves, or the leaf kernel.  Either way the
# basis no longer interpolates; distinct points mean no block straddles a
# cut, so only the final check in interpolation_basis can see it.  160
# points are more than a leaf of the recursion takes, so the instance is cut
# into two leaves whose bases are multiplied.  Then the CLI runs on
# argv[2:].
_CORRUPT_UNDER_O = """
import sys
from mibasis import cli, dnc, jordan
from mibasis.field import PrimeField

if not sys.flags.optimize:
    sys.exit("not running under -O")
target = sys.argv[1]
original = getattr(dnc, target)

def corrupted(*args):
    out = original(*args)
    row = out.rows[0]
    c = next(i for i, e in enumerate(row) if len(e) > 1)
    row[c] = [(row[c][0] + 1) % out.field.p] + row[c][1:]
    return out

setattr(dnc, target, corrupted)
field = PrimeField(257)
j = jordan.JordanRep(field, tuple((x, 1) for x in range(1, 161)))
e = [[(7 * r + 3 * c + 1) % 257 for c in range(160)] for r in range(2)]
try:
    dnc.interpolation_basis(e, j, [0, 0], field)
    print("returned")
except AssertionError:
    print("raised")
sys.stdout.flush()
sys.exit(cli.main(sys.argv[2:]))
"""


def test_invariant_holds_under_optimize(tmp_path):
    inst = tmp_path / "points.txt"
    inst.write_text(
        "field p=257\nmat 2 160\n"
        + "".join(" ".join(str((7 * r + 3 * c + 1) % 257) for c in range(160)) + "\n" for r in range(2))
        + "jordan 160\n" + "".join(f"{x} 1\n" for x in range(1, 161))
        + "shift 2\n0 0\n"
    )
    # order 150 on both columns of a 6 x 2 matrix of degree 50: the order
    # basis of the nullspace cuts 300 columns, and a corrupted leaf reaches
    # the checks of interpolation_basis through pm_basis
    rng = random.Random(7)
    ns = tmp_path / "nullspace.txt"
    ns.write_text(
        "field p=257\npolymat 6 2\n"
        + "".join(
            ";".join(",".join(str(rng.randrange(257)) for _ in range(51)) for _ in range(2)) + "\n"
            for _ in range(6)
        )
        + "shift 6\n" + " 50" * 6 + "\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    interp = ["interp", "--algo", "dnc", "--evals", str(inst)]
    runs = [
        ("unbalanced_mul", interp),
        ("mbasis_jordan", interp),
        ("mbasis_jordan", ["nullspace", str(ns)]),
    ]
    for target, argv in runs:
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _CORRUPT_UNDER_O, target, *argv],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.stdout == "raised\n", argv
        assert proc.returncode == 1, argv
        assert proc.stderr.startswith("internal error: "), argv
        assert "Traceback" not in proc.stderr, argv
