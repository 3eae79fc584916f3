"""Pinned output bytes of the dnc and lin engines.

Refactors of the recursion, the residuals, the Jordan layout and the
coefficient layout must leave the bases byte for byte as they were.  Each
case of ``CASES`` is a `mib bench` instance (``cli._bench_instance``, m = 4,
seed 0) solved by ``interpolation_basis``; ``SOLVES`` pins paths that those
do not reach.  A digest is the sha256 of ``repr(basis.rows)``, as perfbench
takes it.  A change that alters a basis on purpose must say so and pin the
new digest.
"""

import hashlib
import random

import pytest

from mibasis import approx, cli, reductions
from mibasis.approx import ApproximantInstance
from mibasis.dnc import interpolation_basis
from mibasis.field import PrimeField
from mibasis.linearization import lin_interp_basis
from mibasis.polymat import PolyMatrix

CASES = [
    (65537, "hermite-pade", 512, "0bd6e01805060676de6d0e2900191b72a98853f1819618504ef2facd3ef36c73"),
    (65537, "multipoint", 512, "e5779a4b508297f160edaa27fbcde322ed3efdbdc8842cddb4a9cc799247ea5a"),
    (65537, "rs-list", 512, "dfe5863598e49015cfabfb8126812ce4da69e00232bab9263555dd58564535d3"),
    # object words; sigma = 297 past the leaf, the first cut, at column 148,
    # inside a block of size 2
    (2**61 - 1, "rs-list", 297, "f5348bf35a55267a7906ea7eb9555b3ec6e3f6e20ce95f3a864438754040d110"),
    # the perfbench sizes: hermite-pade two leaves, multipoint one leaf,
    # rs-list (m = 5) one cut
    (65537, "hermite-pade", 256, "ba2722fd8758006d7a68382d79ff30fc893c92e9f2af2f791d70ef5ad5ee10a0"),
    (65537, "multipoint", 128, "1898450e3ec73601b85e8f30a9d20cd6ca99cdb2fb011367c2a9412fbd202784"),
    (65537, "rs-list", 156, "35e6f794fa8d14b293a21643e8342083c60a9c940fe346dbf6a5d6e22a709497"),
]


def digest(basis):
    return hashlib.sha256(repr(basis.rows).encode()).hexdigest()


@pytest.mark.parametrize("p, shape, size, expected", CASES)
def test_basis_bytes_are_pinned(p, shape, size, expected):
    field = PrimeField(p)
    evals, mulmat, shift = cli._bench_instance(field, 4, size, random.Random(0), shape)
    assert digest(interpolation_basis(evals, mulmat, shift, field)) == expected


def random_polys(field, rng, rows, lengths):
    return PolyMatrix.from_entries(
        field, [[[rng.randrange(field.p) for _ in range(n)] for n in lengths] for _ in range(rows)]
    )


def mpade_two_points(field, rng):
    # two points of order 256 at m = 4: tail blocks of nonzero eigenvalue,
    # Taylor-shifted into and out of the residual's product
    fmat = random_polys(field, rng, 4, [256, 256])
    inst = reductions.mpade_instance(fmat, rng.sample(range(1, field.p), 2), [256, 256])
    return interpolation_basis(inst.evals, inst.mulmat, [0] * 4, field)


def pm_basis_unequal_orders(field, rng):
    fmat = random_polys(field, rng, 4, [300, 180])
    return approx.pm_basis(ApproximantInstance(fmat, (300, 180), (0, 2, 1, 5)))


def lin_on(shape, size, shift=None):
    """`mib interp --algo lin` on a bench instance, at its own shift unless
    one is given."""

    def solve(field, rng):
        evals, mulmat, own = cli._bench_instance(field, 4, size, rng, shape)
        delta = cli._krylov_delta(mulmat, len(evals[0]))
        return lin_interp_basis(evals, mulmat, own if shift is None else shift, delta, field)[0]

    return solve


SOLVES = {
    "mpade-tail": (mpade_two_points, "6db5b6cebbff3bc7cdba4681dc2f6532d9d70244bb477c941eb6b9296ce8195b"),
    "pm-basis-unequal": (pm_basis_unequal_orders, "0ee8431e34a7b6e48d35d363ef93b0066b6eeffb3badb0a1f8fb016dd389051d"),
    "lin-rs-list": (lin_on("rs-list", 156), "0100a1ec9246f0991fdb57fa1fcf72192d4fe445507a27cb44fbcb94bcfb9f43"),
    "lin-dense": (lin_on("dense", 64), "c6571ea8d73b28bd3e4bbb6479a5cf76bdd1a03ad40f7d73b3bef2dd04434e26"),
    # the dense-lin workload's shape: sigma = 256, m = 4, uniform shift
    "lin-dense-256": (lin_on("dense", 256), "7d64b235d914abbd4a8b416cba99e4358a977fed257848ca31c8e4de57e05b27"),
    # columns that enter the Krylov profile 40 degrees apart
    "lin-dense-spread": (
        lin_on("dense", 128, [0, 40, 80, 120]),
        "9fbc3bf3d12a6838d054d1ef34f56b0d51a7ccaf97a0db803950ec58a419ccee",
    ),
    # Jordan M, m = 6, shift (0, 15, ..., 75)
    "lin-rs-list-255": (lin_on("rs-list", 255), "702d13ca09f41f047dfaacd403f1ce361ec8c634317e9a1f3a7c98c101f220dd"),
}


@pytest.mark.parametrize("name", SOLVES)
def test_other_paths_are_pinned(name):
    solve, expected = SOLVES[name]
    assert digest(solve(PrimeField(65537), random.Random(0))) == expected
