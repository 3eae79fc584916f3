"""Pinned output bytes of the dnc engine.

Refactors of the recursion, the residuals and the Jordan layout must leave
the bases byte for byte as they were.  Each case is a `mib bench` instance
(``cli._bench_instance``, m = 4, seed 0) solved by ``interpolation_basis``;
its digest is the sha256 of ``repr(basis.rows)``, as perfbench takes it.  A
change that alters a basis on purpose must say so and pin the new digest.
"""

import hashlib
import random

import pytest

from mibasis import cli
from mibasis.dnc import interpolation_basis
from mibasis.field import PrimeField

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


@pytest.mark.parametrize("p, shape, size, expected", CASES)
def test_basis_bytes_are_pinned(p, shape, size, expected):
    field = PrimeField(p)
    evals, mulmat, shift = cli._bench_instance(field, 4, size, random.Random(0), shape)
    basis = interpolation_basis(evals, mulmat, shift, field)
    assert hashlib.sha256(repr(basis.rows).encode()).hexdigest() == expected
