"""Seeded instances and solve calls for the four benchmark workloads.

Every workload draws a pool of instances of one fixed shape from a seeded
random generator, so the same seed gives the same inputs.  The shapes are
chosen so that each stresses a different part of the library:

- hermite-pade: one nilpotent block, uniform shift.  Time goes to the change
  of shift chain (change_shift -> nullspace -> pm_basis -> mat_mul); the
  residuals are a plain Taylor slice, so a CRT change should not move it.
- multipoint: many distinct eigenvalues of order 1.  The residual CRT path
  (field.crt, field.multi_mod) dominates.
- rs-list: Reed-Solomon list-decoding interpolation, the paper's
  application.  The only workload with a non-uniform shift (so the final
  change_shift runs), two block sizes per eigenvalue, and the reductions
  builder inside the timed call.
- dense-lin: the linearization engine on a dense multiplication matrix.  It
  bypasses polymat, residual and nullspace; scalar rref and matmul dominate.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Callable

import mibasis as mb

PRIME = 65537
POOL_SIZE = 4


@dataclass(frozen=True)
class Solved:
    """A solve's output basis together with the instance it must interpolate."""

    basis: mb.PolyMatrix
    evals: list[list[int]]
    mulmat: object
    shift: list[int]


@dataclass(frozen=True)
class Workload:
    name: str
    sigma: int
    sizes: dict
    build: Callable[[mb.PrimeField, random.Random], object]
    solve: Callable[[object], Solved]
    # True when the reductions builder runs inside solve, not in build
    builder_in_solve: bool = False


def _random_poly(field: mb.PrimeField, rng: random.Random, length: int) -> list[int]:
    return field.normalize([rng.randrange(field.p) for _ in range(length)])


def _solve_jordan(inst: mb.InterpolationInstance) -> Solved:
    shift = [0] * len(inst.evals)
    basis = mb.interpolation_basis(inst.evals, inst.mulmat, shift, inst.field)
    return Solved(basis, inst.evals, inst.mulmat, shift)


HP_M, HP_SIGMA = 4, 256


def _build_hermite_pade(field, rng):
    fmat = mb.PolyMatrix.from_entries(
        field, [[_random_poly(field, rng, HP_SIGMA)] for _ in range(HP_M)]
    )
    return mb.hermite_pade_instance(fmat, [HP_SIGMA])


MP_M, MP_SIGMA = 4, 128


def _build_multipoint(field, rng):
    points = rng.sample(range(1, field.p), MP_SIGMA)
    fmat = mb.PolyMatrix.from_entries(
        field, [[_random_poly(field, rng, 1) for _ in range(MP_SIGMA)] for _ in range(MP_M)]
    )
    return mb.mpade_instance(fmat, points, [1] * MP_SIGMA)


RS_POINTS, RS_MULT, RS_WEIGHT = 52, 2, 15
RS_SIGMA = RS_POINTS * RS_MULT * (RS_MULT + 1) // 2
RS_LIST = mb.guruswami_sudan_list_size(RS_SIGMA, RS_WEIGHT)


def _build_rs_list(field, rng):
    xs = rng.sample(range(field.p), RS_POINTS)
    return field, [(x, rng.randrange(field.p)) for x in xs]


def _solve_rs_list(case) -> Solved:
    field, points = case
    res = mb.rs_interpolation(field, points, [RS_MULT] * RS_POINTS, RS_WEIGHT, RS_LIST)
    return Solved(res.basis, res.instance.evals, res.instance.mulmat, res.shift)


DL_M, DL_SIGMA = 4, 256
DL_DELTA = 1 << (DL_SIGMA - 1).bit_length()


def _build_dense_lin(field, rng):
    evals = [[rng.randrange(field.p) for _ in range(DL_SIGMA)] for _ in range(DL_M)]
    mulmat = [[rng.randrange(field.p) for _ in range(DL_SIGMA)] for _ in range(DL_SIGMA)]
    return field, evals, mulmat


def _solve_dense_lin(case) -> Solved:
    field, evals, mulmat = case
    shift = [0] * DL_M
    basis, _ = mb.lin_interp_basis(evals, mulmat, shift, DL_DELTA, field)
    return Solved(basis, evals, mulmat, shift)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hermite-pade", HP_SIGMA, {"m": HP_M, "sigma": HP_SIGMA, "blocks": 1},
                 _build_hermite_pade, _solve_jordan),
        Workload("multipoint", MP_SIGMA, {"m": MP_M, "sigma": MP_SIGMA, "points": MP_SIGMA},
                 _build_multipoint, _solve_jordan),
        Workload("rs-list", RS_SIGMA,
                 {"m": RS_LIST, "sigma": RS_SIGMA, "points": RS_POINTS,
                  "multiplicity": RS_MULT, "weight": RS_WEIGHT},
                 _build_rs_list, _solve_rs_list, builder_in_solve=True),
        Workload("dense-lin", DL_SIGMA, {"m": DL_M, "sigma": DL_SIGMA, "delta": DL_DELTA},
                 _build_dense_lin, _solve_dense_lin),
    )
}


def gate(sol: Solved, sigma: int) -> str | None:
    """None when the basis is a correct minimal interpolation basis, else why not.

    Every row must annihilate the instance, the basis must be reduced for the
    normalized shift, and its shifted row degree sum must equal
    sigma + sum(s - min s), which holds for the generic instances drawn here.
    """
    basis = sol.basis
    m = len(sol.evals)
    if basis.nrows != m or basis.ncols != m:
        return f"basis is {basis.nrows}x{basis.ncols}, expected {m}x{m}"
    if any(any(row) for row in mb.naive_residual(sol.mulmat, basis, sol.evals)):
        return "a row is not an interpolant"
    s0 = [s - min(sol.shift) for s in sol.shift]
    degs = mb.shifted_row_degree(basis, s0)
    if any(d == mb.MINUS_INF for d in degs) or not mb.is_reduced(basis, s0):
        return "basis is not reduced for the shift"
    if sum(degs) != sigma + sum(s0):
        return f"shifted degree sum {sum(degs)} != {sigma + sum(s0)}"
    return None


def digest(basis: mb.PolyMatrix) -> str:
    return hashlib.sha256(repr(basis.rows).encode()).hexdigest()


def build_pool(workload: Workload, seed: int) -> tuple[list, list[float]]:
    """POOL_SIZE instances drawn from the seed, and the seconds each build took."""
    field = mb.PrimeField(PRIME)
    rng = random.Random(f"{workload.name}:{seed}")
    pool, seconds = [], []
    for _ in range(POOL_SIZE):
        start = time.perf_counter()
        pool.append(workload.build(field, rng))
        seconds.append(time.perf_counter() - start)
    return pool, seconds
