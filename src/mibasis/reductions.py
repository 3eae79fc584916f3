"""Builders that turn application problems into evaluation/Jordan instances.

Each builder produces the evaluation matrix, the Jordan representation and
(where relevant) the shift so that rows annihilating the instance are
exactly the solutions of the source problem: truncated-product relations,
multi-point congruences, or multivariate vanishing conditions with
prescribed supports.  The blocks follow the source problem: one per input
column, or per point and auxiliary exponent, in the order given, and the
evaluation columns follow the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dnc import interpolation_basis
from .field import PrimeField
from .jordan import JordanRep, check_evaluations
from .polymat import PolyMatrix, shifted_row_degree


@dataclass(frozen=True)
class InterpolationInstance:
    field: PrimeField
    evals: list[list[int]]
    mulmat: JordanRep

    def __post_init__(self):
        if self.mulmat.order < 1:
            raise ValueError("instance order must be at least 1")
        check_evaluations(self.evals, self.mulmat, self.field)


def _pack_columns(fmat: PolyMatrix, orders, shifts_by_block):
    """Coefficient columns per block, one block per input column."""
    e = []
    for row in fmat.rows:
        packed = []
        for poly, o, recenter in zip(row, orders, shifts_by_block):
            coeffs = recenter(poly)
            if len(coeffs) > o:
                raise ValueError("column degree must stay below its order")
            packed.extend(coeffs + [0] * (o - len(coeffs)))
        e.append(packed)
    return e


def hermite_pade_instance(fmat: PolyMatrix, orders) -> InterpolationInstance:
    """One nilpotent block per column; columns hold coefficient vectors."""
    orders = list(orders)
    if len(orders) != fmat.ncols or any(o <= 0 for o in orders):
        raise ValueError("one positive order per column required")
    e = _pack_columns(fmat, orders, [lambda q: q] * len(orders))
    rep = JordanRep(fmat.field, tuple((0, o) for o in orders))
    return InterpolationInstance(fmat.field, e, rep)


def mpade_instance(fmat: PolyMatrix, points, orders) -> InterpolationInstance:
    """Multi-point congruences: block j recenters column j at its point."""
    points = [x % fmat.field.p for x in points]
    orders = list(orders)
    if not (len(points) == len(orders) == fmat.ncols):
        raise ValueError("one point and one positive order per column required")
    if any(o <= 0 for o in orders):
        raise ValueError("orders must be positive")
    fld = fmat.field
    recenters = [
        (lambda q, x=x, o=o: fld.poly_trunc(fld.taylor_shift(q, x), o))
        for x, o in zip(points, orders)
    ]
    e = _pack_columns(fmat, orders, recenters)
    return InterpolationInstance(fld, e, JordanRep(fld, tuple(zip(points, orders))))


def _divisibility_closed(exponents: set[tuple[int, ...]]) -> bool:
    for v in exponents:
        for i, x in enumerate(v):
            if x > 0:
                below = v[:i] + (x - 1,) + v[i + 1 :]
                if below not in exponents:
                    return False
    return True


@dataclass(frozen=True)
class MultivariateInstance:
    """Vanishing conditions with supports at several points.

    gamma lists the allowed exponent tuples of the auxiliary variables;
    points pair an abscissa with a tuple of auxiliary coordinates; each
    support is a set of (i, j) pairs (i the X-exponent, j a tuple) that must
    be absent from the recentered polynomial at that point; weights give the
    weighted-degree shift.
    """

    field: PrimeField
    nvars: int
    gamma: tuple[tuple[int, ...], ...]
    points: tuple[tuple[int, tuple[int, ...]], ...]
    supports: tuple[frozenset, ...]
    weights: tuple[int, ...]

    def __post_init__(self):
        r = self.nvars
        if r < 1:
            raise ValueError("at least one auxiliary variable required")
        if len(self.weights) != r or any(w < 0 for w in self.weights):
            raise ValueError("one nonnegative weight per variable required")
        if not self.gamma:
            raise ValueError("gamma must be nonempty")
        for g in self.gamma:
            if len(g) != r or any(x < 0 for x in g):
                raise ValueError("gamma entries must be nonnegative r-tuples")
        if not _divisibility_closed(set(self.gamma)):
            raise ValueError("gamma must be stable under division")
        if len(self.points) != len(self.supports) or not self.points:
            raise ValueError("one support per point required")
        seen = set()
        for (x, y) in self.points:
            if len(y) != r:
                raise ValueError("each point needs r auxiliary coordinates")
            if (x, y) in seen:
                raise ValueError("points must be pairwise distinct")
            seen.add((x, y))
        for mu in self.supports:
            if not mu:
                raise ValueError("supports must be nonempty")
            flat = set()
            for (i, j) in mu:
                if i < 0 or len(j) != r or any(x < 0 for x in j):
                    raise ValueError("support entries must be nonnegative (1+r)-tuples")
                flat.add((i,) + tuple(j))
            if not _divisibility_closed(flat):
                raise ValueError("supports must be stable under division")


def _support_blocks(mu) -> list[tuple[tuple[int, ...], int]]:
    """Per auxiliary exponent j in the support: the count of X-exponents."""
    heights: dict[tuple[int, ...], int] = {}
    for (i, j) in mu:
        j = tuple(j)
        heights[j] = max(heights.get(j, 0), i + 1)
    ordered = sorted(heights.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    return ordered


def multivariate_instance(inst: MultivariateInstance):
    """(interpolation instance, shift) for constrained multivariate vanishing.

    The evaluation row of an exponent gamma holds, per point k and support
    entry (i, j), the coefficient of X^i Y^j in Y^gamma recentered at the
    point; rows are filled inductively through the multiply-by-one-variable
    recurrence, which needs the supports to be division-stable.
    """
    fld = inst.field
    r = inst.nvars
    layout = []  # (point index, j tuple, height, column offset)
    pairs = []
    offset = 0
    for k, ((x, y), mu) in enumerate(zip(inst.points, inst.supports)):
        for j, h in _support_blocks(mu):
            layout.append((k, j, h, offset))
            pairs.append((x % fld.p, h))
            offset += h
    sigma = offset
    col_of = {}
    for k, j, h, off in layout:
        for i in range(h):
            col_of[(k, j, i)] = off + i

    gamma_sorted = sorted(inst.gamma, key=lambda g: (sum(g), g))
    rows_by_gamma: dict[tuple[int, ...], list[int]] = {}
    for g in gamma_sorted:
        row = [0] * sigma
        if not any(g):
            for k, j, h, off in layout:
                if not any(j):
                    row[off] = 1
        else:
            var = next(i for i, x in enumerate(g) if x > 0)
            prev = rows_by_gamma[g[:var] + (g[var] - 1,) + g[var + 1 :]]
            p = fld.p
            for k, j, h, off in layout:
                y_val = inst.points[k][1][var]
                for i in range(h):
                    below = j[:var] + (j[var] - 1,) + j[var + 1 :] if j[var] > 0 else None
                    acc = y_val * prev[off + i] % p
                    if below is not None:
                        src = col_of.get((k, below, i))
                        if src is not None:
                            acc = (acc + prev[src]) % p
                    row[off + i] = acc
        rows_by_gamma[g] = row

    e = [rows_by_gamma[g] for g in inst.gamma]
    rep = JordanRep(fld, tuple(pairs))
    shift = [sum(w * x for w, x in zip(inst.weights, g)) for g in inst.gamma]
    return InterpolationInstance(fld, e, rep), shift


def guruswami_sudan_list_size(total_cost: int, weight: int) -> int:
    """Smallest list-size bound whose unknown count exceeds the cost.

    Counts monomials X^i Y^j with i + weight*j at most a working degree,
    grows the degree until the count passes total_cost, and returns one plus
    the largest usable Y-degree.
    """
    if weight < 0 or total_cost < 0:
        raise ValueError("negative parameters")
    d = 0
    while True:
        count = 0
        j = 0
        while weight * j <= d:
            count += d - weight * j + 1
            if weight == 0:
                break
            j += 1
        if count > total_cost:
            return (d // weight + 1) if weight else d + 1
        d += 1


@dataclass
class ListInterpolationResult:
    q_row: list[list[int]]
    basis: PolyMatrix
    shift: list[int]
    instance: InterpolationInstance


def rs_instance(
    fld: PrimeField,
    points,
    multiplicities,
    weight: int,
    list_bound: int,
) -> tuple[InterpolationInstance, list[int]]:
    """(interpolation instance, shift) of bivariate list-decoding interpolation.

    The supports are {(i, j): i + j < b_k} for the multiplicity b_k of
    point k, one row per power Y^t, t < list_bound, and the shift is
    (0, w, 2w, ...).
    """
    if list_bound < 1:
        raise ValueError("list bound must be at least 1")
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    multiplicities = list(multiplicities)
    if len(multiplicities) != len(points) or any(b < 1 for b in multiplicities):
        raise ValueError("one multiplicity of at least 1 per point required")
    gamma = tuple((t,) for t in range(list_bound))
    supports = tuple(
        frozenset((i, (j,)) for i in range(b) for j in range(b - i))
        for b in multiplicities
    )
    inst = MultivariateInstance(
        fld,
        1,
        gamma,
        tuple((x % fld.p, (y % fld.p,)) for x, y in points),
        supports,
        (weight,),
    )
    return multivariate_instance(inst)


def rs_interpolation(
    fld: PrimeField,
    points,
    multiplicities,
    weight: int,
    list_bound: int,
) -> ListInterpolationResult:
    """Bivariate list-decoding interpolation with per-point multiplicities.

    Builds the instance and shift of `rs_instance`, runs the
    divide-and-conquer engine, and returns both the full basis and the row
    of smallest shifted degree (ties to the lowest row index) as the
    coefficient row of the interpolation polynomial in the list variable.
    """
    interp, shift = rs_instance(fld, points, multiplicities, weight, list_bound)
    basis = interpolation_basis(interp.evals, interp.mulmat, shift, fld)
    degs = shifted_row_degree(basis, shift)
    best = min(range(basis.nrows), key=lambda i: (degs[i], i))
    return ListInterpolationResult(
        [e[:] for e in basis.rows[best]], basis, shift, interp
    )
