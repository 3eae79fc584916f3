"""Command line front-end.

Subcommands build instances from text documents (see textio), run one of
the engines, and write results back in the same format.  ``_read`` reads
each input a flag may name: the first section of its kind in the named
file, which must have the main input's prime, or else the main input's
section of that kind at a fixed index.  Exit codes: 0 success (and
passing checks), 1 domain error, failing check or failed internal
invariant (no traceback), 2 usage error.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time

from . import jordan, oracle, polymat, reductions, textio
from .dnc import interpolation_basis
from .field import PrimeField
from .jordan import JordanRep
from .linearization import lin_interp_basis
from .nullspace import minimal_nullspace_basis
from .polymat import PolyMatrix
from .shift_change import change_shift
from .textio import Document, ParseError, Section


class UsageError(Exception):
    pass


def _load(path: str) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return textio.parse_document(handle.read())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _emit(doc: Document, path: str | None) -> None:
    text = textio.serialize_document(doc)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_beside(path: str, doc: Document) -> Document:
    """The document at path, which must have doc's prime."""
    other = _load(path)
    if other.p != doc.p:
        raise ValueError("input files disagree on the field prime")
    return other


def _read(path: str | None, doc: Document, kind: str, skip: int = 0, default=None):
    """The data of a `kind` section: the first one in the file at path, or
    without a path doc's section of that kind at index skip (default when
    doc has none there and a default is given)."""
    if path:
        return _load_beside(path, doc).first(kind)
    if default is not None and len([s for s in doc.sections if s.kind == kind]) <= skip:
        return default
    return doc.first(kind, skip)


def _mulmat_from(args, edoc: Document, field: PrimeField, evals):
    """The multiplication matrix from --dense-mulmat, --jordan or the
    evaluations document edoc, checked against the evaluations."""
    if args.dense_mulmat:
        mdoc = _load_beside(args.dense_mulmat, edoc)
        mulmat = mdoc.first("mat", skip=1 if args.dense_mulmat == args.evals else 0)
    else:
        mulmat = JordanRep(field, tuple(_read(args.jordan, edoc, "jordan")))
    jordan.check_evaluations(evals, mulmat, field)
    return mulmat


def _krylov_delta(mulmat, sigma: int) -> int:
    """Smallest power of two bounding the degree of M's minimal polynomial."""
    bound = jordan.minpoly_degree(mulmat) if isinstance(mulmat, JordanRep) else sigma
    return 1 << max(bound - 1, 0).bit_length()


def _solve(engine: str, evals, mulmat, shift, field: PrimeField) -> PolyMatrix:
    """The basis of one engine, dnc, lin (at _krylov_delta) or oracle."""
    if engine == "dnc":
        return interpolation_basis(evals, mulmat, shift, field)
    if engine == "lin":
        delta = _krylov_delta(mulmat, len(evals[0]) if len(evals) else 0)
        return lin_interp_basis(evals, mulmat, shift, delta, field)[0]
    return oracle.oracle_popov(evals, mulmat, shift, field)[0]


def _shift_from(args, doc: Document, m: int, skip: int = 0) -> list[int]:
    """Shift from --shift or the bundled document (index skip), zero if neither."""
    shift = _read(args.shift, doc, "shift", skip, [0] * m)
    if len(shift) != m:
        raise ValueError("shift length does not match the row count")
    return list(shift)


def _cmd_interp(args) -> int:
    doc = _load(args.evals)
    field = doc.field()
    evals = doc.first("mat")
    m = len(evals)
    shift = _shift_from(args, doc, m)
    if args.dense_mulmat and args.algo == "dnc":
        raise UsageError("--algo dnc requires a Jordan multiplication matrix")
    mulmat = _mulmat_from(args, doc, field, evals)
    basis = _solve(args.algo, evals, mulmat, shift, field)
    _emit(Document(field.p, [textio.polymat_section(basis)]), args.output)
    return 0


def _cmd_hermite_pade(args) -> int:
    # bundled layout: polymat, then shift #0 = orders, shift #1 = shift
    doc = _load(args.input)
    field = doc.field()
    fmat = textio.polymat_from_section(doc.section("polymat"), field)
    orders = _read(args.orders, doc, "shift")
    shift = _shift_from(args, doc, fmat.nrows, skip=0 if args.orders else 1)
    inst = reductions.hermite_pade_instance(fmat, orders)
    basis = interpolation_basis(inst.evals, inst.mulmat, shift, field)
    _emit(Document(field.p, [textio.polymat_section(basis)]), args.output)
    return 0


def _cmd_mpade(args) -> int:
    # bundled layout: polymat, mat of points (one row), orders, then shift
    doc = _load(args.input)
    field = doc.field()
    fmat = textio.polymat_from_section(doc.section("polymat"), field)
    points = doc.first("mat")[0]
    orders = _read(args.orders, doc, "shift")
    shift = _shift_from(args, doc, fmat.nrows, skip=0 if args.orders else 1)
    inst = reductions.mpade_instance(fmat, points, orders)
    basis = interpolation_basis(inst.evals, inst.mulmat, shift, field)
    _emit(Document(field.p, [textio.polymat_section(basis)]), args.output)
    return 0


def _cmd_multi_interp(args) -> int:
    doc = _load(args.input)
    field = doc.field()
    gamma_rows = doc.first("mat", 0)
    point_rows = doc.first("mat", 1)
    weights = doc.first("shift")
    r = len(weights)
    gamma = tuple(tuple(g) for g in gamma_rows)
    points = tuple((row[0], tuple(row[1:])) for row in point_rows)
    supports = []
    for k in range(len(points)):
        rows = doc.first("mat", 2 + k)
        supports.append(frozenset((row[0], tuple(row[1:])) for row in rows))
    inst = reductions.MultivariateInstance(
        field, r, gamma, points, tuple(supports), tuple(weights)
    )
    interp, shift = reductions.multivariate_instance(inst)
    basis = interpolation_basis(interp.evals, interp.mulmat, shift, field)
    _emit(
        Document(
            field.p,
            [Section("shift", shift), textio.polymat_section(basis)],
        ),
        args.output,
    )
    return 0


def _cmd_rs_interp(args) -> int:
    doc = _load(args.points)
    field = doc.field()
    pts = [(row[0], row[1]) for row in doc.first("mat")]
    mults = [args.multiplicity] * len(pts)
    if args.mult_file:
        mults = _read(args.mult_file, doc, "shift")
    sigma = sum(b * (b + 1) // 2 for b in mults)
    m = args.list_size or reductions.guruswami_sudan_list_size(sigma, args.weight)
    res = reductions.rs_interpolation(field, pts, mults, args.weight, m)
    q = PolyMatrix(field, [res.q_row], m)
    _emit(
        Document(
            field.p,
            [
                Section("shift", res.shift),
                textio.polymat_section(q),
                textio.polymat_section(res.basis),
            ],
        ),
        args.output,
    )
    return 0


def _cmd_nullspace(args) -> int:
    doc = _load(args.input)
    field = doc.field()
    fmat = textio.polymat_from_section(doc.section("polymat"), field)
    shift = _shift_from(args, doc, fmat.nrows)
    basis, _ = minimal_nullspace_basis(fmat, shift)
    _emit(Document(field.p, [textio.polymat_section(basis)]), args.output)
    return 0


def _cmd_shift_change(args) -> int:
    # bundled layout: polymat, shift #0 = base shift, shift #1 = extra shift
    doc = _load(args.input)
    field = doc.field()
    pmat = textio.polymat_from_section(doc.section("polymat"), field)
    base = _read(args.shift, doc, "shift")
    extra = _read(args.target, doc, "shift", 0 if args.shift else 1)
    reduced, transform = change_shift(pmat, base, extra)
    sections = [textio.polymat_section(reduced)]
    if args.with_transform:
        sections.append(textio.polymat_section(transform))
    _emit(Document(field.p, sections), args.output)
    return 0


def _cmd_check(args) -> int:
    doc = _load(args.matrix)
    field = doc.field()
    mat = textio.polymat_from_section(doc.section("polymat"), field)
    if args.mode in ("popov", "reduced"):
        shift = _shift_from(args, doc, mat.ncols)
        ok = (
            polymat.is_popov(mat, shift)
            if args.mode == "popov"
            else polymat.is_reduced(mat, shift)
        )
    else:
        if not args.evals:
            raise UsageError(f"check --{args.mode} requires --evals")
        if args.mode == "equiv" and not args.matrix2:
            raise UsageError("check --equiv requires --matrix2")
        edoc = _load_beside(args.evals, doc)
        evals = edoc.first("mat")
        mulmat = _mulmat_from(args, edoc, field, evals)
        if args.mode == "interpolant":
            res = oracle.naive_residual(mulmat, mat, evals)
            ok = all(not any(row) for row in res)
        else:
            other = textio.polymat_from_section(
                _load_beside(args.matrix2, doc).section("polymat"), field
            )
            shift = _shift_from(args, edoc, mat.nrows)
            ok = oracle.module_equivalent(mat, other, evals, mulmat, shift)
    print("ok" if ok else "failed")
    return 0 if ok else 1


# rs-list bench instances: points of multiplicity 2, weight 15, as in the
# rs-list workload of perfbench; each point costs 3 conditions
_RS_MULT, _RS_WEIGHT = 2, 15


def _bench_instance(field: PrimeField, m: int, sigma: int, rng: random.Random, shape: str):
    """hermite-pade: one nilpotent block of order sigma; multipoint: m rows
    of order-1 data at sigma distinct nonzero points; dense: m random rows
    and a random dense sigma x sigma M; rs-list: list-decoding
    interpolation at sigma // 3 distinct random points of multiplicity 2,
    its m the Guruswami-Sudan list size.  Returns (evals, mulmat, shift)."""
    if shape == "dense":
        evals = [[rng.randrange(field.p) for _ in range(sigma)] for _ in range(m)]
        dense = [[rng.randrange(field.p) for _ in range(sigma)] for _ in range(sigma)]
        return evals, dense, [0] * m
    if shape == "rs-list":
        npoints = sigma // 3
        if npoints > field.p:
            raise ValueError("the rs-list shape needs sigma // 3 <= p distinct points")
        xs = rng.sample(range(field.p), npoints)
        points = [(x, rng.randrange(field.p)) for x in xs]
        cost = npoints * _RS_MULT * (_RS_MULT + 1) // 2
        list_size = reductions.guruswami_sudan_list_size(cost, _RS_WEIGHT)
        inst, shift = reductions.rs_instance(
            field, points, [_RS_MULT] * npoints, _RS_WEIGHT, list_size
        )
        return inst.evals, inst.mulmat, shift
    if shape == "multipoint":
        if sigma >= field.p:
            raise ValueError("the multipoint shape needs sigma < p distinct nonzero points")
        points = rng.sample(range(1, field.p), sigma)
        fmat = PolyMatrix.from_entries(
            field, [[[rng.randrange(field.p)] for _ in range(sigma)] for _ in range(m)]
        )
        inst = reductions.mpade_instance(fmat, points, [1] * sigma)
    else:
        fmat = PolyMatrix.from_entries(
            field, [[[rng.randrange(field.p) for _ in range(sigma)]] for _ in range(m)]
        )
        inst = reductions.hermite_pade_instance(fmat, [sigma])
    return inst.evals, inst.mulmat, [0] * m


def _bench_size(text: str) -> int:
    try:
        size = int(text)
    except ValueError:
        size = 0
    if size < 1:
        raise UsageError(f"--sizes takes positive integers, not '{text}'")
    return size


def _cmd_bench(args) -> int:
    field = PrimeField(args.field)
    sizes = [_bench_size(s) for s in args.sizes.split(",") if s]
    if args.m < 1:
        raise UsageError("--m must be at least 1")
    if args.shape == "rs-list" and any(s < 3 for s in sizes):
        raise UsageError("the rs-list shape needs sizes of at least 3, one point per 3 columns")
    default = "lin,oracle" if args.shape == "dense" else "dnc,lin,oracle"
    engines = [e for e in (args.engines or default).split(",") if e]
    for e in engines:
        if e not in ("dnc", "lin", "oracle"):
            raise UsageError(f"unknown engine '{e}'")
    if args.shape == "dense" and "dnc" in engines:
        raise UsageError("dnc needs a Jordan multiplication matrix, not the dense shape")
    if args.repeats < 1:
        raise UsageError("--repeats must be at least 1")
    rng = random.Random(args.seed)

    print("engine,m,sigma,seconds")
    for n, size in enumerate(sizes):
        evals, mulmat, shift = _bench_instance(field, args.m, size, rng, args.shape)
        # the m and sigma solved, which the rs-list shape derives from size
        m, sigma = len(evals), len(evals[0]) if evals else 0
        if n == 0:
            # untimed warm-up: the first solves of a process pay for imports,
            # numpy's first calls and cold caches
            for engine in engines:
                _solve(engine, evals, mulmat, shift, field)
        for engine in engines:
            times = []
            for _ in range(args.repeats):
                start = time.perf_counter()
                _solve(engine, evals, mulmat, shift, field)
                times.append(time.perf_counter() - start)
            print(f"{engine},{m},{sigma},{statistics.median(times):.6f}")
            sys.stdout.flush()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mib", description="shifted minimal interpolation bases over prime fields"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("interp", help="interpolation basis for (E, M)")
    p.add_argument("--algo", choices=("lin", "dnc", "oracle"), default="dnc")
    p.add_argument("--evals", required=True, help="file with the evaluation matrix")
    p.add_argument("--jordan", help="file with the Jordan representation")
    p.add_argument("--dense-mulmat", help="file with a dense multiplication matrix")
    p.add_argument("--shift", help="file with the shift")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_interp)

    p = sub.add_parser("hermite-pade", help="truncated-product relation basis")
    p.add_argument("input", help="file with the polynomial matrix (plus shift/orders)")
    p.add_argument("--orders", help="file whose shift section lists the orders")
    p.add_argument("--shift")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_hermite_pade)

    p = sub.add_parser("mpade", help="multi-point congruence relation basis")
    p.add_argument("input", help="polymat + mat-of-points + orders document")
    p.add_argument("--orders")
    p.add_argument("--shift")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_mpade)

    p = sub.add_parser("multi-interp", help="constrained multivariate interpolation")
    p.add_argument("input", help="gamma, points, weights, and one support per point")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_multi_interp)

    p = sub.add_parser("rs-interp", help="list-decoding interpolation step")
    p.add_argument("points", help="file with an n x 2 matrix of (x, y) pairs")
    p.add_argument("--multiplicity", type=int, default=1)
    p.add_argument("--mult-file", help="file whose shift section lists multiplicities")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--list-size", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_rs_interp)

    p = sub.add_parser("nullspace", help="minimal left nullspace basis")
    p.add_argument("input", help="polymat document (shift optional)")
    p.add_argument("--shift")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_nullspace)

    p = sub.add_parser("shift-change", help="re-reduce under an augmented shift")
    p.add_argument("input", help="polymat + base shift + extra shift document")
    p.add_argument("--shift", help="file with the base shift")
    p.add_argument("--target", help="file with the extra shift")
    p.add_argument("--with-transform", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_shift_change)

    p = sub.add_parser("check", help="verify a property of a result file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--popov", dest="mode", action="store_const", const="popov")
    mode.add_argument("--reduced", dest="mode", action="store_const", const="reduced")
    mode.add_argument(
        "--interpolant", dest="mode", action="store_const", const="interpolant"
    )
    mode.add_argument("--equiv", dest="mode", action="store_const", const="equiv")
    p.add_argument("--matrix", required=True)
    p.add_argument("--matrix2")
    p.add_argument("--evals")
    p.add_argument("--jordan")
    p.add_argument("--dense-mulmat")
    p.add_argument("--shift")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bench", help="wall-clock comparison of the engines")
    p.add_argument("--sizes", default="256,512,1024,2048")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", type=int, default=65537)
    p.add_argument("--engines", help="default dnc,lin,oracle; lin,oracle on the dense shape")
    p.add_argument(
        "--shape",
        choices=("hermite-pade", "multipoint", "rs-list", "dense"),
        default="hermite-pade",
    )
    p.add_argument("--repeats", type=int, default=1, help="print the median of N runs")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
