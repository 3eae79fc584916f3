"""The benchmark's tracer finds every library function it wraps.

perfbench/tracer.py wraps mibasis functions by name (its LAYERS table, three
PrimeField methods and dnc.lin_interp_basis).  Installing it looks each name
up, so deleting or renaming one of them fails here, in the fast suite,
instead of only in the slow benchmark checks.  A solve that bypasses a
wrapped layer, for instance by an inlined product, fails here too.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import mibasis as mb
from mibasis import dnc, jordan

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """perfbench's module `name`, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def lookup(qual):
    modname, fname = qual.split(".")
    return getattr(sys.modules["mibasis." + modname], fname)


def test_tracer_installs_on_every_traced_name_and_restores_it():
    tracer = load_perfbench("tracer")
    originals = {qual: lookup(qual) for qual in tracer.LAYERS}
    leaf = dnc.lin_interp_basis
    methods = {meth: vars(mb.PrimeField)[meth] for meth in tracer.FIELD_METHODS}
    with tracer.Tracer().installed():
        assert dnc.lin_interp_basis is not leaf
        for meth, orig in methods.items():
            assert vars(mb.PrimeField)[meth] is not orig
    assert dnc.lin_interp_basis is leaf
    for meth, orig in methods.items():
        assert vars(mb.PrimeField)[meth] is orig
    for qual, orig in originals.items():
        assert lookup(qual) is orig


def traced_stats(solve):
    """Per-layer stats of the benchmark's tracer over one call of solve."""
    tr = load_perfbench("tracer").Tracer()
    with tr.installed():
        tr.recording = True
        try:
            solve()
        finally:
            tr.recording = False
    return tr.stats


def test_dense_lin_reaches_the_scalar_layers():
    # dense lin must multiply and eliminate through modmat.mat_mul and
    # modmat.rref, or the benchmark's scalar layers read zero on dense-lin
    field = mb.PrimeField(65537)
    rng = random.Random(4)
    sigma = 40
    e = [[rng.randrange(field.p) for _ in range(sigma)] for _ in range(3)]
    dense = [[rng.randrange(field.p) for _ in range(sigma)] for _ in range(sigma)]
    stats = traced_stats(lambda: mb.lin_interp_basis(e, dense, [0, 0, 0], 64, field))
    # the steps by M, M^2, M^4 and M^8 keep 6, 12, 24 and then 40 = sigma
    # rows, and the rows of the step by M^16 would all follow them, so
    # doubling stops before delta = 64: four eliminations, whose transform
    # gives the relations without a fifth; four products by powers of M,
    # three squarings, one product for the target rows and two for the
    # relations (the check of the targets against R, and the product by T)
    assert stats["modmat.rref"].calls == 4
    assert stats["modmat.mat_mul"].calls == 10


def test_jordan_lin_eliminates_once_per_doubling_step_and_not_to_solve():
    # no elimination of E alone and no column profile: the step by M keeps
    # 4 = sigma rows, and the rows of the step by M^2 would all follow them,
    # so delta = 4 takes one doubling step, and the relations are read off
    # its transform without a second elimination
    field = mb.PrimeField(97)
    rep = jordan.JordanRep(field, ((0, 4),))
    rng = random.Random(5)
    e = [[rng.randrange(field.p) for _ in range(4)] for _ in range(4)]
    stats = traced_stats(lambda: mb.lin_interp_basis(e, rep, [0, 0, 0, 0], 4, field))
    assert stats["modmat.rref"].calls == 1


# One solve of perfbench's seed-7 instance 0 of each Jordan workload: the
# nonzero per-layer call counts.  hermite-pade (sigma = 256, two leaves) takes
# one node residual and the final check, each one tail product, and one
# product of the halves; its blocks have eigenvalue 0, so no Taylor shift
# runs.  multipoint (sigma = 128, one leaf) takes only the final check, by
# the Krylov product: ceil(log2 b) doublings and g - 1 giant steps of
# act_power.  rs-list (sigma = 156, m = 5, one cut) takes two Krylov
# residuals and one product of the halves.
DNC_CALLS = {
    "hermite-pade": {
        "polymat.mat_mul": 3,
        "residual.compute_residuals": 2,
        "residual.residual_by_crt": 2,
        "unbalanced.unbalanced_mul": 1,
    },
    "multipoint": {"jordan.act_power": 8, "modmat.mat_mul": 1, "residual.compute_residuals": 1},
    "rs-list": {
        "jordan.act_power": 19,
        "modmat.mat_mul": 2,
        "polymat.mat_mul": 1,
        "reductions.multivariate_instance": 1,
        "residual.compute_residuals": 2,
        "unbalanced.unbalanced_mul": 1,
    },
}


@pytest.mark.parametrize("name", DNC_CALLS)
def test_dnc_shapes_call_each_layer_as_pinned(name):
    workloads = load_perfbench("workloads")
    workload = workloads.WORKLOADS[name]
    pool, _ = workloads.build_pool(workload, 7)
    stats = traced_stats(lambda: workload.solve(pool[0]))
    assert {layer: s.calls for layer, s in stats.items() if s.calls} == DNC_CALLS[name]
