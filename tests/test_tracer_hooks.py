"""The benchmark's tracer finds every library function it wraps.

perfbench/tracer.py wraps mibasis functions by name (its LAYERS table, three
PrimeField methods and dnc.lin_interp_basis).  Installing it looks each name
up, so deleting or renaming one of them fails here, in the fast suite,
instead of only in the slow benchmark checks.
"""

import importlib.util
import sys
from pathlib import Path

import mibasis as mb
from mibasis import dnc

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
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
    tracer = load_tracer()
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
