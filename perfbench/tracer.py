"""Per-layer call counts and self time, measured from outside the library.

The tracer replaces selected mibasis functions by timing wrappers while it
is installed and puts the originals back afterwards.  Modules bind names
with ``from .x import y``, so a function is replaced under every name that
refers to it in any loaded mibasis module; PrimeField methods are replaced
on the class.  Spans are aggregated in memory per layer: calls, self time
(inclusive time minus the time of wrapped callees), inclusive time and
computed operation counts.  A recursive call of a layer into itself is
folded into the outer span, so calls count entries from other layers.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import mibasis as mb
from mibasis import dnc

_now = time.perf_counter


def _mat_mul_coeff_mults(args, kwargs, result):
    """rows * inner * cols * transform length, the transform length being the
    power of two above the product degree (as chosen by polymat.mat_mul)."""
    b, a = args[0], args[1]
    db, da = b.degree(), a.degree()
    if db == mb.MINUS_INF or da == mb.MINUS_INF:
        return {"coeff_mults": 0}
    n = 1 << int(db + da).bit_length()
    return {"coeff_mults": b.nrows * b.ncols * a.ncols * n}


def _rref_counts(args, kwargs, result):
    mat = args[0]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    return {"cells": nrows * ncols, "rows": nrows, "pivots": len(result[0])}


# Functions wrapped wherever they are bound, with their computed counts.
LAYERS = {
    "linearization.krylov_rank_profile": None,
    "jordan.act_power": None,
    "shift_change.change_shift": None,
    "nullspace.minimal_nullspace_basis": None,
    "approx.pm_basis": None,
    "unbalanced.unbalanced_mul": None,
    "unbalanced.unbalanced_mul_auto": None,
    "polymat.mat_mul": _mat_mul_coeff_mults,
    "residual.compute_residuals": None,
    "residual.residual_by_crt": None,
    "residual.residual_by_shifting": None,
    "modmat.rref": _rref_counts,
    "modmat.mat_mul": None,
    "reductions.multivariate_instance": None,
}
FIELD_METHODS = ("crt", "multi_mod", "taylor_shift")
# lin_interp_basis is wrapped only where dnc calls it, as the leaf solver.
LEAF = "dnc.leaf"
ROOT = "solve"


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self.recording = False
        self._stack: list[list] = []  # [layer name, wrapped-callee seconds]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None):
        stats = self.stats.setdefault(name, LayerStats())
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
            stats.calls += 1
            stats.incl_s += end - start
            stats.self_s += end - start - frame[1]
            if count is not None:
                for key, v in count(args, kwargs, result).items():
                    stats.counts[key] = stats.counts.get(key, 0) + v
            if stack:
                # the parent's self time excludes this call and its counting
                stack[-1][1] += _now() - start
            return result

        return wrapper

    def call_root(self, fn, *args):
        """Run fn as the root span of one traced solve."""
        return self.wrap(ROOT, fn)(*args)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == "mibasis" or name.startswith("mibasis.")
        ]
        try:
            for qual, count in LAYERS.items():
                modname, fname = qual.split(".")
                orig = getattr(sys.modules["mibasis." + modname], fname)
                wrapped = self.wrap(qual, orig, count)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, wrapped)
            for meth in FIELD_METHODS:
                orig = vars(mb.PrimeField)[meth]
                self._patch(mb.PrimeField, meth, self.wrap("field." + meth, orig))
            self._patch(dnc, "lin_interp_basis", self.wrap(LEAF, dnc.lin_interp_basis))
            yield self
        finally:
            while self._patches:
                owner, attr, orig = self._patches.pop()
                setattr(owner, attr, orig)
