"""Machine speed, measured by fixed kernels that do not use the library.

The benchmark runs on shared hosts whose speed changes by up to 1.9x in
phases of seconds to minutes, as neighbours come and go on the same cores;
the process is not descheduled, it runs slower, so its CPU time grows with
its wall time.  Timing three fixed kernels next to every solve measures how
slow the machine is at that moment, and dividing a solve's wall time by that
slowness gives its time at the reference speed.

The kernels mirror the library's three kinds of work: the interpreter's
scalar loop, polynomial arithmetic on Python lists, and numpy int64 array
products.  REFERENCE_S holds each kernel's time on a 2-core x86_64 VM in a
quiet phase, so that scaled times read close to that machine's wall times.
"""

import random
import time

import numpy as np

PRIME = 65537
REFERENCE_S = {"scalar": 0.0065, "poly": 0.0075, "array": 0.0115}

_rng = random.Random(0)
_F = [_rng.randrange(PRIME) for _ in range(160)]
_G = [_rng.randrange(PRIME) for _ in range(160)]
_A = np.random.default_rng(0).integers(0, PRIME, (128, 128), dtype=np.int64)


def _scalar():
    x = 1
    for i in range(80000):
        x = (x * 31 + i) % PRIME
    return x


def _poly():
    out = [0] * (len(_F) + len(_G) - 1)
    for _ in range(2):
        for i, a in enumerate(_F):
            for j, b in enumerate(_G):
                out[i + j] = (out[i + j] + a * b) % PRIME
    return out


def _array():
    x = _A
    for _ in range(4):
        x = (x @ _A) % PRIME
        x = (x * x + 3) % PRIME
    return x


KERNELS = {"scalar": _scalar, "poly": _poly, "array": _array}


def slowness():
    """How many times slower than the reference the machine runs now: the
    mean over the kernels of measured time / reference time."""
    total = 0.0
    for name, kernel in KERNELS.items():
        start = time.perf_counter()
        kernel()
        total += (time.perf_counter() - start) / REFERENCE_S[name]
    return total / len(KERNELS)
