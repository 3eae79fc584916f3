"""Closed-loop benchmark of the mibasis library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hermite-pade --seed 0 --seconds 30 --trace 0

The last line of the output is the JSON result; README.md next to this file
defines the workloads, the correctness gate and every metric.  The program
under test is imported from src/ of the checkout; the run stops with a
non-zero exit code and no result line when it is absent.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# Pin BLAS threads before numpy loads, so timings measure the program.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_CHILDREN = 5
CHILD_TIMEOUT_S = 120
ORACLE_REPEATS = 3


def _import_library():
    sys.path.insert(0, str(SRC))
    try:
        import mibasis
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import mibasis from {SRC}: {exc}")
    if Path(mibasis.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: mibasis was imported from {mibasis.__file__}, not {SRC}")


class Runner:
    """Solves pool instances one at a time and keeps the failure tally."""

    def __init__(self, workload, pool):
        self.workload = workload
        self.pool = pool
        self.digests = [None] * len(pool)
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.last_end = 0.0

    def solve(self, i, tr=None):
        """Solve pool[i] once; its wall time, or None when it failed."""
        self.attempted += 1
        case = self.pool[i]
        start = time.perf_counter()
        try:
            if tr is None:
                sol = self.workload.solve(case)
            else:
                tr.recording = True
                try:
                    sol = tr.call_root(self.workload.solve, case)
                finally:
                    tr.recording = False
        except Exception:
            self.last_end = time.perf_counter()
            self._fail(i, traceback.format_exc())
            return None
        self.last_end = time.perf_counter()
        elapsed = self.last_end - start
        problem = workloads.gate(sol, self.workload.sigma)
        d = workloads.digest(sol.basis)
        if self.digests[i] is None:
            self.digests[i] = d
        elif d != self.digests[i]:
            problem = problem or "output differs from an earlier solve of the same instance"
        if problem:
            self._fail(i, problem)
            return None
        if i == 0 and self.first is None:
            self.first = sol
        return elapsed

    def _fail(self, i, why):
        self.failed += 1
        print(f"perfbench: solve of instance {i} failed: {why}", file=sys.stderr)

    def pool_digest(self):
        return hashlib.sha256("".join(d or "-" for d in self.digests).encode()).hexdigest()


def _child_setup_s(args):
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0", "--setup-only",
    ]
    out = subprocess.run(
        cmd, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S
    ).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def _one_pass(runner, times, tr=None):
    """Solve every pool instance once, adding each successful wall time to times[i]."""
    for i, ts in enumerate(times):
        t = runner.solve(i, tr)
        if t is not None:
            ts.append(t)


def _fast_mean_s(times):
    """Mean wall time of the fastest quarter of the solves."""
    if not times:
        raise SystemExit("perfbench: no solve succeeded")
    fast = sorted(times)[:max(1, len(times) // 4)]
    return sum(fast) / len(fast)


def _end_to_end(args, workload, runner, setup_s):
    """Round-robin solves for --seconds, with cold set-ups at even intervals between them.

    The machine's slowness is read before and after every solve, and the
    solve's wall time divided by the mean of the two readings is its time at
    the reference speed (see calibrate.py).  Each fresh child process repeats
    the set-up and stops; its time is scaled by the readings around it.
    """
    n = len(runner.pool)
    wall, scaled, slowness = [], [], []
    by_instance = [[] for _ in range(n)]
    before = calibrate.slowness()
    setups, scaled_setups = [setup_s], [setup_s / before]
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < args.seconds or len(setups) <= SETUP_CHILDREN:
        if i == 0 or time.perf_counter() - start < args.seconds:
            t = runner.solve(i % n)
            after = calibrate.slowness()
            if t is not None:
                wall.append(t)
                slowness.append((before + after) / 2)
                scaled.append(t / slowness[-1])
                by_instance[i % n].append(scaled[-1])
            before = after
            i += 1
        due = (len(setups) - 1) * args.seconds / SETUP_CHILDREN
        if len(setups) <= SETUP_CHILDREN and time.perf_counter() - start >= due:
            setups.append(_child_setup_s(args))
            after = calibrate.slowness()
            scaled_setups.append(setups[-1] / ((before + after) / 2))
            before = after
    if not scaled:
        raise SystemExit("perfbench: no solve succeeded")
    # Means and medians per pool instance first: instances of one shape
    # differ in cost, and a run may end part way through a round.
    metrics = {
        "sigma_per_s": (
            workload.sigma / statistics.mean(statistics.mean(ts) for ts in by_instance if ts), "1/s"),
        "solve_s.p50": (statistics.mean(statistics.median(ts) for ts in by_instance if ts), "s"),
        "setup_s": (statistics.median(scaled_setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    summary = {
        "solves": len(scaled),
        "setup_samples": setups,
        "setup_min_scaled": min(scaled_setups),
        "slowness_median": statistics.median(slowness),
        # unscaled wall-time figures, for reading only: they follow the
        # machine's load phases and are not stable enough to gate on
        "wall_sigma_per_s": workload.sigma * len(wall) / sum(wall),
        "wall_solve_s_p50": statistics.median(wall),
    }
    return metrics, summary


def _count_snapshot(tr):
    """Cumulative call counts and computed counts, by metric name."""
    out = {}
    for name, st in tr.stats.items():
        out[f"{name}.calls"] = st.calls
        out.update({f"{name}.{key}": v for key, v in st.counts.items()})
    return out


def _per_layer(args, workload, runner, build_times):
    from mibasis import PrimeField, oracle

    tr = tracer.Tracer()
    n = len(runner.pool)
    untraced, traced = [[] for _ in range(n)], [[] for _ in range(n)]
    snapshots = []
    start = time.perf_counter()
    while not snapshots or time.perf_counter() - start < args.seconds:
        _one_pass(runner, untraced)
        with tr.installed():
            _one_pass(runner, traced, tr)
        snapshots.append(_count_snapshot(tr))
    # every traced pass solves the same instances, so it must add the same counts
    counts_repeat = all(
        snap[k] == p * snapshots[0][k] for p, snap in enumerate(snapshots, 1) for k in snap
    )
    if not counts_repeat:
        print("perfbench: call counts differ between traced passes", file=sys.stderr)

    solves = n * len(snapshots)
    metrics = {}
    reported = [k for k in tr.stats if k != "reductions.multivariate_instance"]
    for name in sorted(reported):
        st = tr.stats[name]
        if name != tracer.ROOT:
            metrics[f"{name}.calls"] = (st.calls / solves, "calls/solve")
        metrics[f"{name}.self_s"] = (st.self_s / solves, "s/solve")
    mm = tr.stats["polymat.mat_mul"].counts
    metrics["polymat.mat_mul.coeff_mults"] = (mm.get("coeff_mults", 0) / solves, "mults/solve")
    rr = tr.stats["modmat.rref"].counts
    metrics["modmat.rref.cells"] = (rr.get("cells", 0) / solves, "cells/solve")
    metrics["modmat.rref.pivot_yield"] = (
        rr.get("pivots", 0) / rr["rows"] if rr.get("rows") else 0.0, "frac")
    if workload.builder_in_solve:
        st = tr.stats["reductions.multivariate_instance"]
        build_s = st.incl_s / st.calls
    else:
        build_s = statistics.median(build_times)
    metrics["reductions.build_s"] = (build_s, "s")

    metrics["trace.overhead_frac"] = (
        _fast_mean_s(sum(traced, [])) / _fast_mean_s(sum(untraced, [])) - 1, "frac")
    sol = runner.first
    s0 = [s - min(sol.shift) for s in sol.shift]
    field = PrimeField(workloads.PRIME)
    oracle_times = []
    for _ in range(ORACLE_REPEATS):
        t = time.perf_counter()
        oracle.oracle_popov(sol.evals, sol.mulmat, s0, field)
        oracle_times.append(time.perf_counter() - t)
    metrics["oracle.oracle_popov_s"] = (min(oracle_times), "s")
    metrics["oracle.dnc_over_oracle"] = (min(untraced[0]) / min(oracle_times), "ratio")
    summary = {"solves": solves, "counts_repeat": counts_repeat,
               "computed_counts": {
                   "polymat.mat_mul.coeff_mults": "rows*inner*cols*transform length",
                   "modmat.rref.cells": "rows*cols of each input",
                   "modmat.rref.pivot_yield": "pivots / rows offered"}}
    return metrics, summary, counts_repeat


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_library()
    global calibrate, workloads, tracer
    import numpy
    import calibrate
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    pool, build_times = workloads.build_pool(workload, args.seed)
    runner = Runner(workload, pool)
    warm = runner.solve(0)
    setup_s = runner.last_end - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0 if warm is not None else 1

    if args.trace:
        metrics, summary, counts_repeat = _per_layer(args, workload, runner, build_times)
    else:
        metrics, summary = _end_to_end(args, workload, runner, setup_s)
        counts_repeat = True

    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "prime": workloads.PRIME, "sizes": workload.sizes,
        "pool_size": len(pool), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "digest": runner.pool_digest(),
        "failed_frac": runner.failed / runner.attempted,
        **summary,
    }
    print(json.dumps({"meta": meta}))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0 and counts_repeat,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
