"""Checks on the benchmark's own instances, gate and tracer.

Run from the root of a checkout (about two minutes):

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import mibasis as mb  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# The default seed and one other.
SHIPPED_SEEDS = (0, 1)


@pytest.mark.parametrize("seed", SHIPPED_SEEDS)
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_instances_generic_and_outputs_deterministic(name, seed):
    w = workloads.WORKLOADS[name]
    pool, _ = workloads.build_pool(w, seed)
    rebuilt, _ = workloads.build_pool(w, seed)
    field = mb.PrimeField(workloads.PRIME)
    for case, same_case in zip(pool, rebuilt):
        sol = w.solve(case)
        s0 = [s - min(sol.shift) for s in sol.shift]
        # The oracle's Popov basis reaches the full degree sum, so the
        # instance is generic and the gate's degree-sum equation is sound.
        popov, _ = mb.oracle_popov(sol.evals, sol.mulmat, s0, field)
        assert sum(mb.shifted_row_degree(popov, s0)) == w.sigma + sum(s0)
        assert workloads.gate(sol, w.sigma) is None
        assert workloads.digest(w.solve(same_case).basis) == workloads.digest(sol.basis)


def test_gate_rejects_a_wrong_basis():
    w = workloads.WORKLOADS["hermite-pade"]
    pool, _ = workloads.build_pool(w, 0)
    sol = w.solve(pool[0])
    rows = [row[:] for row in sol.basis.rows]
    rows[0][0] = mb.PrimeField(workloads.PRIME).poly_add(rows[0][0], [1])
    broken = workloads.Solved(mb.PolyMatrix(sol.basis.field, rows), sol.evals, sol.mulmat, sol.shift)
    assert workloads.gate(broken, w.sigma) == "a row is not an interpolant"
    doubled = workloads.Solved(
        mb.PolyMatrix(sol.basis.field, [[sol.basis.field.poly_shift_up(e, 1) for e in row]
                                        for row in sol.basis.rows]),
        sol.evals, sol.mulmat, sol.shift,
    )
    assert workloads.gate(doubled, w.sigma).startswith("shifted degree sum")


def test_tracer_counts_layers_and_restores_originals():
    from mibasis import dnc, polymat, residual

    originals = (dnc.lin_interp_basis, residual.mat_mul, polymat.mat_mul,
                 vars(mb.PrimeField)["crt"])
    w = workloads.WORKLOADS["multipoint"]
    pool, _ = workloads.build_pool(w, 0)
    tr = tracer.Tracer()
    with tr.installed():
        assert residual.mat_mul is not originals[1]
        tr.recording = True
        tr.call_root(w.solve, pool[0])
        tr.recording = False
    assert (dnc.lin_interp_basis, residual.mat_mul, polymat.mat_mul,
            vars(mb.PrimeField)["crt"]) == originals
    assert tr.stats[tracer.ROOT].calls == 1
    for name in ("dnc.leaf", "residual.residual_by_crt", "field.crt", "polymat.mat_mul"):
        assert tr.stats[name].calls > 0, name
    assert tr.stats["polymat.mat_mul"].counts["coeff_mults"] > 0
    total_self = sum(st.self_s for st in tr.stats.values())
    assert total_self == pytest.approx(tr.stats[tracer.ROOT].incl_s, rel=0.05)
