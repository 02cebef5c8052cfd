"""NAS BT proxy scaling — the companion benchmark to Table 1.

The paper's evaluation uses SP; dHPF's multipartitioning work (refs [5, 6])
also targets NAS BT, whose solves are *block*-tridiagonal (5x5 blocks per
point).  The communication skeleton is the same — sweeps along each
dimension — but each carried boundary plane is 5x larger and each sweep does
~7x the per-point flops, so BT scales even better (communication is
relatively cheaper).  This bench regenerates the BT speedup curve next to
SP's and verifies that relationship.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.apps.bt import BTProblem, bt_class, bt_plan
from repro.apps.sp import sp_class
from repro.apps.workloads import random_field
from repro.core.api import plan_multipartitioning
from repro.simmpi.machine import origin2000
from repro.sweep.multipart import MultipartExecutor
from repro.sweep.sequential import sequential_time


def skeleton_makespan(shape, partitioning, machine, sched) -> float:
    return MultipartExecutor(
        partitioning, shape, machine, payload="skeleton"
    ).run_skeleton(sched).makespan


def test_bt_vs_sp_scaling_skeleton(benchmark, report):
    machine = origin2000()
    bt = bt_class("B", steps=1)
    sp = sp_class("B", steps=1)
    bt_sched = bt.schedule()
    sp_sched = sp.schedule()
    t1_bt = sequential_time(bt.field_shape, bt_sched, machine)
    t1_sp = sequential_time(sp.shape, sp_sched, machine)

    benchmark.pedantic(
        lambda: skeleton_makespan(
            bt.field_shape,
            bt_plan(bt.shape, 16, machine.to_cost_model()).partitioning,
            machine,
            bt_sched,
        ),
        rounds=1,
        iterations=1,
    )

    rows = []
    for p in (1, 4, 9, 16, 25, 36, 49, 50, 64, 81):
        plan_b = bt_plan(bt.shape, p, machine.to_cost_model())
        tb = skeleton_makespan(bt.field_shape, plan_b.partitioning, machine,
                               bt_sched)
        plan_s = plan_multipartitioning(sp.shape, p, machine.to_cost_model())
        ts = skeleton_makespan(sp.shape, plan_s.partitioning, machine,
                               sp_sched)
        rows.append(
            [p, plan_b.gammas[:3], t1_bt / tb, t1_sp / ts]
        )
    report(
        "NAS BT vs SP scaling (class B, skeleton, generalized "
        "multipartitioning)",
        format_table(
            ["p", "tiling", "BT speedup", "SP speedup"], rows
        ),
    )
    by_p = {r[0]: r for r in rows}
    # BT's heavier per-point work keeps efficiency at least as high as SP's
    assert by_p[81][2] >= by_p[81][3] - 1.0
    # The 49-vs-50 inversion is *workload dependent* (the Conclusions'
    # "as long as the communication term is not dominant"): SP inverts,
    # but BT's ~7x per-point flops amortize the non-compactness penalty,
    # so its extra processor still pays off.
    sp_by_p = {r[0]: r[3] for r in rows}
    assert sp_by_p[50] < sp_by_p[49]          # SP: compactness wins
    assert by_p[50][2] > by_p[49][2] * 0.98   # BT: at worst a wash


def test_bt_simulated_class_s(benchmark, report):
    """Real-data distributed BT at 12^3: verified numerics, measured
    virtual time."""
    machine = origin2000()
    prob = BTProblem(shape=(12, 12, 12), steps=1)
    field = random_field(prob.field_shape)
    ref = prob.solve_sequential(field)
    plan = bt_plan(prob.shape, 4, machine.to_cost_model())
    ex = MultipartExecutor(plan.partitioning, prob.field_shape, machine)

    def run():
        return ex.run(field, prob.schedule())

    out, res = benchmark(run)
    assert np.allclose(out, ref, atol=1e-9)
    report(
        "Simulated BT (12^3, p=4, real 5-vector data)",
        format_table(
            ["virtual time (s)", "messages", "KiB moved"],
            [[res.makespan, res.message_count, res.total_bytes // 1024]],
        ),
    )
