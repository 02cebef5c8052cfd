"""End-to-end simulated SP runs (real data) at class-S/W scale.

Table 1 at class B times payload-free skeletons; this bench runs the
*actual distributed computation* through the simulator on grids small
enough to execute, verifying numerics against the sequential solver while
measuring virtual makespans, message counts, and parallel efficiency.  The
class-S scaling sweep goes through the :mod:`repro.runner` batch machinery
— the same path as ``repro sweep --mode simulated``.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.apps.sp import SPProblem, sp_class
from repro.apps.workloads import random_field
from repro.core.api import plan_multipartitioning
from repro.obs import build_profile
from repro.runner import BatchRunner, ExperimentSpec
from repro.simmpi.machine import origin2000
from repro.sweep.multipart import MultipartExecutor
from repro.sweep.sequential import run_sequential


def test_simulated_sp_class_s(benchmark, report):
    machine = origin2000()
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    prob = sp_class("S", steps=1)
    sched = prob.schedule()
    field = random_field(prob.shape)
    cpu_counts = (1, 2, 4, 6, 8, 9, 12)
    specs = [
        ExperimentSpec(shape=prob.shape, p=p, mode="simulated", app="sp")
        for p in cpu_counts
    ]
    results = BatchRunner(cache=None, jobs=2).run(specs)
    rows = []
    for p, res in zip(cpu_counts, results):
        assert "error" not in res, res.get("error")
        assert res["max_abs_error"] < 1e-11
        rows.append(
            [
                p,
                tuple(res["gammas"]),
                res["summary"]["makespan"],
                res["speedup"],
                res["summary"]["message_count"],
            ]
        )
    report(
        "Simulated SP (class S, 12^3, real data): speedups & messages",
        format_table(
            ["p", "gammas", "virtual time (s)", "speedup", "messages"], rows
        ),
        data={
            "bench": "simulated_sp_class_s",
            "rows": [
                {
                    "p": p,
                    "gammas": list(gammas),
                    "makespan": makespan,
                    "speedup": speedup,
                    "messages": messages,
                }
                for p, gammas, makespan, speedup, messages in rows
            ],
        },
    )
    # full observability profile of the p=9 (compact 3x3) run — phase
    # breakdown, comm matrix, and critical path tracked across PRs
    plan = plan_multipartitioning(prob.shape, 9, machine.to_cost_model())
    _, res9 = MultipartExecutor(
        plan.partitioning, prob.shape, machine, record_events=True
    ).run(field, sched)
    prof = build_profile(res9.trace.events, res9.clocks)
    report(
        "Simulated SP (class S, p=9): phase/critical-path profile",
        format_table(
            ["quantity", "value"],
            [
                ["makespan (s)", prof["makespan"]],
                ["efficiency", prof["efficiency"]],
                ["critical-path compute (s)",
                 prof["critical_path"]["compute"]],
                ["critical-path wire (s)",
                 prof["critical_path"]["wire"]],
                ["critical-path wait (s)",
                 prof["critical_path"]["wait"]],
            ],
        ),
        data={"bench": "sp_class_s_profile", "profile": prof},
    )
    # scalability shape on a tiny grid holds along the compact counts
    # (1 -> 4 -> 9); non-compact counts may sag — per-tile overheads loom
    # large at 12^3, exactly the paper's compactness effect in miniature
    by_p = {r[0]: r[3] for r in rows}
    assert by_p[9] > by_p[4] > by_p[1]


def test_simulated_sp_step_benchmark(benchmark):
    """Wall-clock cost of simulating one full SP step at 18^3 on 9 ranks —
    tracks simulator overhead regressions."""
    machine = origin2000()
    prob = SPProblem(shape=(18, 18, 18), steps=1)
    field = random_field(prob.shape)
    plan = plan_multipartitioning(prob.shape, 9, machine.to_cost_model())
    ex = MultipartExecutor(plan.partitioning, prob.shape, machine)

    def run():
        return ex.run(field, prob.schedule())

    out, res = benchmark(run)
    assert res.message_count > 0


def test_two_array_sp_dataflow(benchmark, report):
    """The faithful two-array SP data flow (u -> compute_rhs -> rhs; solves
    sweep rhs; u += rhs) with a real stencil RHS: verified numerics plus
    the extra shadow-fill messages the stencil costs."""
    import numpy as np

    from repro.apps.sp import SPProblem

    machine = origin2000()
    prob = SPProblem(shape=(12, 12, 12), steps=1)
    sched = prob.schedule_two_array()
    arrays = {
        "u": random_field(prob.shape),
        "rhs": np.zeros(prob.shape),
    }
    ref = run_sequential(arrays, sched)
    plan = plan_multipartitioning(prob.shape, 6, machine.to_cost_model())
    ex = MultipartExecutor(plan.partitioning, prob.shape, machine)

    def run():
        return ex.run(arrays, sched)

    out, res = benchmark(run)
    assert np.allclose(out["u"], ref["u"], atol=1e-11)
    # one-array proxy for comparison (pointwise rhs, no halo messages)
    _, res_one = MultipartExecutor(
        plan.partitioning, prob.shape, machine
    ).run(arrays["u"], prob.schedule())
    report(
        "Two-array SP step (12^3, p=6): stencil RHS halo traffic",
        format_table(
            ["variant", "messages", "KiB moved"],
            [
                ["two-array (stencil rhs)", res.message_count,
                 res.total_bytes // 1024],
                ["one-array (pointwise rhs)", res_one.message_count,
                 res_one.total_bytes // 1024],
            ],
        ),
    )
    assert res.message_count > res_one.message_count
