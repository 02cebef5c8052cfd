"""Ablation — communication aggregation (Section 5).

dHPF aggregates all of a rank's tile boundaries per phase into one message,
legal because of the neighbor property.  This ablation measures what
happens without it: message counts multiply by tiles-per-slab-per-rank and
start-up costs pile up, most visibly on non-compact partitionings and
start-up-heavy machines.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.apps.sp import sp_class
from repro.apps.workloads import random_field
from repro.core.api import plan_multipartitioning
from repro.simmpi.machine import ethernet_cluster, origin2000
from repro.sweep.multipart import MultipartExecutor
from repro.sweep.ops import SweepOp


def skeleton_makespan(shape, partitioning, machine, sched, aggregate):
    return MultipartExecutor(
        partitioning, shape, machine, aggregate=aggregate, payload="skeleton"
    ).run_skeleton(sched).makespan


def test_aggregation_skeleton(benchmark, report):
    prob = sp_class("B", steps=1)
    sched = prob.schedule()
    benchmark.pedantic(
        lambda: skeleton_makespan(
            prob.shape,
            plan_multipartitioning(
                prob.shape, 50, origin2000().to_cost_model()
            ).partitioning,
            origin2000(),
            sched,
            aggregate=False,
        ),
        rounds=1,
        iterations=1,
    )
    rows = []
    for machine in (origin2000(), ethernet_cluster()):
        for p in (16, 50, 45):
            plan = plan_multipartitioning(
                prob.shape, p, machine.to_cost_model()
            )
            t_on = skeleton_makespan(
                prob.shape, plan.partitioning, machine, sched, aggregate=True
            )
            t_off = skeleton_makespan(
                prob.shape, plan.partitioning, machine, sched, aggregate=False
            )
            rows.append(
                [machine.name, p, plan.gammas, t_on, t_off, t_off / t_on]
            )
    report(
        "Ablation: communication aggregation on/off (SP class B, skeleton)",
        format_table(
            ["machine", "p", "gammas", "agg on (s)", "agg off (s)", "ratio"],
            rows,
        ),
    )
    for row in rows:
        assert row[4] >= row[3]  # aggregation never loses


def test_aggregation_simulated(benchmark, report):
    from repro.core.mapping import Multipartitioning
    from repro.core.modmap import build_modular_mapping

    machine = ethernet_cluster()
    shape = (24, 24, 24)
    field = random_field(shape)
    # a 6x6x2 tiling on 6 ranks: each z-slab holds 6 tiles per rank, so
    # aggregation has a 6x message-count effect to measure
    b = (6, 6, 2)
    partitioning = Multipartitioning(
        build_modular_mapping(b, 6).rank_grid(b), 6
    )
    sched = [SweepOp(axis=2, mult=0.5)]

    def run_aggregated():
        return MultipartExecutor(
            partitioning, shape, machine, aggregate=True
        ).run(field, sched)

    out_on, res_on = benchmark(run_aggregated)
    out_off, res_off = MultipartExecutor(
        partitioning, shape, machine, aggregate=False
    ).run(field, sched)
    assert np.allclose(out_on, out_off)
    report(
        "Ablation (simulated, 24^3, p=6, sweep along z)",
        format_table(
            ["mode", "messages", "virtual time (s)"],
            [
                ["aggregated", res_on.message_count, res_on.makespan],
                ["per-tile", res_off.message_count, res_off.makespan],
            ],
        ),
    )
    assert res_off.message_count > res_on.message_count
