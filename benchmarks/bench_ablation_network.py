"""Ablation — network scaling (footnote 1) and objective variants.

* ``K3(p) ~ 1/p`` (scalable network) vs constant ``K3`` (bus): on a bus the
  communication-volume term stops shrinking with p, so speedups saturate.
* Objective simplifications (phases-only vs volume-only vs full) can pick
  different tilings; the full model arbitrates by machine constants.
"""

from repro.analysis.report import format_table
from repro.apps.sp import sp_class
from repro.core.api import plan_multipartitioning
from repro.core.cost import Objective
from repro.core.optimizer import optimal_partitioning
from repro.simmpi.machine import bus, origin2000
from repro.sweep.multipart import MultipartExecutor
from repro.sweep.sequential import sequential_time


def test_bus_vs_scalable(benchmark, report):
    prob = sp_class("B", steps=1)
    sched = prob.schedule()
    benchmark.pedantic(
        lambda: sequential_time(prob.shape, sched, bus()),
        rounds=1,
        iterations=1,
    )
    rows = []
    for p in (4, 16, 36, 64):
        row = [p]
        for machine in (origin2000(), bus()):
            plan = plan_multipartitioning(
                prob.shape, p, machine.to_cost_model()
            )
            t = MultipartExecutor(
                plan.partitioning, prob.shape, machine, payload="skeleton"
            ).run_skeleton(sched).makespan
            t1 = sequential_time(prob.shape, sched, machine)
            row.append(t1 / t)
        rows.append(row)
    report(
        "Ablation: scalable vs bus network (SP class B speedups, skeleton)",
        format_table(["p", "scalable speedup", "bus speedup"], rows),
    )
    # the bus saturates: its speedup trails the scalable network, and the
    # gap widens with p
    gaps = [r[1] - r[2] for r in rows]
    assert all(g >= -1e-9 for g in gaps)
    assert gaps[-1] > gaps[0]


def test_objective_variants(benchmark, report):
    shape = (256, 128, 32)
    rows = []
    for objective in (Objective.FULL, Objective.PHASES, Objective.VOLUME):
        choice = optimal_partitioning(shape, 16, objective=objective)
        rows.append([objective.value, choice.gammas, round(choice.cost, 6)])
    report(
        "Ablation: objective variants (256x128x32, p=16)",
        format_table(["objective", "gammas", "cost"], rows),
    )

    def full_search():
        return optimal_partitioning(shape, 16, objective=Objective.FULL)

    choice = benchmark(full_search)
    assert choice.p == 16
