"""Section 1 / van der Wijngaart — multipartitioning vs static block
(wavefront) vs dynamic block (transpose).

The paper motivates multipartitioning with van der Wijngaart's finding that
3-D multipartitionings beat both block strategies for ADI.  Regenerates the
three-way comparison at class-B scale (every strategy timed by its
payload-free skeleton; the wavefront at its best chunk count), and in
*real-data simulated* mode on a small grid (where all three executors
produce bit-identical numerics).
"""

import numpy as np
import pytest

from repro.analysis.report import format_table
from repro.apps.adi import ADIProblem
from repro.apps.sp import sp_class
from repro.apps.workloads import random_field
from repro.core.api import plan_multipartitioning
from repro.simmpi.machine import origin2000
from repro.sweep.blockgrid import BlockGridExecutor, best_wavefront_chunks
from repro.sweep.multipart import MultipartExecutor
from repro.sweep.sequential import run_sequential
from repro.sweep.transpose import TransposeExecutor


def skeleton_makespan(shape, partitioning, machine, sched) -> float:
    return MultipartExecutor(
        partitioning, shape, machine, payload="skeleton"
    ).run_skeleton(sched).makespan


def test_three_strategies_class_b(benchmark, report):
    machine = origin2000()
    prob = sp_class("B", steps=1)
    sched = prob.schedule()
    benchmark.pedantic(
        lambda: skeleton_makespan(
            prob.shape,
            plan_multipartitioning(
                prob.shape, 16, machine.to_cost_model()
            ).partitioning,
            machine,
            sched,
        ),
        rounds=1,
        iterations=1,
    )
    rows = []
    winners = []
    for p in (4, 9, 16, 25, 36, 64, 100):
        plan = plan_multipartitioning(prob.shape, p, machine.to_cost_model())
        tm = skeleton_makespan(prob.shape, plan.partitioning, machine, sched)
        chunks, tw = best_wavefront_chunks(prob.shape, p, machine, sched)
        tt = TransposeExecutor(p, prob.shape, machine).run_skeleton(
            sched
        ).makespan
        best = min((tm, "multipartition"), (tw, "wavefront"), (tt, "transpose"))
        winners.append(best[1])
        rows.append([p, tm, tw, chunks, tt, f"{min(tw, tt) / tm - 1:.1%}",
                     best[1]])
    report(
        "Strategy comparison (SP class B; every strategy simulated as a "
        "skeleton): multipartition vs wavefront vs transpose",
        format_table(
            ["p", "multipart (s)", "wavefront (s)", "chunks",
             "transpose (s)", "margin", "winner"],
            rows,
        ),
    )
    assert set(winners) == {"multipartition"}


@pytest.mark.parametrize("p", [4, 9])
def test_three_strategies_simulated(p, benchmark, report):
    """Real-data mode on a small ADI problem: identical numerics, measured
    virtual makespans."""
    machine = origin2000()
    prob = ADIProblem(shape=(18, 18, 18), steps=1)
    sched = prob.schedule()
    field = random_field(prob.shape)
    ref = run_sequential(field, sched)

    plan = plan_multipartitioning(prob.shape, p, machine.to_cost_model())

    def run_multipart():
        return MultipartExecutor(plan.partitioning, prob.shape, machine).run(
            field, sched
        )

    out_m, res_m = benchmark(run_multipart)
    out_w, res_w = BlockGridExecutor(
        (p,), prob.shape, machine, chunks=6
    ).run(field, sched)
    out_t, res_t = TransposeExecutor(p, prob.shape, machine).run(field, sched)
    for out in (out_m, out_w, out_t):
        assert np.allclose(out, ref, atol=1e-11)
    report(
        f"Strategy comparison (simulated, 18^3 ADI, p={p})",
        format_table(
            ["strategy", "virtual time (s)", "messages"],
            [
                ["multipartition", res_m.makespan, res_m.message_count],
                ["wavefront", res_w.makespan, res_w.message_count],
                ["transpose", res_t.makespan, res_t.message_count],
            ],
        ),
    )
