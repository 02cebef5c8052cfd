"""Ablation — wavefront pipeline granularity (Section 1's tension).

"there is a tension between using small messages to maximize parallelism by
minimizing the length of pipeline fill and drain phases, and using larger
messages to minimize communication overhead in the steady state."

Sweeps the chunk count of the static-block wavefront baseline and shows the
interior optimum, both in its closed-form approximation and simulated.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.apps.workloads import random_field
from repro.simmpi.machine import ethernet_cluster
from repro.sweep.blockgrid import BlockGridExecutor
from repro.sweep.modeled import blockgrid_time
from repro.sweep.ops import SweepOp
from repro.sweep.sequential import run_sequential


def test_granularity_sweep_closed_form(benchmark, report):
    machine = ethernet_cluster()
    benchmark.pedantic(
        lambda: blockgrid_time(
            (102, 102, 102), (16,), ethernet_cluster(),
            [SweepOp(axis=0, mult=0.5)], chunks=16
        ),
        rounds=1,
        iterations=1,
    )
    shape = (102, 102, 102)
    sched = [SweepOp(axis=0, mult=0.5)]
    rows = []
    times = {}
    for chunks in (1, 2, 4, 8, 16, 32, 64, 102):
        t = blockgrid_time(shape, (16,), machine, sched, chunks=chunks)
        times[chunks] = t
        rows.append([chunks, t])
    report(
        "Wavefront pipeline granularity (class-B plane sweep, p=16, "
        "closed form, ethernet machine)",
        format_table(["chunks", "approx. time (s)"], rows),
    )
    best = min(times, key=times.get)
    assert 1 < best < 102  # interior optimum: the paper's tension is real


def test_granularity_simulated(benchmark, report):
    machine = ethernet_cluster()
    shape = (24, 24, 24)
    field = random_field(shape)
    sched = [SweepOp(axis=0, mult=0.5)]
    ref = run_sequential(field, sched)
    rows = []
    for chunks in (1, 4, 12, 24):
        out, res = BlockGridExecutor(
            (4,), shape, machine, chunks=chunks
        ).run(field, sched)
        assert np.allclose(out, ref, atol=1e-12)
        rows.append([chunks, res.makespan, res.message_count])
    report(
        "Wavefront granularity (simulated, 24^3, p=4)",
        format_table(["chunks", "virtual time (s)", "messages"], rows),
    )

    def run_mid():
        return BlockGridExecutor((4,), shape, machine, chunks=12).run(
            field, sched
        )

    benchmark(run_mid)
