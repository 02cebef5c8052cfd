"""Ablation — wavefront pipeline granularity (Section 1's tension).

"there is a tension between using small messages to maximize parallelism by
minimizing the length of pipeline fill and drain phases, and using larger
messages to minimize communication overhead in the steady state."

Sweeps the chunk count of the static-block wavefront baseline.  The
closed form (the test-only oracle in ``tests/sweep/block_oracle.py``) has an
interior optimum at class B; the simulated skeleton at class B does not (its
makespan falls all the way to one plane per chunk), and the simulated
interior optimum shows on the small real-data grid.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.apps.workloads import random_field
from repro.simmpi.machine import ethernet_cluster
from repro.sweep.blockgrid import BlockGridExecutor
from repro.sweep.ops import SweepOp
from repro.sweep.sequential import run_sequential
from tests.sweep.block_oracle import blockgrid_time

#: the class-B chunk counts both class-B sweeps cover
CLASS_B_CHUNKS = (1, 2, 4, 8, 16, 32, 64, 102)


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
    for chunks in CLASS_B_CHUNKS:
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


def test_granularity_skeleton_class_b(benchmark, report):
    """The same class-B sweep simulated: reported, not asserted."""
    machine = ethernet_cluster()
    shape = (102, 102, 102)
    sched = [SweepOp(axis=0, mult=0.5)]

    def makespan(chunks):
        return BlockGridExecutor(
            (16,), shape, machine, chunks=chunks
        ).run_skeleton(sched).makespan

    benchmark.pedantic(lambda: makespan(16), rounds=1, iterations=1)
    report(
        "Wavefront pipeline granularity (class-B plane sweep, p=16, "
        "skeleton, ethernet machine)",
        format_table(
            ["chunks", "virtual time (s)"],
            [[chunks, makespan(chunks)] for chunks in CLASS_B_CHUNKS],
        ),
    )


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
