"""Table 1 — NAS SP class B (102^3) speedups: hand-coded (diagonal) vs
dHPF (generalized multipartitioning) on the Origin-2000 machine model, via
skeleton simulation.

Regenerates every row of the paper's Table 1 (shapes, not absolute
seconds).  Real-data runs top out around class S; skeleton mode replays
the exact communication and timing structure payload-free (equivalence
pinned by ``tests/sweep/test_skeleton.py``), so the whole processor grid
simulates in about a second.

Writes ``BENCH_table1.json`` at the repo root: one row per processor count
with tiling, makespan, speedup, and message/byte totals, plus the published
Table-1 numbers for shape comparison.
"""

import json
import pathlib
import time

from repro.analysis.report import format_table1
from repro.analysis.speedup import (
    PAPER_CPU_COUNTS,
    PAPER_TABLE1_DHPF,
    PAPER_TABLE1_HAND,
    sp_speedup_table,
)
from repro.apps.sp import sp_class
from repro.core.api import plan_multipartitioning
from repro.runner import BatchRunner, ExperimentSpec
from repro.simmpi.machine import origin2000
from repro.sweep.multipart import MultipartExecutor

_TABLE1_JSON = pathlib.Path(__file__).parent.parent / "BENCH_table1.json"

CPU_COUNTS = PAPER_CPU_COUNTS


def test_table1_class_b_skeleton(benchmark, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    prob = sp_class("B", steps=1)
    t0 = time.perf_counter()
    rows = sp_speedup_table(prob.shape, steps=1, cpu_counts=CPU_COUNTS)
    wall = time.perf_counter() - t0

    # message/byte totals per count, from the same specs the table ran
    runner = BatchRunner()
    comm = runner.run([
        ExperimentSpec(shape=prob.shape, p=p, mode="skeleton", app="sp")
        for p in CPU_COUNTS
    ])
    doc_rows = []
    for row, res in zip(rows, comm):
        doc_rows.append({
            "p": row.p,
            "gammas": list(row.gammas),
            "makespan": res["summary"]["makespan"],
            "speedup": row.dhpf_speedup,
            "hand_speedup": row.hand_speedup,
            "messages": res["summary"]["message_count"],
            "total_bytes": res["summary"]["total_bytes"],
            "paper_dhpf": PAPER_TABLE1_DHPF.get(row.p),
            "paper_hand": PAPER_TABLE1_HAND.get(row.p),
        })
    doc = {
        "bench": "table1_class_b_skeleton",
        "shape": list(prob.shape),
        "mode": "skeleton",
        "wall_seconds": wall,
        "rows": doc_rows,
    }
    with _TABLE1_JSON.open("w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    report(
        "Table 1: NAS SP class B speedups (102^3, skeleton simulation)",
        format_table1(rows),
        data=doc,
    )

    # paper shape claims
    by_row = {r.p: r for r in rows}
    assert [r.p for r in rows] == list(PAPER_CPU_COUNTS)
    assert by_row[50].dhpf_speedup < by_row[49].dhpf_speedup
    assert all(r.efficiency > 0.7 for r in rows)
    assert tuple(sorted(by_row[50].gammas)) == (5, 10, 10)

    by_p = {r["p"]: r["speedup"] for r in doc_rows}
    # monotone trend along the compact (perfect-cube-friendly) counts — the
    # paper's compactness story; intermediate counts may sag slightly
    compact = [1, 4, 9, 16, 25, 36, 64]
    for lo, hi in zip(compact, compact[1:]):
        assert by_p[hi] > by_p[lo], (lo, hi, by_p)
    # overall trend: the largest counts beat the small ones decisively
    assert by_p[64] > 10 * by_p[4]
    # p=1 baseline normalization: exactly the sequential schedule, modulo
    # the dHPF compute-overhead factor applied to the compiled column
    assert abs(by_p[1] * 1.03 - 1.0) < 1e-9


def test_table1_single_point_p50(benchmark):
    """Micro-bench: one full plan + skeleton run at the interesting p=50."""
    machine = origin2000()
    prob = sp_class("B", steps=1)
    schedule = prob.schedule()

    def run():
        plan = plan_multipartitioning(
            prob.shape, 50, machine.to_cost_model()
        )
        return MultipartExecutor(
            plan.partitioning, prob.shape, machine, payload="skeleton"
        ).run_skeleton(schedule).makespan

    t = benchmark(run)
    assert t > 0


def test_class_a_p16_wall_clock(benchmark):
    """Acceptance guard: simulated SP class A (64^3) at p=16 in skeleton
    mode completes well inside the 30 s budget."""
    machine = origin2000()
    prob = sp_class("A", steps=1)
    plan = plan_multipartitioning(prob.shape, 16, machine.to_cost_model())
    ex = MultipartExecutor(
        plan.partitioning, prob.shape, machine, payload="skeleton"
    )
    t0 = time.perf_counter()
    res = benchmark(lambda: ex.run_skeleton(prob.schedule()))
    wall = time.perf_counter() - t0
    assert wall < 30.0
    assert res.message_count > 0
