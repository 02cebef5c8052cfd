#!/usr/bin/env python3
"""Three parallelization strategies on the same ADI computation.

    python examples/strategy_comparison.py [p]

Runs the identical schedule through all three executors with real data —
multipartitioning, static-block wavefront, and dynamic-block transpose —
verifies they produce the same answer, and compares virtual time, message
counts and parallel efficiency (van der Wijngaart's comparison, Section 1).
"""

import sys

import numpy as np

from repro.analysis.report import format_table
from repro.apps.adi import ADIProblem
from repro.apps.workloads import random_field
from repro.core.api import plan_multipartitioning
from repro.simmpi import origin2000
from repro.sweep import (
    BlockGridExecutor,
    MultipartExecutor,
    TransposeExecutor,
    run_sequential,
)


def main() -> None:
    p = int(sys.argv[1]) if len(sys.argv) > 1 else 9
    shape = (27, 27, 27)
    machine = origin2000()
    prob = ADIProblem(shape=shape, steps=2)
    schedule = prob.schedule()
    field = random_field(shape)
    reference = run_sequential(field, schedule)

    plan = plan_multipartitioning(shape, p, machine.to_cost_model())
    executors = [
        (
            f"multipartition {plan.gammas}",
            MultipartExecutor(plan.partitioning, shape, machine,
                              record_events=True),
        ),
        (
            "wavefront (static block)",
            BlockGridExecutor((p,), shape, machine, chunks=6,
                              record_events=True),
        ),
        (
            "transpose (dynamic block)",
            TransposeExecutor(p, shape, machine, record_events=True),
        ),
    ]

    rows = []
    for name, ex in executors:
        out, run = ex.run(field, schedule)
        err = float(np.abs(out - reference).max())
        assert err < 1e-10, f"{name}: wrong result ({err:.2e})"
        rows.append(
            [
                name,
                run.makespan * 1e3,
                run.message_count,
                run.total_bytes // 1024,
                f"{run.efficiency():.2f}",
            ]
        )
    print(
        format_table(
            ["strategy", "virtual ms", "messages", "KiB moved", "efficiency"],
            rows,
            title=f"ADI {shape}, {prob.steps} steps, p={p} "
            f"(all results identical to sequential)",
        )
    )


if __name__ == "__main__":
    main()
