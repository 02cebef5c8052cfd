#!/usr/bin/env python3
"""Inspecting simulated executions: ASCII timelines and Chrome traces.

    python examples/trace_visualization.py [p] [out.json]

Runs a short multipartitioned ADI computation with event recording, prints
a per-rank Gantt chart (watch the perfectly balanced phases — that is the
balance property at work), and optionally writes a Chrome/Perfetto trace
file you can open at https://ui.perfetto.dev.
"""

import sys

from repro.apps.adi import ADIProblem
from repro.apps.workloads import random_field
from repro.core.api import plan_multipartitioning
from repro.simmpi import origin2000
from repro.simmpi.traceio import ascii_timeline, write_chrome_trace
from repro.sweep import BlockGridExecutor, MultipartExecutor


def main() -> None:
    p = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    out_path = sys.argv[2] if len(sys.argv) > 2 else None
    shape = (16, 16, 16)
    machine = origin2000()
    prob = ADIProblem(shape=shape, steps=1)
    field = random_field(shape)

    plan = plan_multipartitioning(shape, p, machine.to_cost_model())
    _, multi = MultipartExecutor(
        plan.partitioning, shape, machine, record_events=True
    ).run(field, prob.schedule())
    print(f"multipartitioned ADI, {plan.gammas} tiles on {p} ranks:")
    print(ascii_timeline(multi, width=64))
    print(f"efficiency {multi.efficiency():.2f}")

    _, wave = BlockGridExecutor(
        (p,), shape, machine, chunks=4, record_events=True
    ).run(field, prob.schedule())
    print(f"\nwavefront (static block), same schedule on {p} ranks:")
    print(ascii_timeline(wave, width=64))
    print(
        f"efficiency {wave.efficiency():.2f} — note the pipeline fill/"
        "drain idle time the paper's Section 1 describes"
    )

    from repro.analysis.phases import format_breakdown, op_breakdown

    print()
    print(format_breakdown(op_breakdown(multi)))

    if out_path:
        with open(out_path, "w") as fh:
            write_chrome_trace(multi.trace, fh)
        print(f"\nChrome trace written to {out_path}")


if __name__ == "__main__":
    main()
