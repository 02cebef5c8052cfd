"""Skeleton Table 1 at scale: SP class B (102^3) and class C (162^3) over
every p <= 1024 that plans, timed layer by layer.

Each count is planned (optimizer, Figure-3 construction and
``Multipartitioning`` validation), compiled into one lockstep program (the
executor's tile geometry included) and timed by the lockstep replay, the
path ``repro sweep --mode skeleton`` takes.  A count the planner or the
tile grid rejects (a gamma larger than the extent it cuts) is an *error*,
not a failure: it is counted and reported, and the run goes on.  Every
replayed run's message and byte totals are checked against the closed
form.

Writes every count's plan / compile / replay milliseconds and op count
(``null`` for an error) to ``BENCH_skeleton_scale.json`` at the repo root.
The printed rows group the counts by range of p; wall times are sums over
the counts of a group (and the slowest count's plan + compile + replay).
Not part of Tier-1: it takes minutes.
"""

import json
import pathlib
import time

from repro.analysis.counting import schedule_comm_totals
from repro.analysis.report import format_table
from repro.apps import plan_app
from repro.simmpi.engine import replay_lockstep
from repro.simmpi.machine import origin2000
from repro.sweep.multipart import MultipartExecutor

_SCALE_JSON = pathlib.Path(__file__).parent.parent / "BENCH_skeleton_scale.json"

CLASSES = {"B": (102,) * 3, "C": (162,) * 3}
MAX_P = 1024
GROUPS = ((1, 64), (65, 128), (129, 256), (257, 512), (513, 1024))
ANCHORS = (64, 128, 256, 512, 960, 997, 1000, 1024)


def _run(shape, p, machine):
    """(plan, compile, replay) wall seconds and the op count, or None when
    the count does not plan."""
    t0 = time.perf_counter()
    try:
        config = plan_app("sp", shape, p, cost_model=machine.to_cost_model())
        t1 = time.perf_counter()
        # the executor's tile grid rejects a gamma above its extent; its
        # geometry arrays count as compile time
        executor = MultipartExecutor(
            config.partitioning, config.problem.field_shape, machine,
            payload="skeleton",
        )
    except ValueError:
        return None
    schedule = config.problem.schedule()
    compiled = executor.compile(schedule)
    t2 = time.perf_counter()
    assert compiled.lockstep.paired, p
    run = replay_lockstep(machine, compiled.lockstep)
    t3 = time.perf_counter()
    assert (run.message_count, run.total_bytes) == schedule_comm_totals(
        config.problem.field_shape, config.partitioning, schedule
    ), p
    ops = len(compiled.lockstep.steps) * p
    return t1 - t0, t2 - t1, t3 - t2, ops


def test_skeleton_scale(benchmark, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    machine = origin2000()
    rows, anchors, doc, per_p = [], [], {}, {}
    for name, shape in CLASSES.items():
        runs = {p: _run(shape, p, machine) for p in range(1, MAX_P + 1)}
        groups = []
        for lo, hi in GROUPS:
            done = [runs[p] for p in range(lo, hi + 1) if runs[p]]
            errors = sum(runs[p] is None for p in range(lo, hi + 1))
            plan, comp, replay = (sum(r[i] for r in done) for i in range(3))
            slowest = max((sum(r[:3]) for r in done), default=0.0)
            groups.append({
                "p": f"{lo}-{hi}", "planned": len(done), "errors": errors,
                "plan_s": plan, "compile_s": comp, "replay_s": replay,
                "slowest_ms": slowest * 1e3,
                "ops": sum(r[3] for r in done),
            })
            rows.append([
                name, f"{lo}-{hi}", len(done), errors, f"{plan:.2f}",
                f"{comp:.2f}", f"{replay:.2f}", f"{slowest * 1e3:.0f}",
            ])
        for p in ANCHORS:
            r = runs[p]
            anchors.append([name, p] + (
                ["error"] * 4 if r is None
                else [f"{r[0] * 1e3:.1f}", f"{r[1] * 1e3:.1f}",
                      f"{r[2] * 1e3:.1f}", r[3]]
            ))
        doc[name] = {
            "shape": list(shape),
            "groups": groups,
            "total_s": sum(g["plan_s"] + g["compile_s"] + g["replay_s"]
                           for g in groups),
        }
        per_p[name] = {
            "shape": list(shape),
            # [p, plan ms, compile ms, replay ms, ops], or [p, None] for an
            # error
            "rows": [
                [p] + ([round(t * 1e3, 3) for t in r[:3]] + [r[3]]
                       if r else [None])
                for p, r in runs.items()
            ],
        }

    with _SCALE_JSON.open("w") as fh:
        json.dump({"bench": "skeleton_scale", "machine": machine.name,
                   "classes": per_p}, fh)
        fh.write("\n")

    report(
        "Skeleton SP over every p <= 1024, class B and C: "
        "plan / compile / replay wall time",
        format_table(
            ["class", "p", "planned", "errors", "plan s", "compile s",
             "replay s", "slowest ms"],
            rows,
        ) + "\n\n" + format_table(
            ["class", "p", "plan ms", "compile ms", "replay ms", "ops"],
            anchors,
        ),
        data=doc,
    )
