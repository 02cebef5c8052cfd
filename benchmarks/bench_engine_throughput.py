"""Raw engine throughput: events/sec traced vs. untraced, and the engine
vs. the lockstep replay on a compiled skeleton.

The null-emit fast path skips ``TraceEvent`` construction entirely when
``record_events=False`` and no sinks are attached — this bench records how
much that is worth against the traced path, measured in the same run.

The skeleton rows time the engine over per-rank op tuples and the
lockstep :func:`~repro.simmpi.engine.replay_lockstep` on the same compiled
SP class-A p=16 program, so their ratio is a same-machine measurement.

Writes ``BENCH_engine.json`` at the repo root.
"""

import json
import pathlib
import time

from repro.analysis.report import format_table
from repro.apps.sp import sp_class
from repro.core.api import plan_multipartitioning
from repro.simmpi.engine import Engine, replay_lockstep, run_programs
from repro.simmpi.machine import MachineModel, origin2000
from repro.simmpi.message import Bytes, ComputeOp, RecvOp, SendOp
from repro.simmpi.summary import RunSummary
from repro.sweep.multipart import MultipartExecutor

_ENGINE_JSON = pathlib.Path(__file__).parent.parent / "BENCH_engine.json"

_RANKS, _ITERS = 8, 4000


def _ring_programs(n, iters):
    def prog(rank):
        nxt, prv = (rank + 1) % n, (rank - 1) % n
        for _ in range(iters):
            yield ComputeOp(1e-6)
            yield SendOp(nxt, Bytes(800))
            yield RecvOp(prv)
    return [prog(r) for r in range(n)]


def _ring_ops_per_sec(record_events, trials=7):
    best = 0.0
    for _ in range(trials):
        engine = Engine(MachineModel(), _RANKS, record_events=record_events)
        t0 = time.perf_counter()
        engine.run(_ring_programs(_RANKS, _ITERS))
        dt = time.perf_counter() - t0
        best = max(best, _RANKS * _ITERS * 3 / dt)
    return best


def test_engine_throughput(benchmark, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _ring_ops_per_sec(False, trials=2)  # warmup
    traced = _ring_ops_per_sec(True)
    untraced = _ring_ops_per_sec(False)

    # the two replays of one compiled real workload, SP class-A p=16:
    # ops/sec over its sends, receives and computes, best of 15
    # interleaved trials
    machine = origin2000()
    prob = sp_class("A", steps=1)
    plan = plan_multipartitioning(prob.shape, 16, machine.to_cost_model())
    ex = MultipartExecutor(
        plan.partitioning, prob.shape, machine, payload="skeleton"
    )
    compiled = ex.compile(prob.schedule())
    ops = compiled.ops
    n_ops = sum(map(len, ops))
    replays = {
        "engine": lambda: run_programs(
            machine, [(op for op in rank_ops) for rank_ops in ops]
        ),
        "lockstep": lambda: replay_lockstep(machine, compiled.lockstep),
    }
    best = dict.fromkeys(replays, 0.0)
    summaries = {}
    for _ in range(15):
        for name, replay in replays.items():
            t0 = time.perf_counter()
            res = replay()
            dt = time.perf_counter() - t0
            best[name] = max(best[name], n_ops / dt)
            summaries[name] = json.dumps(RunSummary.from_result(res).to_dict())
    assert summaries["lockstep"] == summaries["engine"]
    doc = {
        "bench": "engine_throughput",
        "workload": f"ring {_RANKS} ranks x {_ITERS} iters x 3 ops",
        "ops_per_sec": {
            "traced": traced,
            "untraced": untraced,
        },
        "skeleton": {
            "workload": f"SP class A p=16, compiled once, {n_ops} ops",
            "engine_ops_per_sec": best["engine"],
            "lockstep_ops_per_sec": best["lockstep"],
            "lockstep_over_engine": best["lockstep"] / best["engine"],
        },
        "untraced_over_traced": untraced / traced,
    }
    with _ENGINE_JSON.open("w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    report(
        "Engine throughput: traced vs untraced (null-emit fast path), "
        "engine vs lockstep replay (compiled skeleton)",
        format_table(
            ["variant", "ops/sec"],
            [
                ["traced", f"{traced:,.0f}"],
                ["untraced", f"{untraced:,.0f}"],
                ["skeleton, engine", f"{best['engine']:,.0f}"],
                ["skeleton, lockstep", f"{best['lockstep']:,.0f}"],
            ],
        ),
        data=doc,
    )
    # same-run ratios only: the fast path must stay decisively ahead of
    # event construction, and the lockstep replay ahead of the engine
    assert untraced > 1.5 * traced
    assert best["lockstep"] >= 1.3 * best["engine"]
